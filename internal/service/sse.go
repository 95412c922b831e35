package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// SSEHeartbeat is how often a quiet stream emits a comment line so
// proxies and clients can distinguish "no news" from a dead connection.
const SSEHeartbeat = 15 * time.Second

// SSEPollInterval paces the stream handlers' checks for new progress; SSE
// events are emitted on change only, so the wire stays quiet between
// accumulation rounds.
const SSEPollInterval = 100 * time.Millisecond

// snapshotLogSize bounds how many numbered snapshots a job retains for
// Last-Event-ID resume. A reconnecting client whose last-seen event has
// already been evicted simply resumes from the oldest retained snapshot —
// snapshots are cumulative (each is the full Welford state), so skipping
// superseded ones loses nothing.
const snapshotLogSize = 32

// snapshotLog is a bounded, monotonically-numbered record of one job's
// partial-result snapshots. Sequence numbers start at 1 and never
// repeat, so they double as SSE event ids: a client that reconnects
// with Last-Event-ID: N is replayed every retained snapshot with seq >
// N, exactly once each.
type snapshotLog struct {
	mu      sync.Mutex
	seq     uint64
	entries []SnapshotEvent
}

// SnapshotEvent is one numbered partial-result snapshot, as replayed to
// resuming SSE clients.
type SnapshotEvent struct {
	Seq    uint64
	Result *Result
}

func (l *snapshotLog) append(r *Result) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	l.entries = append(l.entries, SnapshotEvent{Seq: l.seq, Result: r})
	if len(l.entries) > snapshotLogSize {
		l.entries = l.entries[len(l.entries)-snapshotLogSize:]
	}
}

// since returns the retained snapshots with sequence numbers above
// after, oldest first.
func (l *snapshotLog) since(after uint64) []SnapshotEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := 0
	for i < len(l.entries) && l.entries[i].Seq <= after {
		i++
	}
	if i == len(l.entries) {
		return nil
	}
	out := make([]SnapshotEvent, len(l.entries)-i)
	copy(out, l.entries[i:])
	return out
}

// SnapshotsSince returns the job's retained partial-result snapshots
// with sequence numbers above after, oldest first. It backs the SSE
// stream's Last-Event-ID resume.
func (m *Manager) SnapshotsSince(id string, after uint64) ([]SnapshotEvent, error) {
	j, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	return j.snaps.since(after), nil
}

// SSEWriter renders Server-Sent Events (text/event-stream). Each send
// extends the connection's write deadline, so streams outlive the server's
// global write timeout (30s by default in cmd/ahs-serve) for as long as
// events keep flowing.
type SSEWriter struct {
	w  http.ResponseWriter
	rc *http.ResponseController
}

// NewSSEWriter switches the response into event-stream mode. It fails
// (with a plain 500, nothing yet written) when the underlying writer
// cannot flush — SSE without flushing would buffer forever.
func NewSSEWriter(w http.ResponseWriter) (*SSEWriter, error) {
	// Headers must precede the Flush probe: the first successful Flush
	// commits the response. A failed probe writes nothing, so the error
	// path is still free to send a plain JSON 500.
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no") // tell nginx-style proxies not to buffer
	rc := http.NewResponseController(w)
	if err := rc.Flush(); err != nil {
		return nil, fmt.Errorf("service: response writer cannot stream: %w", err)
	}
	return &SSEWriter{w: w, rc: rc}, nil
}

// Send writes one event with a JSON data payload and flushes it.
func (s *SSEWriter) Send(event string, data any) error {
	return s.send(event, 0, data)
}

// SendID writes one event carrying an SSE event id, so clients that
// reconnect can resume from it via the Last-Event-ID request header.
func (s *SSEWriter) SendID(event string, id uint64, data any) error {
	return s.send(event, id, data)
}

func (s *SSEWriter) send(event string, id uint64, data any) error {
	body, err := json.Marshal(data)
	if err != nil {
		return err
	}
	// Each write earns a fresh deadline; an idle or stuck client is cut
	// loose after one heartbeat-scaled grace instead of holding the
	// connection forever.
	_ = s.rc.SetWriteDeadline(time.Now().Add(2 * SSEHeartbeat))
	if id > 0 {
		if _, err := fmt.Fprintf(s.w, "id: %d\n", id); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(s.w, "event: %s\ndata: %s\n\n", event, body); err != nil {
		return err
	}
	return s.rc.Flush()
}

// Heartbeat writes a comment line (ignored by SSE clients) so proxies and
// clients can tell a quiet stream from a dead connection.
func (s *SSEWriter) Heartbeat() error {
	_ = s.rc.SetWriteDeadline(time.Now().Add(2 * SSEHeartbeat))
	if _, err := fmt.Fprint(s.w, ": heartbeat\n\n"); err != nil {
		return err
	}
	return s.rc.Flush()
}

// lastEventID parses the SSE Last-Event-ID request header; absent or
// unparseable means 0, i.e. start from the beginning.
func lastEventID(r *http.Request) uint64 {
	v, err := strconv.ParseUint(r.Header.Get("Last-Event-ID"), 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// handleJobStream serves GET /v1/jobs/{id}/stream: an SSE stream of the
// job's life. Events (all JSON payloads, schema in docs/api.md):
//
//	progress  {"batchesDone":N,"maxBatches":M} — monotone, on change
//	snapshot  partial Result — the CI converging, after accumulation rounds;
//	          carries an "id:" line (the snapshot sequence number)
//	result    terminal Result — identical to GET /v1/results/{id}
//	status    terminal JobView for non-done outcomes (cancelled, failed)
//
// The stream always ends with exactly one terminal event (result or
// status) and then closes. Cached jobs stream their result immediately.
// A client whose connection dropped reconnects with Last-Event-ID set to
// the last snapshot id it saw; the stream resumes with the retained
// snapshots it missed instead of replaying from the start.
func (s *server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := s.m.Job(id); err != nil {
		WriteError(w, http.StatusNotFound, err)
		return
	}
	s.streamJob(w, r, id)
}

// streamJob runs the SSE loop for a known job id, honoring the request's
// Last-Event-ID. Shared by the job stream and the by-hash scenario
// stream.
func (s *server) streamJob(w http.ResponseWriter, r *http.Request, id string) {
	sse, err := NewSSEWriter(w)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err)
		return
	}

	var lastProgress Progress
	sentProgress := false
	// Resume point: snapshots at or below this sequence number were
	// already delivered on a previous connection.
	sentSnap := lastEventID(r)
	heartbeat := time.Now()
	ticker := time.NewTicker(SSEPollInterval)
	defer ticker.Stop()
	for {
		view, err := s.m.Job(id)
		if err != nil {
			// Evicted from history mid-stream (bounded HistorySize): the
			// terminal event is gone; close and let the client re-poll.
			return
		}
		if p := view.Progress; !sentProgress || p != lastProgress {
			if err := sse.Send("progress", p); err != nil {
				return
			}
			lastProgress, sentProgress = p, true
			heartbeat = time.Now()
		}
		snaps, err := s.m.SnapshotsSince(id, sentSnap)
		if err != nil {
			return
		}
		for _, ev := range snaps {
			if err := sse.SendID("snapshot", ev.Seq, ev.Result); err != nil {
				return
			}
			sentSnap = ev.Seq
			heartbeat = time.Now()
		}
		if view.Status.Terminal() {
			res, view, err := s.m.Result(id)
			if err != nil {
				return
			}
			if view.Status == StatusDone && res != nil {
				_ = sse.Send("result", res)
			} else {
				_ = sse.Send("status", view)
			}
			return
		}
		if time.Since(heartbeat) >= SSEHeartbeat {
			if err := sse.Heartbeat(); err != nil {
				return
			}
			heartbeat = time.Now()
		}
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
	}
}
