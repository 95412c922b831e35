package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ahs/internal/config"
	"ahs/internal/mc"
	"ahs/internal/segment"
	"ahs/internal/telemetry"
)

// The journal makes the coordinator crash-safe. Every job mutation that
// matters for recovery — submission, each merged chunk, the terminal
// outcome, and final disposal — is appended as one CRC-framed, fsync'd
// record before the mutation is considered durable. After a crash (power
// cut, kill -9, OOM) the coordinator replays the journal, rebuilds each
// job's merger from the folded prefix, requeues the chunks that never
// merged, and finishes the job with a curve bit-identical to an
// uninterrupted run: chunk simulation is deterministic, so re-simulating a
// lost chunk reproduces the exact bits the crashed process threw away.
//
// On-disk layout (inside JournalConfig.Dir):
//
//	snapshot.wal   compacted prefix: the records of every live job
//	journal.wal    append-only tail since the last compaction
//	journal.lock   the open journal's writer flock (internal/segment)
//
// Both files are internal/segment logs whose payloads are JSON
// journalRecords. A torn write (partial frame at the tail) or a corrupted
// frame fails its CRC and cuts the replay at the last valid frame —
// records are applied completely or not at all, never half-applied.
// Compaction atomically replaces the snapshot with the live jobs, then
// resets the tail; replay is idempotent (duplicate submits and chunks are
// skipped), so a crash between those two steps at worst replays records
// twice, harmlessly.

// Journal file names inside the journal directory.
const (
	journalSnapshotName = "snapshot.wal"
	journalTailName     = "journal.wal"
	journalLockName     = "journal.lock"
)

// Journal record types.
const (
	recSubmit = "submit" // a job was accepted: scenario + shard layout
	recChunk  = "chunk"  // one chunk's sufficient statistics merged
	recFinish = "finish" // terminal outcome (success or permanent failure)
	recDrop   = "drop"   // job delivered or abandoned: forget it entirely
)

// journalRecord is the JSON payload of one journal frame. Exactly one of
// the type-specific field groups is populated, selected by Type.
type journalRecord struct {
	Type string `json:"type"`
	// Job identifies the job all record types refer to. IDs are assigned
	// once at submit and survive restarts.
	Job uint64 `json:"job"`

	// Submit fields: everything needed to rebuild the job byte-for-byte.
	Scenario     *config.Scenario `json:"scenario,omitempty"`
	Hash         string           `json:"hash,omitempty"`
	RoundSize    uint64           `json:"roundSize,omitempty"`
	ChunkBatches uint64           `json:"chunkBatches,omitempty"`
	LocalWorkers int              `json:"localWorkers,omitempty"`
	// Trace is the submitting trace context in W3C traceparent form, so a
	// restored job's chunks keep reporting under the original trace ID.
	Trace string `json:"trace,omitempty"`

	// Chunk field: the merged sufficient statistics.
	State *mc.ChunkState `json:"state,omitempty"`

	// Finish field: empty for success, the failure otherwise.
	Error string `json:"error,omitempty"`
}

// journalJob is the folded per-job journal state: the submit record plus
// every chunk merged so far, and the terminal outcome if one was reached.
type journalJob struct {
	id        uint64
	submit    journalRecord
	chunks    map[uint64]*mc.ChunkState // keyed by spec start
	finished  bool
	finishErr string
}

// JournalConfig configures OpenJournal. Only Dir is required.
type JournalConfig struct {
	// Dir is the journal directory, created if missing. One open journal
	// per directory: OpenJournal fails with a *segment.LockHeldError
	// naming the holder while another journal has it open.
	Dir string
	// CompactEvery is the number of appended records between compactions
	// (default 1024). Compaction cost is proportional to live-job state,
	// which is small, so the default favours a short replay tail.
	CompactEvery int
	// Telemetry, when non-nil, receives the ahs_journal_* families.
	Telemetry *telemetry.Registry
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// Journal is the coordinator's crash-recovery log. All methods are safe
// for concurrent use. Open with OpenJournal, hand to cluster.Config.
type Journal struct {
	cfg     JournalConfig
	metrics *journalMetrics
	lock    *os.File // the directory's writer flock, held until Close

	mu       sync.Mutex
	tail     *segment.Log
	jobs     map[uint64]*journalJob
	replayed int // records recovered at open
	dropped  int // CRC-valid but undecodable frames skipped at open
	appends  int // records appended since the last compaction
	closed   bool

	compactions    int       // successful compactions since open
	lastCompact    time.Time // completion time of the last successful compaction
	lastCompactErr string    // last compaction failure, cleared on success
}

// JournalStats is the journal's operational snapshot, surfaced through
// GET /healthz on cmd/ahs-serve.
type JournalStats struct {
	// Dir is the journal directory.
	Dir string `json:"dir"`
	// LiveJobs counts jobs the journal tracks (submitted, not dropped).
	LiveJobs int `json:"liveJobs"`
	// Compactions counts successful snapshot compactions since open.
	Compactions int `json:"compactions"`
	// LastCompaction is the RFC3339 completion time of the most recent
	// successful compaction; empty if none has run yet.
	LastCompaction string `json:"lastCompaction,omitempty"`
	// LastCompactionError is the most recent compaction failure; empty
	// when the last attempt succeeded (or none has run).
	LastCompactionError string `json:"lastCompactionError,omitempty"`
}

// Stats reports the journal's directory and compaction status.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JournalStats{
		Dir:                 j.cfg.Dir,
		LiveJobs:            len(j.jobs),
		Compactions:         j.compactions,
		LastCompactionError: j.lastCompactErr,
	}
	if !j.lastCompact.IsZero() {
		st.LastCompaction = j.lastCompact.UTC().Format(time.RFC3339Nano)
	}
	return st
}

// OpenJournal opens (or creates) the journal directory, takes its writer
// lock, replays any existing snapshot and tail — cutting torn or corrupt
// frames at the last valid record — and positions the tail file for
// appending.
func OpenJournal(cfg JournalConfig) (_ *Journal, err error) {
	if cfg.Dir == "" {
		return nil, errors.New("cluster: journal needs a directory")
	}
	if cfg.CompactEvery <= 0 {
		cfg.CompactEvery = 1024
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: journal dir: %w", err)
	}
	host, _ := os.Hostname()
	lock, err := segment.AcquireLock(filepath.Join(cfg.Dir, journalLockName), filepath.Base(os.Args[0])+"@"+host)
	if err != nil {
		return nil, fmt.Errorf("cluster: journal: %w", err)
	}
	defer func() {
		if err != nil {
			segment.ReleaseLock(lock)
		}
	}()
	j := &Journal{
		cfg:  cfg,
		lock: lock,
		jobs: make(map[uint64]*journalJob),
	}
	j.metrics = newJournalMetrics(cfg.Telemetry, j)

	// Replay snapshot first (the compacted prefix), then the tail.
	snapPath := filepath.Join(cfg.Dir, journalSnapshotName)
	data, err := os.ReadFile(snapPath)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("cluster: read journal %s: %w", snapPath, err)
	}
	_, j.dropped = segment.Scan(data, j.replayFrame)
	tailPath := filepath.Join(cfg.Dir, journalTailName)
	tail, sc, err := segment.Open(tailPath, false, j.replayFrame)
	if err != nil {
		return nil, fmt.Errorf("cluster: open journal tail: %w", err)
	}
	j.tail = tail
	j.dropped += sc.Skipped
	j.metrics.replay(j.replayed, j.dropped)
	if sc.Cut > 0 {
		cfg.Logf("cluster: journal %s: dropped %d torn/corrupt trailing bytes", tailPath, sc.Cut)
	}
	if j.replayed > 0 || j.dropped > 0 {
		cfg.Logf("cluster: journal %s replayed %d records (%d undecodable skipped), %d live jobs",
			cfg.Dir, j.replayed, j.dropped, len(j.liveJobsLocked()))
	}
	return j, nil
}

// encodeRecord is the journal's record codec: a record's frame payload.
func encodeRecord(rec journalRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("cluster: encode journal record: %w", err)
	}
	return payload, nil
}

// decodeRecord is encodeRecord's inverse; it rejects payloads that are not
// a well-formed record.
func decodeRecord(payload []byte) (journalRecord, bool) {
	var rec journalRecord
	if err := json.Unmarshal(payload, &rec); err != nil || !rec.wellFormed() {
		return rec, false
	}
	return rec, true
}

// replayFrame is the replay decoder: it folds one well-formed record into
// the job state and rejects any other payload.
func (j *Journal) replayFrame(fr segment.Frame) bool {
	rec, ok := decodeRecord(fr.Payload)
	if ok {
		j.fold(rec)
		j.replayed++
	}
	return ok
}

// wellFormed checks the per-type field invariants a writer maintains, so
// replay never builds jobs from half-described records.
func (r *journalRecord) wellFormed() bool {
	switch r.Type {
	case recSubmit:
		return r.Job != 0 && r.Scenario != nil && r.Hash != "" && r.RoundSize > 0
	case recChunk:
		return r.Job != 0 && r.State != nil && r.State.Spec.Count > 0
	case recFinish, recDrop:
		return r.Job != 0
	default:
		return false
	}
}

// fold applies one record to the in-memory job state. Folding is
// idempotent: duplicate submits, chunks, finishes and drops (possible
// after a crash between compaction steps) change nothing.
func (j *Journal) fold(rec journalRecord) {
	switch rec.Type {
	case recSubmit:
		if _, ok := j.jobs[rec.Job]; !ok {
			j.jobs[rec.Job] = &journalJob{
				id:     rec.Job,
				submit: rec,
				chunks: make(map[uint64]*mc.ChunkState),
			}
		}
	case recChunk:
		if job, ok := j.jobs[rec.Job]; ok {
			if _, dup := job.chunks[rec.State.Spec.Start]; !dup {
				job.chunks[rec.State.Spec.Start] = rec.State
			}
		}
	case recFinish:
		if job, ok := j.jobs[rec.Job]; ok {
			job.finished = true
			job.finishErr = rec.Error
		}
	case recDrop:
		delete(j.jobs, rec.Job)
	}
}

// append writes and fsyncs one record, folds it into the in-memory
// state, and compacts when the tail has grown past CompactEvery records.
// The record is durable when append returns. Its whole duration,
// lock wait and compaction included, lands in ahs_journal_append_seconds.
func (j *Journal) append(rec journalRecord) error {
	defer j.metrics.timeAppend(time.Now())
	payload, err := encodeRecord(rec)
	if err != nil {
		return err
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("cluster: journal closed")
	}
	fr, err := j.tail.Append(payload, nil)
	if err != nil {
		return fmt.Errorf("cluster: journal append: %w", err)
	}
	j.metrics.fsynced(1)
	j.fold(rec)
	j.metrics.appended(int(fr.Size()))
	j.appends++
	if j.appends >= j.cfg.CompactEvery {
		if err := j.compactLocked(); err != nil {
			// A failed compaction loses nothing: the snapshot rename is
			// atomic and the tail keeps growing. Log and carry on.
			j.lastCompactErr = err.Error()
			j.cfg.Logf("cluster: journal compaction failed: %v", err)
		}
	}
	return nil
}

// compactLocked folds the current live-job state into a fresh snapshot and
// resets the tail. Crash-safe ordering: the new snapshot is complete and
// durably renamed before the tail is reset, and replay is idempotent, so a
// crash anywhere in between at worst replays the old tail on top of the
// new snapshot.
func (j *Journal) compactLocked() error {
	err := segment.Rewrite(filepath.Join(j.cfg.Dir, journalSnapshotName), func(w io.Writer) error {
		for _, job := range j.liveJobsLocked() {
			records := []journalRecord{job.submit}
			starts := make([]uint64, 0, len(job.chunks))
			for s := range job.chunks {
				starts = append(starts, s)
			}
			sort.Slice(starts, func(a, b int) bool { return starts[a] < starts[b] })
			for _, s := range starts {
				records = append(records, journalRecord{Type: recChunk, Job: job.id, State: job.chunks[s]})
			}
			if job.finished {
				records = append(records, journalRecord{Type: recFinish, Job: job.id, Error: job.finishErr})
			}
			for _, rec := range records {
				payload, err := encodeRecord(rec)
				if err != nil {
					return err
				}
				frame, err := segment.Encode(payload)
				if err != nil {
					return err
				}
				if _, err := w.Write(frame); err != nil {
					return err
				}
			}
		}
		return nil
	}, nil)
	if err != nil {
		return err
	}
	// segment.Rewrite fsyncs the new snapshot and its directory.
	j.metrics.fsynced(2)

	// Reset the tail: everything it held is now in the snapshot.
	if err := j.tail.Reset(); err != nil {
		return fmt.Errorf("cluster: reset journal tail: %w", err)
	}
	j.appends = 0
	j.compactions++
	j.lastCompact = time.Now()
	j.lastCompactErr = ""
	j.metrics.compacted()
	return nil
}

// liveJobsLocked returns the journal's jobs in id order.
func (j *Journal) liveJobsLocked() []*journalJob {
	jobs := make([]*journalJob, 0, len(j.jobs))
	for _, job := range j.jobs {
		jobs = append(jobs, job)
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].id < jobs[b].id })
	return jobs
}

// recoveredJobs returns the folded per-job state for coordinator restore.
// The returned jobs are snapshots: callers may read them while the journal
// keeps appending. The *ChunkState values are shared but immutable once
// journaled.
func (j *Journal) recoveredJobs() []*journalJob {
	j.mu.Lock()
	defer j.mu.Unlock()
	live := j.liveJobsLocked()
	jobs := make([]*journalJob, len(live))
	for i, job := range live {
		cp := *job
		cp.chunks = make(map[uint64]*mc.ChunkState, len(job.chunks))
		for start, st := range job.chunks {
			cp.chunks[start] = st
		}
		jobs[i] = &cp
	}
	return jobs
}

// maxJobID returns the highest job id the journal knows, so a restored
// coordinator continues the id sequence instead of reusing ids.
func (j *Journal) maxJobID() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	var max uint64
	for id := range j.jobs {
		if id > max {
			max = id
		}
	}
	return max
}

// Sync flushes the tail to stable storage. Appends already sync
// individually; Sync exists for drain paths that want an explicit barrier
// before exiting.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	if err := j.tail.Sync(); err != nil {
		return err
	}
	j.metrics.fsynced(1)
	return nil
}

// Close syncs and closes the journal. The coordinator must be closed (or
// draining) first; appends after Close fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	defer segment.ReleaseLock(j.lock)
	if err := j.tail.Sync(); err != nil {
		j.tail.Close()
		return err
	}
	return j.tail.Close()
}

// journalMetrics holds the ahs_journal_* families; nil (no registry)
// disables recording.
type journalMetrics struct {
	appendSecs  *telemetry.Histogram
	records     *telemetry.Counter
	bytes       *telemetry.Counter
	fsyncs      *telemetry.Counter
	compactions *telemetry.Counter
	replayedRec *telemetry.Counter
	droppedRec  *telemetry.Counter
}

func newJournalMetrics(reg *telemetry.Registry, j *Journal) *journalMetrics {
	if reg == nil {
		return nil
	}
	m := &journalMetrics{
		appendSecs: reg.Histogram(telemetry.Opts{
			Name:    "ahs_journal_append_seconds",
			Help:    "Time spent appending one record to the job journal, fsync and any compaction included.",
			Buckets: telemetry.ExponentialBuckets(0.0001, 4, 8),
		}),
		records: reg.Counter(telemetry.Opts{
			Name: "ahs_journal_records_total",
			Help: "Records appended to the job journal.",
		}),
		bytes: reg.Counter(telemetry.Opts{
			Name: "ahs_journal_bytes_total",
			Help: "Framed bytes appended to the job journal.",
		}),
		fsyncs: reg.Counter(telemetry.Opts{
			Name: "ahs_journal_fsyncs_total",
			Help: "fsync calls issued by the job journal.",
		}),
		compactions: reg.Counter(telemetry.Opts{
			Name: "ahs_journal_compactions_total",
			Help: "Snapshot compactions of the job journal.",
		}),
		replayedRec: reg.Counter(telemetry.Opts{
			Name: "ahs_journal_replayed_records_total",
			Help: "Records recovered by journal replay at startup.",
		}),
		droppedRec: reg.Counter(telemetry.Opts{
			Name: "ahs_journal_dropped_records_total",
			Help: "CRC-valid journal frames that failed to decode, skipped by replay.",
		}),
	}
	reg.GaugeFunc(telemetry.Opts{
		Name: "ahs_journal_live_jobs",
		Help: "Jobs currently tracked by the journal (not yet dropped).",
	}, func() float64 {
		j.mu.Lock()
		defer j.mu.Unlock()
		return float64(len(j.jobs))
	})
	return m
}

func (m *journalMetrics) timeAppend(start time.Time) {
	if m != nil {
		m.appendSecs.Observe(time.Since(start).Seconds())
	}
}

func (m *journalMetrics) appended(frameBytes int) {
	if m != nil {
		m.records.Inc()
		m.bytes.Add(uint64(frameBytes))
	}
}

func (m *journalMetrics) fsynced(n uint64) {
	if m != nil {
		m.fsyncs.Add(n)
	}
}

func (m *journalMetrics) compacted() {
	if m != nil {
		m.compactions.Inc()
	}
}

func (m *journalMetrics) replay(records, dropped int) {
	if m != nil {
		m.replayedRec.Add(uint64(records))
		m.droppedRec.Add(uint64(dropped))
	}
}
