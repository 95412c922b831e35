package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ahs/internal/config"
	"ahs/internal/faultinject"
	"ahs/internal/fleet"
	"ahs/internal/resultstore"
	"ahs/internal/rng"
)

// The FleetCoordinator seam exists so this package never imports
// internal/fleet in production code; this is the one place the contract
// is checked against the real implementation.
var _ FleetCoordinator = (*fleet.Node)(nil)

// fakeFleet scripts the coordinator for manager-level tests: one
// configured TryClaim outcome, full recording of claims, releases and
// puts.
type fakeFleet struct {
	mu       sync.Mutex
	deny     bool   // TryClaim answers not-acquired
	holder   string // ... naming this peer
	claimErr error
	putErr   error
	claims   map[string][]byte // hash -> claimed scenario payload
	releases []string
	puts     map[string][]byte // hash -> persisted result payload
}

func newFakeFleet() *fakeFleet {
	return &fakeFleet{claims: make(map[string][]byte), puts: make(map[string][]byte)}
}

func (f *fakeFleet) TryClaim(hash string, scenario []byte) (bool, string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.claimErr != nil {
		return false, "", f.claimErr
	}
	if f.deny {
		return false, f.holder, nil
	}
	f.claims[hash] = append([]byte(nil), scenario...)
	return true, "", nil
}

func (f *fakeFleet) Release(hash string) {
	f.mu.Lock()
	f.releases = append(f.releases, hash)
	f.mu.Unlock()
}

func (f *fakeFleet) PutResult(hash string, value []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.putErr != nil {
		return f.putErr
	}
	f.puts[hash] = append([]byte(nil), value...)
	return nil
}

func (f *fakeFleet) released(hash string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, h := range f.releases {
		if h == hash {
			return true
		}
	}
	return false
}

// TestFleetClaimBeforeEvaluate: a submission that misses every tier
// claims the scenario (with its canonical JSON) before evaluating, and
// the success path persists through the coordinator — not the plain
// store — so the claim can be released only after durability.
func TestFleetClaimBeforeEvaluate(t *testing.T) {
	ff := newFakeFleet()
	eval := newScriptedEval()
	close(eval.release)
	m := NewManager(Config{Workers: 1, Eval: eval.fn, Fleet: ff, Logf: t.Logf})
	defer m.Shutdown(waitCtx(t))

	sc := testScenario(1)
	hash, _ := sc.Hash()
	view, err := m.Submit(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(waitCtx(t), view.ID); err != nil {
		t.Fatal(err)
	}

	ff.mu.Lock()
	payload, claimed := ff.claims[hash]
	put, persisted := ff.puts[hash]
	ff.mu.Unlock()
	if !claimed {
		t.Fatalf("scenario %s never claimed", hash)
	}
	// The claim carries the canonical scenario so a promoted writer can
	// adopt and re-run it; it must hash back to the same identity.
	var claimedSc struct {
		Batches uint64 `json:"batches"`
		Seed    uint64 `json:"seed"`
	}
	if err := json.Unmarshal(payload, &claimedSc); err != nil {
		t.Fatalf("claim payload not JSON: %v", err)
	}
	if claimedSc.Batches != sc.Batches || claimedSc.Seed != sc.Seed {
		t.Fatalf("claim payload %s does not match the scenario", payload)
	}
	if !persisted {
		t.Fatalf("result for %s never put through the coordinator", hash)
	}
	var res Result
	if err := json.Unmarshal(put, &res); err != nil {
		t.Fatalf("persisted payload not a Result: %v", err)
	}
	if res.ScenarioHash != hash {
		t.Fatalf("persisted result hash %s, want %s", res.ScenarioHash, hash)
	}
	// Success releases through PutResult, never through Release — a
	// Release here would free the claim before the result was durable.
	if ff.released(hash) {
		t.Fatal("successful job called Release instead of letting PutResult settle the claim")
	}
}

// TestFleetClaimReleasedOnFailure: jobs that end without a result —
// evaluation failure, cancellation while queued, queue rejection — free
// their claim immediately so peers need not wait out the TTL.
func TestFleetClaimReleasedOnFailure(t *testing.T) {
	t.Run("eval-failure", func(t *testing.T) {
		ff := newFakeFleet()
		eval := newScriptedEval()
		eval.failWith = errors.New("boom")
		close(eval.release)
		m := NewManager(Config{Workers: 1, Eval: eval.fn, Fleet: ff, Logf: t.Logf})
		defer m.Shutdown(waitCtx(t))

		sc := testScenario(2)
		hash, _ := sc.Hash()
		view, err := m.Submit(sc)
		if err != nil {
			t.Fatal(err)
		}
		final, err := m.Wait(waitCtx(t), view.ID)
		if err != nil || final.Status != StatusFailed {
			t.Fatalf("job ended %v/%v, want failed", final.Status, err)
		}
		if !ff.released(hash) {
			t.Fatalf("failed job kept its claim on %s", hash)
		}
	})
	t.Run("cancelled-while-queued", func(t *testing.T) {
		ff := newFakeFleet()
		eval := newScriptedEval()
		m := NewManager(Config{Workers: 1, Eval: eval.fn, Fleet: ff, Logf: t.Logf})
		defer m.Shutdown(waitCtx(t))
		defer close(eval.release) // before Shutdown, so the worker drains

		// Occupy the single worker so the next submission stays queued.
		if _, err := m.Submit(testScenario(3)); err != nil {
			t.Fatal(err)
		}
		eval.waitStarted(t)
		sc := testScenario(4)
		hash, _ := sc.Hash()
		view, err := m.Submit(sc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Cancel(view.ID); err != nil {
			t.Fatal(err)
		}
		if !ff.released(hash) {
			t.Fatalf("cancelled queued job kept its claim on %s", hash)
		}
	})
	t.Run("queue-reject", func(t *testing.T) {
		ff := newFakeFleet()
		eval := newScriptedEval()
		m := NewManager(Config{Workers: 1, QueueSize: 1, Eval: eval.fn, Fleet: ff, Logf: t.Logf})
		defer m.Shutdown(waitCtx(t))
		defer close(eval.release) // before Shutdown, so the worker drains

		if _, err := m.Submit(testScenario(5)); err != nil {
			t.Fatal(err)
		}
		eval.waitStarted(t) // running; next occupies the whole queue
		if _, err := m.Submit(testScenario(6)); err != nil {
			t.Fatal(err)
		}
		sc := testScenario(7)
		hash, _ := sc.Hash()
		if _, err := m.Submit(sc); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("over-full submit error %v, want ErrQueueFull", err)
		}
		if !ff.released(hash) {
			t.Fatalf("queue-rejected submission kept its claim on %s", hash)
		}
	})
}

// TestFleetClaimErrorFailsOpen: a broken claim layer must not take
// submissions down with it — the scenario evaluates locally.
func TestFleetClaimErrorFailsOpen(t *testing.T) {
	ff := newFakeFleet()
	ff.claimErr = errors.New("claims segment unreachable")
	eval := newScriptedEval()
	close(eval.release)
	m := NewManager(Config{Workers: 1, Eval: eval.fn, Fleet: ff, Logf: t.Logf})
	defer m.Shutdown(waitCtx(t))

	view, err := m.Submit(testScenario(8))
	if err != nil {
		t.Fatalf("claim-layer failure surfaced to the submitter: %v", err)
	}
	final, err := m.Wait(waitCtx(t), view.ID)
	if err != nil || final.Status != StatusDone {
		t.Fatalf("job ended %v/%v, want done", final.Status, err)
	}
}

// racedFleet grants each claim just after a peer persisted the scenario's
// result to the shared store and released its own claim — the window
// between the submit path's store miss and its claim.
type racedFleet struct {
	*fakeFleet
	store *resultstore.Store
	res   *Result
}

func (f *racedFleet) TryClaim(hash string, scenario []byte) (bool, string, error) {
	if err := f.store.Put(hash, f.res); err != nil {
		return false, "", err
	}
	return f.fakeFleet.TryClaim(hash, scenario)
}

// TestFleetStoreRecheckedUnderClaim: a result that lands between the
// store miss and the claim is served from the store, not evaluated again,
// and the claim taken for it is released.
func TestFleetStoreRecheckedUnderClaim(t *testing.T) {
	store, err := resultstore.Open(resultstore.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	sc := testScenario(9)
	hash, _ := sc.Hash()
	rf := &racedFleet{
		fakeFleet: newFakeFleet(),
		store:     store,
		res:       &Result{ScenarioHash: hash, Times: sc.TripHours, Batches: sc.Batches},
	}
	eval := newScriptedEval()
	close(eval.release)
	m := NewManager(Config{Workers: 1, Eval: eval.fn, Fleet: rf, Store: store, Logf: t.Logf})
	defer m.Shutdown(waitCtx(t))

	view, err := m.Submit(sc)
	if err != nil {
		t.Fatal(err)
	}
	if view.Status != StatusDone || view.CacheTier != "store" {
		t.Fatalf("submit = %v from tier %q, want done from the store", view.Status, view.CacheTier)
	}
	if n := eval.invoked.Load(); n != 0 {
		t.Fatalf("evaluated %d times; the peer's stored result should have been served", n)
	}
	if !rf.released(hash) {
		t.Fatal("claim taken after the peer's put was never released")
	}
}

// TestHTTPPeerClaimRedirect: a peer-claimed scenario answers 307 with
// the holder's /v1/evaluate as Location; a holder without a URL answers
// a retryable 409 with jittered Retry-After.
func TestHTTPPeerClaimRedirect(t *testing.T) {
	ff := newFakeFleet()
	ff.deny = true
	ff.holder = "http://peer.example:8080"
	srv, _ := newTestServer(t, Config{Workers: 1, Fleet: ff})

	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := noFollow.Post(srv.URL+"/v1/evaluate", "application/json", strings.NewReader(tinyScenarioJSON))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("status %d, want 307", resp.StatusCode)
	}
	if got, want := resp.Header.Get("Location"), ff.holder+"/v1/evaluate"; got != want {
		t.Fatalf("Location %q, want %q", got, want)
	}

	ff.mu.Lock()
	ff.holder = ""
	ff.mu.Unlock()
	resp2, err := noFollow.Post(srv.URL+"/v1/evaluate", "application/json", strings.NewReader(tinyScenarioJSON))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("URL-less holder status %d, want 409", resp2.StatusCode)
	}
	ra, err := strconv.Atoi(resp2.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > maxRetryAfterSeconds {
		t.Fatalf("Retry-After %q outside [1,%d]", resp2.Header.Get("Retry-After"), maxRetryAfterSeconds)
	}
}

// TestRetryAfterJitterBounds pins the full-jitter Retry-After mapping:
// every u ∈ [0,1) lands in [1,max], the mapping is monotone, the edges
// hit the bounds, and every whole second in the range is reachable —
// the anti-thundering-herd property is that the herd spreads over all
// of them instead of agreeing on one.
func TestRetryAfterJitterBounds(t *testing.T) {
	if got := retryAfterSeconds(0); got != 1 {
		t.Fatalf("retryAfterSeconds(0) = %d, want 1", got)
	}
	if got := retryAfterSeconds(math.Nextafter(1, 0)); got != maxRetryAfterSeconds {
		t.Fatalf("retryAfterSeconds(1-ulp) = %d, want %d", got, maxRetryAfterSeconds)
	}
	seen := make(map[int]bool)
	prev := 0
	for i := 0; i < 1<<12; i++ {
		u := float64(i) / (1 << 12)
		s := retryAfterSeconds(u)
		if s < 1 || s > maxRetryAfterSeconds {
			t.Fatalf("retryAfterSeconds(%v) = %d outside [1,%d]", u, s, maxRetryAfterSeconds)
		}
		if s < prev {
			t.Fatalf("retryAfterSeconds not monotone at u=%v: %d after %d", u, s, prev)
		}
		prev = s
		seen[s] = true
	}
	stream := rng.NewStream(0xA77E12)
	for i := 0; i < 1<<12; i++ {
		u := stream.Float64()
		if s := retryAfterSeconds(u); s < 1 || s > maxRetryAfterSeconds {
			t.Fatalf("retryAfterSeconds(%v) = %d outside [1,%d]", u, s, maxRetryAfterSeconds)
		}
	}
	for s := 1; s <= maxRetryAfterSeconds; s++ {
		if !seen[s] {
			t.Fatalf("Retry-After value %d never produced — jitter not spreading the range", s)
		}
	}
}

// TestHTTPScenarioByHash: the canonical-hash views. While the job runs,
// GET /v1/scenarios/{hash} reports it; once done, the stored result
// answers; unknown hashes 404. The stream variant serves a finished
// scenario as a single terminal result event.
func TestHTTPScenarioByHash(t *testing.T) {
	eval := newScriptedEval()
	srv, m := newTestServer(t, Config{Workers: 1, Eval: eval.fn})

	_, ack := postScenario(t, srv, tinyScenarioJSON)
	hash := eval.waitStarted(t)

	var live scenarioResponse
	if resp := getJSON(t, srv.URL+"/v1/scenarios/"+hash, &live); resp.StatusCode != http.StatusOK {
		t.Fatalf("live lookup status %d", resp.StatusCode)
	}
	if live.Status != StatusRunning || live.Job == nil || live.Job.ID != ack.ID {
		t.Fatalf("live lookup %+v, want running job %s", live, ack.ID)
	}

	close(eval.release)
	if _, err := m.Wait(waitCtx(t), ack.ID); err != nil {
		t.Fatal(err)
	}
	var done scenarioResponse
	if resp := getJSON(t, srv.URL+"/v1/scenarios/"+hash, &done); resp.StatusCode != http.StatusOK {
		t.Fatalf("done lookup status %d", resp.StatusCode)
	}
	if done.Status != StatusDone || done.Result == nil || done.Result.ScenarioHash != hash {
		t.Fatalf("done lookup %+v, want stored result for %s", done, hash)
	}

	if resp := getJSON(t, srv.URL+"/v1/scenarios/no-such-hash", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown hash status %d, want 404", resp.StatusCode)
	}

	stream := openStream(t, srv.URL+"/v1/scenarios/"+hash+"/stream")
	events := readAllSSE(t, stream.Body)
	if len(events) != 1 || events[0].name != "result" {
		t.Fatalf("finished-scenario stream events %+v, want one result", events)
	}
}

// TestHTTPStreamResumeAfterDrop is the dropped-connection fault
// schedule for SSE resume: the evaluation publishes a run of numbered
// snapshots, the connection is dropped after a seeded number of them,
// and the reconnect presents Last-Event-ID. The resumed stream must
// deliver exactly the missed snapshots — no replay of what the client
// saw, no gaps — and then the terminal result.
func TestHTTPStreamResumeAfterDrop(t *testing.T) {
	const totalSnaps = 5
	const seed = 0x5EED5

	// The drop point is drawn from the seed, replayable on failure.
	dropAfter := uint64(faultinject.PickHit(seed, "sse-drop", totalSnaps-1))
	t.Logf("sse-resume: seed %#x drops the connection after snapshot %d", seed, dropAfter)

	published := make(chan struct{})
	release := make(chan struct{})
	eval := func(ctx context.Context, sc *config.Scenario, workers int, progress func(done, max uint64)) (*Result, error) {
		hash, _ := sc.Hash()
		snap := snapshotSinkFrom(ctx)
		for i := 1; i <= totalSnaps; i++ {
			snap(&Result{ScenarioHash: hash, Batches: uint64(i * 100)})
		}
		close(published)
		select {
		case <-release:
			return &Result{ScenarioHash: hash, Times: sc.TripHours, Batches: 999, Converged: true}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	srv, _ := newTestServer(t, Config{Workers: 1, Eval: eval})

	_, ack := postScenario(t, srv, tinyScenarioJSON)
	<-published

	// First connection: read snapshots up to the drop point, then sever.
	resp := openStream(t, srv.URL+"/v1/jobs/"+ack.ID+"/stream")
	r := bufio.NewReader(resp.Body)
	var lastSeen uint64
	for lastSeen < dropAfter {
		ev, err := readSSEEvent(r)
		if err != nil {
			t.Fatalf("before drop: %v", err)
		}
		if ev.name != "snapshot" {
			continue
		}
		if ev.id != lastSeen+1 {
			t.Fatalf("snapshot id %d, want %d", ev.id, lastSeen+1)
		}
		lastSeen = ev.id
	}
	resp.Body.Close() // the fault: connection drops mid-stream

	// Reconnect as an SSE client would: Last-Event-ID carries the id of
	// the last event that made it through.
	req, err := http.NewRequest("GET", srv.URL+"/v1/jobs/"+ack.ID+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", strconv.FormatUint(lastSeen, 10))
	resumed, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Body.Close()
	close(release)

	r2 := bufio.NewReader(resumed.Body)
	next := lastSeen + 1
	sawResult := false
	for {
		ev, err := readSSEEvent(r2)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("after resume: %v", err)
		}
		switch ev.name {
		case "snapshot":
			if ev.id != next {
				t.Fatalf("seed %#x: resumed snapshot id %d, want %d (duplicate or gap)", seed, ev.id, next)
			}
			var res Result
			if err := json.Unmarshal(ev.data, &res); err != nil {
				t.Fatal(err)
			}
			if res.Batches != ev.id*100 {
				t.Fatalf("snapshot %d payload batches %d, want %d", ev.id, res.Batches, ev.id*100)
			}
			next = ev.id + 1
		case "result":
			sawResult = true
		}
	}
	if next != totalSnaps+1 {
		t.Fatalf("seed %#x: resumed stream ended at snapshot %d, want all %d", seed, next-1, totalSnaps)
	}
	if !sawResult {
		t.Fatal("resumed stream closed without the terminal result")
	}
}

// TestTwoManagersSharedDirExactlyOnce runs the real stack twice over —
// two managers, two fleet nodes, one store directory — and submits the
// same scenario to both. The claims table must confine the evaluation
// to the first instance (the second gets redirected, then served from
// the shared store), and both instances must read back the identical
// result.
func TestTwoManagersSharedDirExactlyOnce(t *testing.T) {
	dir := t.TempDir()

	newInstance := func(owner string, follower bool, eval *scriptedEval) (*httptest.Server, *Manager, *fleet.Node, *resultstore.Store) {
		t.Helper()
		store, err := resultstore.Open(resultstore.Config{
			Dir: dir, Owner: owner, ReadOnly: follower, Logf: t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(nil)
		node, err := fleet.New(fleet.Config{
			Dir: dir, Owner: owner, URL: srv.URL, Store: store,
			Heartbeat: 50 * time.Millisecond, ClaimTTL: time.Minute,
			Logf:   t.Logf,
			Submit: func(json.RawMessage) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		m := NewManager(Config{Workers: 1, Eval: eval.fn, Store: store, Fleet: node, Logf: t.Logf})
		srv.Config.Handler = NewHandler(m)
		t.Cleanup(func() {
			srv.Close()
			_ = m.Shutdown(waitCtx(t))
			node.Close()
			store.Close()
		})
		return srv, m, node, store
	}

	evalA, evalB := newScriptedEval(), newScriptedEval()
	srvA, mA, _, _ := newInstance("svc-a", false, evalA)
	_, mB, _, _ := newInstance("svc-b", true, evalB)

	sc := testScenario(42)
	viewA, err := mA.Submit(sc)
	if err != nil {
		t.Fatal(err)
	}
	evalA.waitStarted(t)

	// B's submission must bounce off A's claim, naming A as the holder.
	_, err = mB.Submit(sc)
	var peer *PeerClaimedError
	if !errors.As(err, &peer) {
		t.Fatalf("second instance's submit error %v, want PeerClaimedError", err)
	}
	if peer.URL != srvA.URL {
		t.Fatalf("claim holder URL %q, want %q", peer.URL, srvA.URL)
	}

	close(evalA.release)
	if _, err := mA.Wait(waitCtx(t), viewA.ID); err != nil {
		t.Fatal(err)
	}
	resA, doneA, err := mA.Result(viewA.ID)
	if err != nil || doneA.Status != StatusDone {
		t.Fatalf("A's job ended %v/%v", doneA.Status, err)
	}

	// Now the result is durable and the claim released: B's re-submit
	// must be served from the shared store, never evaluated again.
	viewB, err := mB.Submit(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !viewB.Cached || viewB.CacheTier != "store" {
		t.Fatalf("B's re-submit cached=%v tier=%q, want store hit", viewB.Cached, viewB.CacheTier)
	}
	resB, _, err := mB.Result(viewB.ID)
	if err != nil || resB == nil {
		t.Fatalf("B's result: %v", err)
	}
	if got, want := resultBits(resB), resultBits(resA); got != want {
		t.Fatalf("instances disagree on the stored result:\n A %s\n B %s", want, got)
	}
	if evalA.invoked.Load() != 1 || evalB.invoked.Load() != 0 {
		t.Fatalf("evaluations A=%d B=%d, want exactly one on A",
			evalA.invoked.Load(), evalB.invoked.Load())
	}
}
