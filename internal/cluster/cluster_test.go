package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ahs/internal/config"
	"ahs/internal/core"
	"ahs/internal/mc"
	"ahs/internal/segment"
	"ahs/internal/telemetry"
)

// testScenario is a tiny but real evaluation over a 2-vehicle platoon;
// batches is split into chunks by the per-test coordinator config.
func testScenario(batches uint64) *config.Scenario {
	return &config.Scenario{
		Name:          "e2e",
		N:             2,
		LambdaPerHour: 0.01,
		TripHours:     []float64{0.5, 1},
		Batches:       batches,
		Seed:          42,
	}
}

// singleProcessCurve evaluates the scenario exactly like core would in one
// process, the reference every cluster result must match bit for bit.
// checkEvery must equal the coordinator's CheckEvery — the accumulation
// round size is part of the reproducibility contract.
func singleProcessCurve(t *testing.T, sc *config.Scenario, checkEvery uint64) *mc.Curve {
	t.Helper()
	sc = sc.Canonical()
	p, err := sc.Params()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	opts := sc.EvalOptions(sys)
	opts.CheckEvery = checkEvery
	job, err := sys.UnsafetyJob(opts)
	if err != nil {
		t.Fatal(err)
	}
	curve, err := mc.EstimateCurve(job)
	if err != nil {
		t.Fatal(err)
	}
	return curve
}

func assertBitIdentical(t *testing.T, got, want *mc.Curve) {
	t.Helper()
	if got.Batches != want.Batches {
		t.Fatalf("Batches = %d, want %d", got.Batches, want.Batches)
	}
	if got.Converged != want.Converged {
		t.Fatalf("Converged = %v, want %v", got.Converged, want.Converged)
	}
	for i := range want.Times {
		if got.Mean[i] != want.Mean[i] {
			t.Fatalf("Mean[%d] = %b, want %b (not bit-identical)", i, got.Mean[i], want.Mean[i])
		}
		if got.Intervals[i] != want.Intervals[i] {
			t.Fatalf("Intervals[%d] = %+v, want %+v", i, got.Intervals[i], want.Intervals[i])
		}
	}
}

// testCluster wires a coordinator behind an httptest server.
func testCluster(t *testing.T, cfg Config) (*Coordinator, *httptest.Server) {
	t.Helper()
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = 5 * time.Second
	}
	if cfg.PollInterval == 0 {
		cfg.PollInterval = 10 * time.Millisecond
	}
	if cfg.HeartbeatTimeout == 0 {
		cfg.HeartbeatTimeout = 5 * time.Second
	}
	if cfg.SweepInterval == 0 {
		cfg.SweepInterval = 25 * time.Millisecond
	}
	if cfg.ChunkBatches == 0 {
		cfg.ChunkBatches = 2000
	}
	cfg.Logf = t.Logf
	coord := New(cfg)
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		srv.Close()
		coord.Close()
	})
	return coord, srv
}

// startWorkers launches n in-process workers against the server and returns
// a stop function that waits for them to exit.
func startWorkers(t *testing.T, url string, n int) context.CancelFunc {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := &Worker{
			Coordinator: url,
			ID:          fmt.Sprintf("w%d", i),
			SimWorkers:  1,
			Logf:        t.Logf,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				t.Errorf("worker %s: %v", w.ID, err)
			}
		}()
	}
	t.Cleanup(func() { cancel(); wg.Wait() })
	return func() {
		cancel()
		wg.Wait()
	}
}

func TestClusterCurveBitIdenticalAcrossWorkerCounts(t *testing.T) {
	sc := testScenario(8000)
	want := singleProcessCurve(t, sc, 0)
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			coord, srv := testCluster(t, Config{})
			startWorkers(t, srv.URL, workers)

			var mu sync.Mutex
			var lastDone, lastMax uint64
			got, bias, err := coord.UnsafetyCurve(context.Background(), sc, 1, func(done, max uint64) {
				mu.Lock()
				lastDone, lastMax = done, max
				mu.Unlock()
			})
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, got, want)
			if bias < 1 {
				t.Fatalf("reported bias %v", bias)
			}
			mu.Lock()
			defer mu.Unlock()
			if lastDone != 8000 || lastMax != 8000 {
				t.Fatalf("final progress %d/%d, want 8000/8000", lastDone, lastMax)
			}
		})
	}
}

// rawClient speaks the wire protocol directly, playing misbehaving workers.
type rawClient struct {
	t   *testing.T
	url string
	id  string
}

func (rc *rawClient) post(path string, in, out any) int {
	rc.t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		rc.t.Fatal(err)
	}
	resp, err := http.Post(rc.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		rc.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			rc.t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func (rc *rawClient) register() int {
	return rc.post(PathRegister, registerRequest{WorkerID: rc.id}, &registerResponse{})
}

func (rc *rawClient) lease() (*Lease, int) {
	var resp leaseResponse
	code := rc.post(PathLease, leaseRequest{WorkerID: rc.id}, &resp)
	return resp.Lease, code
}

// TestClusterSurvivesWorkerDeathMidLease is the tentpole e2e: a worker
// takes a lease and dies without completing it; the chunk must requeue to a
// surviving worker and the merged curve must stay bit-identical with no
// lost or double-counted batches.
func TestClusterSurvivesWorkerDeathMidLease(t *testing.T) {
	sc := testScenario(2000)
	want := singleProcessCurve(t, sc, 500)
	coord, srv := testCluster(t, Config{
		LeaseTTL:         time.Second,
		HeartbeatTimeout: time.Minute, // the lease TTL, not liveness, must recover the chunk
		CheckEvery:       500,
		ChunkBatches:     500,
	})

	// The doomed worker registers and grabs the first lease, then is
	// never heard from again.
	doomed := &rawClient{t: t, url: srv.URL, id: "doomed"}
	if code := doomed.register(); code != http.StatusOK {
		t.Fatalf("register: HTTP %d", code)
	}

	type run struct {
		curve *mc.Curve
		err   error
	}
	resCh := make(chan run, 1)
	go func() {
		curve, _, err := coord.UnsafetyCurve(context.Background(), sc, 1, nil)
		resCh <- run{curve, err}
	}()

	// Steal the first chunk before any healthy worker exists.
	var stolen *Lease
	deadline := time.Now().Add(5 * time.Second)
	for stolen == nil {
		if time.Now().After(deadline) {
			t.Fatal("doomed worker never got a lease")
		}
		l, code := doomed.lease()
		if code != http.StatusOK {
			t.Fatalf("lease: HTTP %d", code)
		}
		if l != nil {
			stolen = l
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	t.Logf("doomed worker holds lease %s for chunk %s; dying", stolen.ID, stolen.Spec)

	// Healthy workers arrive and must finish everything, including the
	// stolen chunk once its lease expires.
	startWorkers(t, srv.URL, 2)

	res := <-resCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	assertBitIdentical(t, res.curve, want)
	if res.curve.Batches != 2000 {
		t.Fatalf("lost or double-counted batches: %d, want exactly 2000", res.curve.Batches)
	}
}

func TestClusterFallsBackToLocalWithoutWorkers(t *testing.T) {
	sc := testScenario(8000)
	want := singleProcessCurve(t, sc, 0)
	reg := telemetry.NewRegistry()
	coord, _ := testCluster(t, Config{Telemetry: reg})

	got, _, err := coord.UnsafetyCurve(context.Background(), sc, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, got, want)
	if v := coord.metrics.fallback.Value(); v != 1 {
		t.Fatalf("fallback counter = %d, want 1", v)
	}
}

// TestClusterLocalPathStartsWithoutTickWait: with no workers, local simulation
// starts at submit and moves from chunk to chunk without waiting for the
// poll ticker, journaled or not. An hour-long PollInterval would stall any
// path that waits for a tick.
func TestClusterLocalPathStartsWithoutTickWait(t *testing.T) {
	sc := testScenario(2000)
	want := singleProcessCurve(t, sc, 0)
	j, err := OpenJournal(JournalConfig{Dir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	coord, _ := testCluster(t, Config{PollInterval: time.Hour, Journal: j})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, _, err := coord.UnsafetyCurve(ctx, sc, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, got, want)
}

// TestClusterLocalPathHandsOffToLateWorker: a job that starts with no workers is
// simulated locally until a worker registers; the coordinator then stops
// claiming chunks, the worker leases the rest, and the curve is unchanged.
func TestClusterLocalPathHandsOffToLateWorker(t *testing.T) {
	sc := testScenario(20000)
	want := singleProcessCurve(t, sc, 500)
	reg := telemetry.NewRegistry()
	coord, srv := testCluster(t, Config{CheckEvery: 500, ChunkBatches: 500, Telemetry: reg})

	firstFold := make(chan struct{})
	var once sync.Once
	resCh := make(chan error, 1)
	var got *mc.Curve
	go func() {
		curve, _, err := coord.UnsafetyCurve(context.Background(), sc, 1, func(done, max uint64) {
			once.Do(func() { close(firstFold) })
		})
		got = curve
		resCh <- err
	}()
	<-firstFold
	if v := coord.metrics.fallback.Value(); v != 1 {
		t.Fatalf("fallback counter = %d, want 1: the job did not start locally", v)
	}
	startWorkers(t, srv.URL, 1)

	if err := <-resCh; err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, got, want)
	if v := coord.metrics.leased.Value(); v == 0 {
		t.Fatal("no chunk was leased: the registered worker never took over")
	}
	t.Logf("chunks leased to the late worker: %d of 40", coord.metrics.leased.Value())
}

// TestClusterRescuesJobWhenWorkersDie covers the harsher failure: the only
// worker dies mid-job and nobody replaces it. The coordinator must finish
// the remaining chunks itself.
func TestClusterRescuesJobWhenWorkersDie(t *testing.T) {
	sc := testScenario(2000)
	want := singleProcessCurve(t, sc, 500)
	coord, srv := testCluster(t, Config{
		LeaseTTL:         400 * time.Millisecond,
		HeartbeatTimeout: 400 * time.Millisecond,
		CheckEvery:       500,
		ChunkBatches:     500,
	})

	doomed := &rawClient{t: t, url: srv.URL, id: "doomed"}
	if code := doomed.register(); code != http.StatusOK {
		t.Fatalf("register: HTTP %d", code)
	}

	resCh := make(chan error, 1)
	var got *mc.Curve
	go func() {
		curve, _, err := coord.UnsafetyCurve(context.Background(), sc, 1, nil)
		got = curve
		resCh <- err
	}()

	// Take one lease and die. After HeartbeatTimeout the worker is
	// dropped, liveWorkers hits zero, and the rescue path must take over.
	for {
		l, code := doomed.lease()
		if code != http.StatusOK {
			t.Fatalf("lease: HTTP %d", code)
		}
		if l != nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	select {
	case err := <-resCh:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("rescue never finished the job")
	}
	assertBitIdentical(t, got, want)
}

// TestClusterExcludesRepeatedlyFailingWorker drives a worker that keeps
// reporting errors until the coordinator bans it, then lets a healthy
// worker finish.
func TestClusterExcludesRepeatedlyFailingWorker(t *testing.T) {
	sc := testScenario(8000)
	want := singleProcessCurve(t, sc, 0)
	coord, srv := testCluster(t, Config{
		MaxWorkerFailures: 2,
		MaxChunkAttempts:  10,
	})

	bad := &rawClient{t: t, url: srv.URL, id: "bad"}
	if code := bad.register(); code != http.StatusOK {
		t.Fatalf("register: HTTP %d", code)
	}

	resCh := make(chan error, 1)
	var got *mc.Curve
	go func() {
		curve, _, err := coord.UnsafetyCurve(context.Background(), sc, 1, nil)
		got = curve
		resCh <- err
	}()

	// Fail leases until excluded.
	fails := 0
	for fails < 2 {
		l, code := bad.lease()
		if code == http.StatusForbidden {
			break
		}
		if code != http.StatusOK {
			t.Fatalf("lease: HTTP %d", code)
		}
		if l == nil {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		var resp completeResponse
		bad.post(PathComplete, completeRequest{WorkerID: bad.id, LeaseID: l.ID, Error: "synthetic failure"}, &resp)
		fails++
	}
	// The ban must now be visible on both lease and register.
	if _, code := bad.lease(); code != http.StatusForbidden {
		t.Fatalf("excluded worker lease: HTTP %d, want 403", code)
	}
	if code := bad.register(); code != http.StatusForbidden {
		t.Fatalf("excluded worker re-register: HTTP %d, want 403", code)
	}
	st := coord.Status()
	if st.WorkersExcluded != 1 {
		t.Fatalf("WorkersExcluded = %d, want 1", st.WorkersExcluded)
	}

	startWorkers(t, srv.URL, 1)
	if err := <-resCh; err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, got, want)
}

// TestClusterRejectsStaleCompletion pins the exactly-once guarantee at the
// wire level: a completion for an expired lease is answered with
// stale=true and folds nothing.
func TestClusterRejectsStaleCompletion(t *testing.T) {
	sc := testScenario(2000)
	want := singleProcessCurve(t, sc, 500)
	coord, srv := testCluster(t, Config{
		LeaseTTL:         time.Second,
		HeartbeatTimeout: time.Minute,
		CheckEvery:       500,
		ChunkBatches:     500,
	})

	slow := &rawClient{t: t, url: srv.URL, id: "slow"}
	if code := slow.register(); code != http.StatusOK {
		t.Fatalf("register: HTTP %d", code)
	}

	resCh := make(chan error, 1)
	var got *mc.Curve
	go func() {
		curve, _, err := coord.UnsafetyCurve(context.Background(), sc, 1, nil)
		got = curve
		resCh <- err
	}()

	var l *Lease
	for l == nil {
		var code int
		l, code = slow.lease()
		if code != http.StatusOK {
			t.Fatalf("lease: HTTP %d", code)
		}
		if l == nil {
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Actually simulate the chunk, but report it only after the lease
	// expired and the chunk was requeued.
	w := &Worker{Coordinator: srv.URL, ID: "slow", SimWorkers: 1}
	state, err := w.runChunk(context.Background(), l)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(1500 * time.Millisecond) // several sweeps past the TTL

	var resp completeResponse
	if code := slow.post(PathComplete, completeRequest{WorkerID: "slow", LeaseID: l.ID, State: state}, &resp); code != http.StatusOK {
		t.Fatalf("complete: HTTP %d", code)
	}
	if resp.OK || !resp.Stale {
		t.Fatalf("stale completion answered %+v, want ok=false stale=true", resp)
	}

	startWorkers(t, srv.URL, 2)
	if err := <-resCh; err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, got, want)
	if got.Batches != 2000 {
		t.Fatalf("lost or double-counted batches: %d", got.Batches)
	}
}

// spaces reads as an endless run of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestClusterRejectsOversizedCompletion streams a valid completion padded
// with whitespace to one byte over segment.MaxPayload: it answers 400 and
// folds nothing, so the lease stays outstanding and the same completion
// within the cap then folds it exactly once.
func TestClusterRejectsOversizedCompletion(t *testing.T) {
	if testing.Short() {
		t.Skip("the coordinator buffers a 64 MiB body")
	}
	sc := testScenario(500)
	want := singleProcessCurve(t, sc, 500)
	coord, srv := testCluster(t, Config{
		LeaseTTL:         time.Minute,
		HeartbeatTimeout: time.Minute,
		CheckEvery:       500,
		ChunkBatches:     500,
	})

	rc := &rawClient{t: t, url: srv.URL, id: "w0"}
	if code := rc.register(); code != http.StatusOK {
		t.Fatalf("register: HTTP %d", code)
	}
	resCh := make(chan error, 1)
	var got *mc.Curve
	go func() {
		curve, _, err := coord.UnsafetyCurve(context.Background(), sc, 1, nil)
		got = curve
		resCh <- err
	}()
	var l *Lease
	for l == nil {
		var code int
		l, code = rc.lease()
		if code != http.StatusOK {
			t.Fatalf("lease: HTTP %d", code)
		}
		if l == nil {
			time.Sleep(5 * time.Millisecond)
		}
	}
	w := &Worker{Coordinator: srv.URL, ID: "w0", SimWorkers: 1}
	state, err := w.runChunk(context.Background(), l)
	if err != nil {
		t.Fatal(err)
	}
	done := completeRequest{WorkerID: "w0", LeaseID: l.ID, State: state}
	valid, err := json.Marshal(done)
	if err != nil {
		t.Fatal(err)
	}

	body := io.MultiReader(
		bytes.NewReader(valid[:len(valid)-1]),
		io.LimitReader(spaces{}, int64(segment.MaxPayload+1-len(valid))),
		strings.NewReader("}"),
	)
	rec := httptest.NewRecorder()
	coord.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathComplete, body))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("over-cap completion answered %d, want 400", rec.Code)
	}
	if st := coord.Status(); st.LeasedChunks != 1 {
		t.Fatalf("over-cap completion changed the leases: %+v", st)
	}

	var resp completeResponse
	if code := rc.post(PathComplete, done, &resp); code != http.StatusOK || !resp.OK {
		t.Fatalf("completion within the cap: HTTP %d, %+v", code, resp)
	}
	if err := <-resCh; err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, got, want)
	if got.Batches != 500 {
		t.Fatalf("lost or double-counted batches: %d", got.Batches)
	}
}

func TestClusterStatusEndpoint(t *testing.T) {
	coord, srv := testCluster(t, Config{})
	w := &rawClient{t: t, url: srv.URL, id: "w0"}
	if code := w.register(); code != http.StatusOK {
		t.Fatalf("register: HTTP %d", code)
	}
	resp, err := http.Get(srv.URL + PathStatus)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.WorkersRegistered != 1 || st.WorkersLive != 1 {
		t.Fatalf("status %+v, want one live worker", st)
	}
	_ = coord
}

func TestDurationJSONRoundTrip(t *testing.T) {
	for _, d := range []duration{0, duration(250 * time.Millisecond), duration(2 * time.Minute)} {
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		var got duration
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if got != d {
			t.Fatalf("round trip %s: got %v", b, time.Duration(got))
		}
	}
	var got duration
	if err := json.Unmarshal([]byte("1500000000"), &got); err != nil {
		t.Fatal(err)
	}
	if time.Duration(got) != 1500*time.Millisecond {
		t.Fatalf("bare nanoseconds: %v", time.Duration(got))
	}
}
