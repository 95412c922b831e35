package cluster

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"time"

	"ahs/internal/config"
	"ahs/internal/core"
	"ahs/internal/mc"
	"ahs/internal/obs"
)

// Worker pulls chunk leases from a coordinator, simulates them through the
// exact config → core → mc pipeline a single process would use, and reports
// the sufficient statistics back. Zero-value fields get sensible defaults;
// set Coordinator and call Run.
type Worker struct {
	// Coordinator is the base URL of the coordinator API, e.g.
	// "http://host:8080" (required).
	Coordinator string
	// ID is the worker's stable identity; empty means a random one.
	ID string
	// SimWorkers bounds the simulation parallelism per chunk
	// (0 = GOMAXPROCS).
	SimWorkers int
	// Poll overrides the coordinator-suggested idle poll interval.
	Poll time.Duration
	// HealthURL, when set, is advertised to the coordinator for active
	// liveness probes (serve 200 on it; see cmd/ahs-worker).
	HealthURL string
	// Client is the HTTP client used for all calls (default: 30s
	// timeout).
	Client *http.Client
	// RequestTimeout bounds each individual coordinator call via a
	// per-request context deadline (default 15s, negative disables).
	// Simulation time is not covered — only the HTTP exchanges are.
	RequestTimeout time.Duration
	// HardContext, when set, enables graceful draining: cancelling the
	// ctx passed to Run stops the worker from taking new leases, but the
	// chunk in flight keeps simulating — and its completion keeps
	// retrying — until HardContext is cancelled too. The worker then
	// deregisters and Run returns. When nil, cancelling Run's ctx aborts
	// everything immediately (the pre-drain behavior).
	HardContext context.Context
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// Tracer, when non-nil, records a span per chunk, parented to the
	// lease's TraceParent so the worker's work joins the coordinator's
	// distributed trace; the chunk span's context rides back on the
	// completion request's traceparent header.
	Tracer *obs.Tracer

	poll  time.Duration
	built *builtJob // last scenario compiled, cached by hash
}

// builtJob caches the compiled model for the scenario hash, so a worker
// leasing many chunks of one job builds the SAN once.
type builtJob struct {
	hash string
	sys  *core.AHS
	opts core.EvalOptions
}

// backoffSeed derives a deterministic jitter seed from the worker's
// identity, so a worker's retry schedule is replayable from its ID alone.
func (w *Worker) backoffSeed(stream uint64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(w.ID))
	return h.Sum64() ^ stream
}

// Run registers with the coordinator and processes leases until ctx is
// cancelled (returning nil after a best-effort deregister) or the
// coordinator permanently refuses the worker (returning the refusal).
// Transient transport errors retry with full-jitter capped exponential
// backoff. See HardContext for drain-versus-abort semantics.
func (w *Worker) Run(ctx context.Context) error {
	if w.Coordinator == "" {
		return fmt.Errorf("cluster: worker needs a coordinator URL")
	}
	if w.ID == "" {
		var b [6]byte
		if _, err := rand.Read(b[:]); err != nil {
			return fmt.Errorf("cluster: worker id: %w", err)
		}
		w.ID = "worker-" + hex.EncodeToString(b[:])
	}
	if w.Client == nil {
		w.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if w.RequestTimeout == 0 {
		w.RequestTimeout = 15 * time.Second
	}
	if w.Logf == nil {
		w.Logf = func(string, ...any) {}
	}
	hard := w.HardContext
	if hard == nil {
		hard = ctx
	}

	regBackoff := newBackoff(250*time.Millisecond, 4*time.Second, w.backoffSeed(1))
	for {
		err := w.register(ctx)
		if err == nil {
			break
		}
		var pe *permanentError
		if errors.As(err, &pe) {
			return pe
		}
		if ctx.Err() != nil {
			return nil
		}
		w.Logf("cluster: worker %s register: %v (retrying)", w.ID, err)
		if !sleep(ctx, regBackoff.next()) {
			return nil
		}
	}
	w.Logf("cluster: worker %s registered with %s", w.ID, w.Coordinator)

	pollBackoff := newBackoff(w.poll, 8*w.poll, w.backoffSeed(2))
	for {
		if ctx.Err() != nil {
			// Drained (or aborted): leave cleanly so the coordinator
			// does not wait a heartbeat timeout for us.
			w.deregister(hard)
			return nil
		}
		// The lease request runs under the hard context: a drain that
		// lands while the coordinator is granting a lease must not drop
		// the answer, or the deregister below would requeue a lease this
		// worker never saw. A drain waits at most RequestTimeout for it,
		// and the loop top sends no new request once drained.
		lease, err := w.lease(hard)
		switch {
		case err != nil:
			var pe *permanentError
			if errors.As(err, &pe) {
				return pe
			}
			if ctx.Err() != nil {
				continue // loop top deregisters
			}
			w.Logf("cluster: worker %s lease poll: %v", w.ID, err)
			// The coordinator may have restarted and lost us.
			if regErr := w.register(ctx); regErr != nil {
				if errors.As(regErr, &pe) {
					return pe
				}
			}
			if !sleep(ctx, pollBackoff.next()) {
				continue
			}
		case lease == nil:
			pollBackoff.reset()
			if !sleep(ctx, w.poll) {
				continue
			}
		default:
			pollBackoff.reset()
			w.runLease(hard, lease)
		}
	}
}

// runLease simulates one lease and reports its outcome. It runs under the
// hard context: a drain (soft cancel) lets the in-flight chunk finish and
// its result be reported, so a drained worker loses no completed work.
func (w *Worker) runLease(ctx context.Context, l *Lease) {
	if sc, perr := obs.ParseTraceParent(l.TraceParent); perr == nil {
		ctx = obs.ContextWithRemote(ctx, w.Tracer, sc)
	}
	ctx, span := obs.Start(ctx, "worker.chunk",
		obs.String("worker", w.ID),
		obs.String("lease", l.ID),
		obs.String("chunk", l.Spec.String()))
	defer span.End()
	state, err := w.runChunk(ctx, l)
	span.RecordError(err)
	if err != nil {
		if ctx.Err() != nil {
			// Hard abort mid-chunk: drop the work; the lease expires
			// back onto the queue.
			return
		}
		w.Logf("cluster: worker %s chunk %s failed: %v", w.ID, l.Spec, err)
		w.complete(ctx, completeRequest{WorkerID: w.ID, LeaseID: l.ID, Error: err.Error()})
		return
	}
	w.complete(ctx, completeRequest{WorkerID: w.ID, LeaseID: l.ID, State: state})
}

// runChunk rebuilds the scenario's job and estimates the leased chunk. The
// round size is pinned by the lease so the chunk folds bit-identically into
// the coordinator's merger.
func (w *Worker) runChunk(ctx context.Context, l *Lease) (*mc.ChunkState, error) {
	if l.Scenario == nil {
		return nil, fmt.Errorf("lease %s carries no scenario", l.ID)
	}
	built, err := w.build(l.Scenario)
	if err != nil {
		return nil, err
	}
	opts := built.opts
	opts.Workers = w.SimWorkers
	opts.CheckEvery = l.RoundSize
	opts.Context = ctx
	job, err := built.sys.UnsafetyJob(opts)
	if err != nil {
		return nil, err
	}
	return mc.EstimateChunk(job, l.Spec)
}

// build compiles the scenario's model, reusing the previous compilation
// when the canonical hash matches.
func (w *Worker) build(sc *config.Scenario) (*builtJob, error) {
	hash, err := sc.Hash()
	if err != nil {
		return nil, err
	}
	if w.built != nil && w.built.hash == hash {
		return w.built, nil
	}
	p, err := sc.Params()
	if err != nil {
		return nil, err
	}
	sys, err := core.Build(p)
	if err != nil {
		return nil, fmt.Errorf("build model: %w", err)
	}
	w.built = &builtJob{hash: hash, sys: sys, opts: sc.EvalOptions(sys)}
	return w.built, nil
}

// register announces the worker and adopts the coordinator's poll interval.
func (w *Worker) register(ctx context.Context) error {
	var resp registerResponse
	err := w.post(ctx, PathRegister, registerRequest{WorkerID: w.ID, HealthURL: w.HealthURL}, &resp)
	if err != nil {
		return err
	}
	w.poll = time.Duration(resp.PollInterval)
	if w.Poll > 0 {
		w.poll = w.Poll
	}
	if w.poll <= 0 {
		w.poll = 500 * time.Millisecond
	}
	return nil
}

// lease polls for one chunk of work; nil means none available.
func (w *Worker) lease(ctx context.Context) (*Lease, error) {
	var resp leaseResponse
	if err := w.post(ctx, PathLease, leaseRequest{WorkerID: w.ID}, &resp); err != nil {
		return nil, err
	}
	return resp.Lease, nil
}

// complete reports a lease outcome, retrying transport errors a few times —
// the result of minutes of simulation is worth a few seconds of stubbornness.
func (w *Worker) complete(ctx context.Context, req completeRequest) {
	var resp completeResponse
	b := newBackoff(250*time.Millisecond, 4*time.Second, w.backoffSeed(3))
	for attempt := 0; attempt < 5; attempt++ {
		err := w.post(ctx, PathComplete, req, &resp)
		if err == nil {
			if resp.Stale {
				w.Logf("cluster: worker %s lease %s was stale, result discarded", w.ID, req.LeaseID)
			}
			return
		}
		var pe *permanentError
		if errors.As(err, &pe) || ctx.Err() != nil {
			return
		}
		w.Logf("cluster: worker %s complete %s: %v (retrying)", w.ID, req.LeaseID, err)
		if !sleep(ctx, b.next()) {
			return
		}
	}
}

// deregister announces a clean departure, best-effort with a short
// deadline — if it fails, the coordinator drops the worker after a
// heartbeat timeout anyway. A hard-aborted worker (ctx already cancelled)
// skips the call entirely.
func (w *Worker) deregister(ctx context.Context) {
	if ctx.Err() != nil {
		return
	}
	dctx, cancel := context.WithTimeout(ctx, 3*time.Second)
	defer cancel()
	var resp deregisterResponse
	if err := w.post(dctx, PathDeregister, deregisterRequest{WorkerID: w.ID}, &resp); err != nil {
		w.Logf("cluster: worker %s deregister: %v", w.ID, err)
		return
	}
	w.Logf("cluster: worker %s deregistered", w.ID)
}

// permanentError marks coordinator refusals that retrying cannot fix
// (exclusion, malformed requests).
type permanentError struct{ msg string }

func (e *permanentError) Error() string { return e.msg }

// post sends one JSON request and decodes the JSON response, bounded by
// RequestTimeout. 4xx statuses other than 404 are permanent; everything
// else is transient.
func (w *Worker) post(ctx context.Context, path string, in, out any) error {
	if w.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, w.RequestTimeout)
		defer cancel()
	}
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	// Propagate the active chunk span so the coordinator's merge span
	// joins the same trace. Set on the request itself, not by a
	// RoundTripper, so user-provided clients and test fault injectors see
	// the header too.
	if sc, ok := obs.ContextSpanContext(ctx); ok && sc.Sampled {
		req.Header.Set(obs.TraceParentHeader, sc.TraceParent())
	}
	resp, err := w.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		err := fmt.Errorf("%s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
		if resp.StatusCode >= 400 && resp.StatusCode < 500 && resp.StatusCode != http.StatusNotFound {
			return &permanentError{msg: err.Error()}
		}
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// sleep waits for d or ctx, reporting false on cancellation.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
