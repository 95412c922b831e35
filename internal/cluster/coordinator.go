package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"ahs/internal/config"
	"ahs/internal/core"
	"ahs/internal/mc"
	"ahs/internal/obs"
	"ahs/internal/segment"
	"ahs/internal/telemetry"
)

// Config tunes the coordinator's robustness envelope. The zero value is
// production-ready; tests shrink the intervals.
type Config struct {
	// LeaseTTL is how long a worker holds a chunk before the coordinator
	// requeues it (default 2m — comfortably above one chunk's runtime at
	// the default chunk size).
	LeaseTTL time.Duration
	// PollInterval is the idle poll period suggested to workers
	// (default 500ms).
	PollInterval time.Duration
	// HeartbeatTimeout is how long a worker may go silent before it is
	// probed (if it registered a health URL) and then dropped
	// (default 10s).
	HeartbeatTimeout time.Duration
	// SweepInterval is the period of the lease/liveness sweep
	// (default: a quarter of the smaller of LeaseTTL and
	// HeartbeatTimeout, with a 25ms floor).
	SweepInterval time.Duration
	// MaxWorkerFailures excludes a worker after that many consecutive
	// failures — reported errors, rejected results, or lease expiries
	// (default 3). Exclusion is sticky: the ID is banned until the
	// coordinator restarts.
	MaxWorkerFailures int
	// MaxChunkAttempts fails the whole job once a single chunk has been
	// requeued that many times (default 5) — at that point the error is
	// almost certainly deterministic, so retrying elsewhere cannot help.
	MaxChunkAttempts int
	// ChunkBatches is the lease granularity in batches, rounded up to
	// whole accumulation rounds (default: four rounds per chunk).
	ChunkBatches uint64
	// CheckEvery overrides the accumulation round size of every job
	// (0 = the mc default of 2000). The round size is part of the
	// bit-reproducibility contract: a cluster result equals the
	// single-process result for the same scenario and the same
	// CheckEvery.
	CheckEvery uint64
	// Journal, when non-nil, makes the coordinator crash-safe: every job
	// submission, merged chunk and terminal outcome is fsync'd to the
	// journal before it takes effect, and New replays the journal to
	// rebuild in-flight jobs after a crash (see journal.go). Restored
	// jobs resume as soon as a caller re-submits the same scenario
	// (UnsafetyCurve adopts them by scenario hash); until then workers
	// keep making progress on them.
	Journal *Journal
	// HasResult, when non-nil, reports whether a scenario hash already has
	// a durable result elsewhere (cmd/ahs-serve wires the persistent
	// result store's index here). Journal-restored jobs whose hash it
	// claims are dropped at startup instead of re-simulated: any
	// re-submission is served from the store before it reaches the
	// cluster, so finishing the journaled remainder would burn worker
	// time on a curve nobody will read.
	HasResult func(hash string) bool
	// Telemetry, when non-nil, receives the ahs_cluster_* families.
	Telemetry *telemetry.Registry
	// Tracer, when non-nil, records a span per job, lease and merge, all
	// parented under the submitting request's trace (carried in through
	// UnsafetyCurve's context and out to workers via Lease.TraceParent).
	Tracer *obs.Tracer
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 2 * time.Minute
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 500 * time.Millisecond
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 10 * time.Second
	}
	if c.SweepInterval <= 0 {
		c.SweepInterval = c.LeaseTTL / 4
		if c.HeartbeatTimeout < c.LeaseTTL {
			c.SweepInterval = c.HeartbeatTimeout / 4
		}
		if c.SweepInterval < 25*time.Millisecond {
			c.SweepInterval = 25 * time.Millisecond
		}
	}
	if c.MaxWorkerFailures <= 0 {
		c.MaxWorkerFailures = 3
	}
	if c.MaxChunkAttempts <= 0 {
		c.MaxChunkAttempts = 5
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Coordinator shards evaluation jobs into chunk leases for remote workers
// and merges their sufficient statistics into bit-exact curves. It is safe
// for concurrent use; one coordinator serves many concurrent jobs and
// workers. Create with New, mount Handler on a server, Close when done.
type Coordinator struct {
	cfg     Config
	metrics *metrics

	mu        sync.Mutex
	workers   map[string]*workerState
	excluded  map[string]bool
	jobs      map[uint64]*clusterJob
	jobIDs    []uint64            // insertion-ordered keys of jobs, for FIFO leasing
	recovered map[string][]uint64 // scenario hash → journal-restored jobs awaiting adoption
	leases    map[string]*lease
	jobSeq    uint64
	leaseSeq  uint64
	draining  bool
	closed    bool

	stop chan struct{}
	done sync.WaitGroup
}

// Sentinel terminations that must NOT be journaled as the job's outcome:
// the job itself is fine, the coordinator is going away, and a journaled
// job will resume after restart.
var (
	errCoordinatorClosed   = errors.New("cluster: coordinator closed")
	errCoordinatorDraining = errors.New("cluster: coordinator draining (journaled jobs resume after restart)")
)

type workerState struct {
	id        string
	healthURL string
	lastSeen  time.Time
	fails     int             // consecutive failures
	leases    map[string]bool // lease IDs held
}

type lease struct {
	id       string
	job      *clusterJob
	spec     mc.ChunkSpec
	worker   string
	deadline time.Time
	// span covers handout → completion/expiry; ended by
	// releaseLeaseLocked, so outcome errors must be recorded first.
	span *obs.Span
}

type clusterJob struct {
	id       uint64
	scenario *config.Scenario
	hash     string // canonical scenario hash, the adoption key
	bias     float64
	// trace parents lease and merge spans; span (when the submitting
	// caller is attached) receives requeue/rescue/adoption events. A
	// journal-restored job carries the original submit's trace until a
	// caller adopts it.
	trace    obs.SpanContext
	span     *obs.Span
	job      mc.Job // context-free copy for merging and local simulation
	merger   *mc.Merger
	pending  []mc.ChunkSpec
	leased   int
	attempts map[uint64]int // chunk start → delivery attempts
	// unjournaled is set while the merger holds locally simulated rounds
	// whose chunk record has not been appended yet; the job cannot finish
	// until it clears (durability before visibility).
	unjournaled bool
	progress    func(done, max uint64)
	err         error
	finished    bool
	done        chan struct{}
}

// build compiles the job's scenario into the mc.Job, merger and reported
// bias. Submission and journal replay both build through it, so a restored
// job merges exactly like the one that was journaled.
func (j *clusterJob) build(localWorkers int, roundSize uint64) error {
	p, err := j.scenario.Params()
	if err != nil {
		return err
	}
	sys, err := core.Build(p)
	if err != nil {
		return fmt.Errorf("cluster: build model: %w", err)
	}
	opts := j.scenario.EvalOptions(sys)
	opts.Workers = localWorkers
	opts.CheckEvery = roundSize
	if j.job, err = sys.UnsafetyJob(opts); err != nil {
		return err
	}
	j.bias = max(opts.FailureBias, 1)
	j.merger, err = mc.NewMerger(j.job)
	return err
}

// New starts a coordinator and its background lease/liveness sweeper.
// When cfg.Journal is set, New first replays the journal and rebuilds
// every job it describes: merged chunks are folded back into a fresh
// merger, unmerged chunks are requeued for leasing, and jobs whose merge
// is already complete are finished. Restored jobs are handed back to their
// callers when UnsafetyCurve is next invoked with the same scenario.
func New(cfg Config) *Coordinator {
	c := &Coordinator{
		cfg:       cfg.withDefaults(),
		workers:   make(map[string]*workerState),
		excluded:  make(map[string]bool),
		jobs:      make(map[uint64]*clusterJob),
		recovered: make(map[string][]uint64),
		leases:    make(map[string]*lease),
		stop:      make(chan struct{}),
	}
	c.metrics = newMetrics(c.cfg.Telemetry, c)
	if c.cfg.Journal != nil {
		c.restore()
	}
	c.done.Add(1)
	go c.sweeper()
	return c
}

// Close stops the sweeper and fails every active job. Journaled jobs are
// not marked failed in the journal — they resume after the next start.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	for _, j := range c.jobs {
		c.finishJobLocked(j, errCoordinatorClosed)
	}
	c.mu.Unlock()
	close(c.stop)
	c.done.Wait()
}

// Drain prepares for a graceful restart: stop handing out leases, fail
// in-flight callers with a draining error (their jobs stay journaled and
// resume after restart), and sync the journal. Workers keep getting empty
// lease responses, so they idle rather than erroring. Without a journal,
// Drain still stops leasing but job state is lost on exit.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	c.draining = true
	for _, j := range c.jobs {
		c.finishJobLocked(j, errCoordinatorDraining)
	}
	c.mu.Unlock()
	if c.cfg.Journal != nil {
		if err := c.cfg.Journal.Sync(); err != nil {
			c.cfg.Logf("cluster: journal sync on drain: %v", err)
		}
	}
	c.cfg.Logf("cluster: draining; leasing stopped, journal synced")
}

// Status returns the operational snapshot served at PathStatus.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		WorkersLive:       c.liveWorkersLocked(),
		WorkersRegistered: len(c.workers),
		WorkersExcluded:   len(c.excluded),
		ActiveJobs:        len(c.jobs),
		LeasedChunks:      len(c.leases),
		Draining:          c.draining,
	}
	for _, ids := range c.recovered {
		st.RecoveredJobs += len(ids)
	}
	for _, j := range c.jobs {
		st.QueuedChunks += len(j.pending)
	}
	return st
}

// UnsafetyCurve evaluates the scenario across the cluster and returns the
// merged curve plus the importance-sampling bias that was applied (for
// result reporting). The curve is bit-identical to single-process
// core.AHS.UnsafetyCurve for the same scenario. localWorkers bounds the
// simulation parallelism of the chunks the coordinator simulates itself;
// progress, when non-nil, receives (batchesDone, maxBatches) as chunks and
// local rounds fold.
//
// Whenever no live worker is registered — at submit, or after every worker
// died mid-job — the coordinator simulates the queued chunks itself (see
// await), so a job accepted is a job finished (or cancelled via ctx).
func (c *Coordinator) UnsafetyCurve(ctx context.Context, sc *config.Scenario, localWorkers int, progress func(done, max uint64)) (*mc.Curve, float64, error) {
	sc = sc.Canonical()
	hash, err := sc.Hash()
	if err != nil {
		return nil, 0, err
	}
	// The job span is a child of the submitting request's trace (threaded
	// through the service manager); its context parents every lease and
	// merge span of this job.
	ctx, span := obs.Start(ctx, "cluster.job", obs.String("scenario", hash))
	defer span.End()

	// Adoption: a journal-restored job for the same scenario is resumed
	// (or, if workers already finished it, returned immediately) instead
	// of starting the evaluation over.
	c.mu.Lock()
	if ids := c.recovered[hash]; len(ids) > 0 {
		id := ids[0]
		if len(ids) == 1 {
			delete(c.recovered, hash)
		} else {
			c.recovered[hash] = ids[1:]
		}
		j := c.jobs[id]
		j.progress = progress
		// The adopter's live trace takes over: chunks merged before
		// adoption stay on the journaled trace, everything from here
		// reports under the new one, linked by the adoption event.
		span.Event("cluster.adopted",
			obs.String("job", fmt.Sprintf("%d", j.id)),
			obs.String("journal-trace", traceparentOf(j.trace)))
		j.trace = span.Context()
		j.span = span
		rebuildErr := j.err
		c.mu.Unlock()
		if j.merger == nil {
			// The journaled scenario no longer builds: restore finished
			// the job with the rebuild error, which await returns.
			c.cfg.Logf("cluster: job %d for %s adopted from journal: %v", j.id, shortHash(sc), rebuildErr)
		} else {
			c.cfg.Logf("cluster: job %d for %s adopted from journal (%d/%d batches already merged)",
				j.id, shortHash(sc), j.merger.Done(), j.merger.Target())
		}
		curve, b, err := c.await(ctx, j)
		span.RecordError(err)
		return curve, b, err
	}
	c.mu.Unlock()

	j := &clusterJob{
		scenario: sc,
		hash:     hash,
		trace:    span.Context(),
		span:     span,
		attempts: make(map[uint64]int),
		progress: progress,
		done:     make(chan struct{}),
	}
	if err := j.build(localWorkers, c.cfg.CheckEvery); err != nil {
		return nil, 0, err
	}
	j.pending = j.job.Shard(c.cfg.ChunkBatches)

	c.mu.Lock()
	if c.closed || c.draining {
		c.mu.Unlock()
		return nil, 0, errCoordinatorClosed
	}
	c.jobSeq++
	j.id = c.jobSeq
	if c.cfg.Journal != nil {
		// The submit record must be durable before the job becomes
		// leasable: a chunk record without its submit record would be
		// unreplayable.
		rec := journalRecord{
			Type:         recSubmit,
			Job:          j.id,
			Scenario:     sc,
			Hash:         hash,
			RoundSize:    j.job.RoundSize(),
			ChunkBatches: c.cfg.ChunkBatches,
			LocalWorkers: localWorkers,
			Trace:        traceparentOf(j.trace),
		}
		if err := c.cfg.Journal.append(rec); err != nil {
			c.mu.Unlock()
			return nil, 0, fmt.Errorf("cluster: journal submit: %w", err)
		}
	}
	c.jobs[j.id] = j
	c.jobIDs = append(c.jobIDs, j.id)
	c.mu.Unlock()
	curve, b, err := c.await(ctx, j)
	span.RecordError(err)
	return curve, b, err
}

// await blocks until the job finishes (returning its curve) or ctx is
// cancelled. While no live worker is registered it simulates the job's
// queued chunks itself, back to back (see localRun); the ticker only paces
// re-checks while chunks are out on lease or workers are live. On return
// the local simulation is cancelled and waited for, and the job is dropped
// from the coordinator — and from the journal, unless the coordinator is
// shutting down.
func (c *Coordinator) await(ctx context.Context, j *clusterJob) (*mc.Curve, float64, error) {
	defer c.dropJob(j)
	c.mu.Lock()
	fallback := !j.finished && c.liveWorkersLocked() == 0
	c.mu.Unlock()
	if fallback {
		c.metrics.localFallback()
		c.cfg.Logf("cluster: no live workers, evaluating %s locally", shortHash(j.scenario))
		j.span.Event("cluster.local-fallback")
	}
	lctx, cancel := context.WithCancel(ctx)
	run := &localRun{c: c, j: j, ctx: lctx, results: make(chan localRound, 1)}
	defer func() {
		cancel()
		run.wg.Wait()
	}()
	ticker := time.NewTicker(c.cfg.PollInterval)
	defer ticker.Stop()
	for {
		run.start()
		var tick <-chan time.Time
		if !run.busy {
			tick = ticker.C // nothing to re-check while a local round runs
		}
		select {
		case <-j.done:
			c.mu.Lock()
			err := j.err
			c.mu.Unlock()
			if err != nil {
				return nil, 0, err
			}
			curve, err := j.merger.Curve()
			return curve, j.bias, err
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		case res := <-run.results:
			run.fold(res)
		case <-tick:
		}
	}
}

// localRun is the coordinator's own share of one job. It claims queued
// chunks only while no live worker is registered — checking again before
// every chunk, so a worker that registers mid-job leases the rest — and
// simulates each claimed chunk one accumulation round at a time on a
// Chunker built once. Every round folds into the merger as it lands, so
// the job stops at exactly the round where the stop rule fires, like a
// single-process run. A chunk's journal record is appended once its last
// round has folded (or the merge completed), while the next round is
// already simulating. Only await's goroutine touches a localRun.
type localRun struct {
	c       *Coordinator
	j       *clusterJob
	ctx     context.Context
	chunker *mc.Chunker
	results chan localRound // capacity 1: a cancelled round never blocks
	wg      sync.WaitGroup
	busy    bool // a round is simulating

	chunk mc.ChunkSpec   // the claimed chunk
	acc   *mc.ChunkState // its rounds folded so far, not yet journaled
}

type localRound struct {
	state *mc.ChunkState
	err   error
}

// start begins simulating the next local round, unless one is already in
// flight or there is nothing the coordinator may simulate right now.
func (r *localRun) start() {
	if r.busy {
		return
	}
	c, j := r.c, r.j
	c.mu.Lock()
	defer c.mu.Unlock()
	if j.finished || j.merger.Complete() {
		return
	}
	if r.acc == nil || r.acc.Spec.End() == r.chunk.End() {
		if len(j.pending) == 0 || c.liveWorkersLocked() > 0 {
			return
		}
		r.chunk, j.pending = j.pending[0], j.pending[1:]
		r.acc = &mc.ChunkState{
			Spec:      mc.ChunkSpec{Start: r.chunk.Start},
			RoundSize: j.job.RoundSize(),
			Causes:    make(map[string]uint64),
		}
	}
	if r.chunker == nil {
		job := j.job
		job.Context = r.ctx
		var err error
		if r.chunker, err = mc.NewChunker(job); err != nil {
			c.finishJobLocked(j, fmt.Errorf("cluster: local simulation: %w", err))
			return
		}
	}
	start := r.acc.Spec.End()
	spec := mc.ChunkSpec{Start: start, Count: min(r.acc.RoundSize, r.chunk.End()-start)}
	r.busy = true
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		state, err := r.chunker.Estimate(spec)
		r.results <- localRound{state, err}
	}()
}

// fold merges one simulated round. Once the round ends its chunk, or the
// merge is complete, it starts the next round and then journals the chunk,
// so the append and its fsync overlap the simulation; the job settles only
// after the append.
func (r *localRun) fold(res localRound) {
	r.busy = false
	if r.ctx.Err() != nil {
		return // the caller is gone; await returns ctx.Err()
	}
	c, j := r.c, r.j
	c.mu.Lock()
	if j.finished {
		c.mu.Unlock()
		return
	}
	err := res.err
	if err == nil {
		err = j.merger.Add(res.state)
	}
	if err != nil {
		// The simulation is deterministic, so a failed round would fail
		// anywhere: fail the job like a single-process evaluation would.
		c.finishJobLocked(j, fmt.Errorf("cluster: local simulation of chunk %s: %w", r.chunk, err))
		c.mu.Unlock()
		return
	}
	r.acc.Spec.Count += res.state.Spec.Count
	r.acc.Rounds = append(r.acc.Rounds, res.state.Rounds...)
	for k, v := range res.state.Causes {
		r.acc.Causes[k] += v
	}
	j.unjournaled = true
	if j.progress != nil {
		j.progress(j.merger.Done(), j.merger.Target())
	}
	chunkDone := r.acc.Spec.End() == r.chunk.End() || j.merger.Complete()
	c.mu.Unlock()
	if !chunkDone {
		return
	}
	rec := r.acc
	r.acc = nil
	r.start()
	// Let the round just started take this thread before the append
	// blocks it in write and fsync; otherwise the round can wait for the
	// runtime to hand the processor to another thread, which is slow on a
	// loaded machine.
	runtime.Gosched()
	start := time.Now()
	c.journalChunk(j, rec)
	c.mu.Lock()
	j.unjournaled = false
	c.metrics.chunkCompleted(time.Since(start).Seconds())
	c.metrics.chunkRescued()
	j.span.Event("cluster.chunk-rescued", obs.String("chunk", rec.Spec.String()))
	c.settleLocked(j)
	c.mu.Unlock()
}

// restore rebuilds jobs from the journal at startup. Jobs that cannot be
// rebuilt (their scenario no longer builds — only possible if the journal
// was written by an incompatible version) are finished with the rebuild
// error rather than silently discarded.
func (c *Coordinator) restore() {
	c.jobSeq = c.cfg.Journal.maxJobID()
	for _, rj := range c.cfg.Journal.recoveredJobs() {
		if c.cfg.HasResult != nil && c.cfg.HasResult(rj.submit.Hash) {
			// The persistent store already serves this scenario; journal
			// the drop so the job stays dead across future restarts.
			if err := c.cfg.Journal.append(journalRecord{Type: recDrop, Job: rj.id}); err != nil {
				c.cfg.Logf("cluster: journal drop of store-served job %d: %v", rj.id, err)
			}
			c.cfg.Logf("cluster: dropped journaled job %d (%.12s): result already in the persistent store", rj.id, rj.submit.Hash)
			continue
		}
		j := c.rebuildJob(rj)
		c.jobs[j.id] = j
		c.jobIDs = append(c.jobIDs, j.id)
		c.recovered[j.hash] = append(c.recovered[j.hash], j.id)
		state := "resuming"
		if j.finished {
			state = "finished"
		}
		c.cfg.Logf("cluster: restored job %d (%s) from journal: %d chunks merged, %d pending, %s",
			j.id, shortHash(j.scenario), len(rj.chunks), len(j.pending), state)
	}
}

// rebuildJob reconstructs one clusterJob from its journal state: rebuild
// the model, fold the journaled chunk states into a fresh merger (their
// replay is idempotent and order-insensitive), and requeue whichever
// shards never merged.
func (c *Coordinator) rebuildJob(rj *journalJob) *clusterJob {
	j := &clusterJob{
		id:       rj.id,
		scenario: rj.submit.Scenario.Canonical(),
		hash:     rj.submit.Hash,
		attempts: make(map[uint64]int),
		done:     make(chan struct{}),
	}
	if sc, err := obs.ParseTraceParent(rj.submit.Trace); err == nil {
		// Chunks merged before adoption keep reporting under the
		// original submit's trace ID.
		j.trace = sc
	}
	fail := func(err error) *clusterJob {
		j.finished = true
		j.err = fmt.Errorf("cluster: rebuild journaled job %d: %w", rj.id, err)
		close(j.done)
		return j
	}
	if err := j.build(rj.submit.LocalWorkers, rj.submit.RoundSize); err != nil {
		return fail(err)
	}
	starts := make([]uint64, 0, len(rj.chunks))
	for s := range rj.chunks {
		starts = append(starts, s)
	}
	sort.Slice(starts, func(a, b int) bool { return starts[a] < starts[b] })
	for _, s := range starts {
		state := rj.chunks[s]
		if err := j.merger.Add(state); err != nil {
			// A journaled state the merger rejects can only come from an
			// incompatible layout change; its batches stay uncovered and
			// are simply re-simulated.
			c.cfg.Logf("cluster: journal chunk %s of job %d rejected on replay: %v", state.Spec, rj.id, err)
		}
	}
	if !j.merger.Complete() {
		j.pending = uncovered(j.job.Shard(rj.submit.ChunkBatches), j.merger.Added())
	}

	switch {
	case rj.finished && rj.finishErr != "":
		j.finished = true
		j.err = errors.New(rj.finishErr)
		j.pending = nil
		close(j.done)
	case j.merger.Complete():
		// All chunks were merged before the crash (the finish record may
		// or may not have made it; either way the outcome is decided).
		j.finished = true
		j.pending = nil
		close(j.done)
		if !rj.finished {
			if err := c.cfg.Journal.append(journalRecord{Type: recFinish, Job: rj.id}); err != nil {
				c.cfg.Logf("cluster: journal finish of restored job %d: %v", rj.id, err)
			}
		}
	}
	return j
}

// dropJob removes a finished or abandoned job and its leases. The drop is
// journaled — the job will not be resurrected on restart — unless the
// coordinator itself is going away, in which case the job must survive in
// the journal to resume after restart.
func (c *Coordinator) dropJob(j *clusterJob) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.jobs[j.id]; !ok {
		return
	}
	if c.cfg.Journal != nil && !c.closed && !c.draining {
		if err := c.cfg.Journal.append(journalRecord{Type: recDrop, Job: j.id}); err != nil {
			c.cfg.Logf("cluster: journal drop of job %d: %v", j.id, err)
		}
	}
	delete(c.jobs, j.id)
	for i, id := range c.jobIDs {
		if id == j.id {
			c.jobIDs = append(c.jobIDs[:i], c.jobIDs[i+1:]...)
			break
		}
	}
	for id, l := range c.leases {
		if l.job == j {
			c.releaseLeaseLocked(id)
		}
	}
}

// uncovered returns the parts of the shard layout that no held range
// covers, in order. A journaled chunk record smaller than its shard — a
// local chunk cut short when the merge completed — thus requeues only the
// batches it lacks.
func uncovered(shards, held []mc.ChunkSpec) []mc.ChunkSpec {
	var out []mc.ChunkSpec
	for _, sh := range shards {
		start := sh.Start
		for _, h := range held {
			if h.End() <= start || h.Start >= sh.End() {
				continue
			}
			if h.Start > start {
				out = append(out, mc.ChunkSpec{Start: start, Count: h.Start - start})
			}
			start = h.End()
		}
		if start < sh.End() {
			out = append(out, mc.ChunkSpec{Start: start, Count: sh.End() - start})
		}
	}
	return out
}

// liveWorkersLocked counts workers seen within the heartbeat window.
func (c *Coordinator) liveWorkersLocked() int {
	n := 0
	now := time.Now()
	for _, w := range c.workers {
		if now.Sub(w.lastSeen) <= c.cfg.HeartbeatTimeout {
			n++
		}
	}
	return n
}

// sweeper periodically requeues expired leases and drops dead workers.
func (c *Coordinator) sweeper() {
	defer c.done.Done()
	ticker := time.NewTicker(c.cfg.SweepInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
			c.sweep()
		}
	}
}

func (c *Coordinator) sweep() {
	now := time.Now()

	c.mu.Lock()
	for id, l := range c.leases {
		if now.After(l.deadline) {
			c.cfg.Logf("cluster: lease %s (chunk %s, worker %s) expired", id, l.spec, l.worker)
			c.metrics.chunkRequeued()
			l.span.RecordError(fmt.Errorf("lease expired on worker %s", l.worker))
			// Release before blaming the worker: exclusion requeues
			// everything the worker still holds, and this lease must
			// not be requeued twice.
			c.releaseLeaseLocked(id)
			c.requeueLocked(l.job, l.spec, fmt.Errorf("lease expired on worker %s", l.worker))
			c.failWorkerLocked(l.worker)
		}
	}
	// Collect quiet workers for an out-of-lock health probe.
	type probe struct{ id, url string }
	var probes []probe
	for id, w := range c.workers {
		if now.Sub(w.lastSeen) > c.cfg.HeartbeatTimeout {
			probes = append(probes, probe{id, w.healthURL})
		}
	}
	c.mu.Unlock()

	for _, p := range probes {
		if p.url != "" && probeHealth(p.url) {
			c.mu.Lock()
			if w, ok := c.workers[p.id]; ok {
				w.lastSeen = time.Now()
			}
			c.mu.Unlock()
			continue
		}
		c.mu.Lock()
		if w, ok := c.workers[p.id]; ok && time.Since(w.lastSeen) > c.cfg.HeartbeatTimeout {
			c.cfg.Logf("cluster: worker %s unreachable, dropping", p.id)
			c.dropWorkerLocked(w)
		}
		c.mu.Unlock()
	}
}

// probeHealth reports whether the worker's health endpoint answers 2xx.
func probeHealth(url string) bool {
	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode >= 200 && resp.StatusCode < 300
}

// failWorkerLocked counts one failure against a worker and excludes it once
// it hits the limit, requeueing everything it still holds.
func (c *Coordinator) failWorkerLocked(id string) {
	w, ok := c.workers[id]
	if !ok {
		return
	}
	w.fails++
	if w.fails >= c.cfg.MaxWorkerFailures {
		c.cfg.Logf("cluster: excluding worker %s after %d consecutive failures", id, w.fails)
		c.excluded[id] = true
		c.dropWorkerLocked(w)
	}
}

// dropWorkerLocked removes a worker, requeueing its outstanding leases.
func (c *Coordinator) dropWorkerLocked(w *workerState) {
	for id := range w.leases {
		if l, ok := c.leases[id]; ok {
			c.metrics.chunkRequeued()
			l.span.RecordError(fmt.Errorf("worker %s dropped", w.id))
			c.releaseLeaseLocked(id)
			c.requeueLocked(l.job, l.spec, fmt.Errorf("worker %s dropped", w.id))
		}
	}
	delete(c.workers, w.id)
}

// releaseLeaseLocked forgets a lease on both the global and worker indexes.
func (c *Coordinator) releaseLeaseLocked(id string) {
	l, ok := c.leases[id]
	if !ok {
		return
	}
	delete(c.leases, id)
	l.job.leased--
	if w, ok := c.workers[l.worker]; ok {
		delete(w.leases, id)
	}
	l.span.End()
}

// requeueLocked puts a chunk back on its job's queue, failing the job once
// the chunk has exhausted its delivery attempts.
func (c *Coordinator) requeueLocked(j *clusterJob, spec mc.ChunkSpec, cause error) {
	if j.finished {
		return
	}
	j.attempts[spec.Start]++
	j.span.Event("cluster.requeue",
		obs.String("chunk", spec.String()),
		obs.String("attempt", fmt.Sprintf("%d", j.attempts[spec.Start])),
		obs.String("cause", cause.Error()))
	if j.attempts[spec.Start] >= c.cfg.MaxChunkAttempts {
		c.finishJobLocked(j, fmt.Errorf("cluster: chunk %s failed %d times, last: %w", spec, j.attempts[spec.Start], cause))
		return
	}
	j.pending = append(j.pending, spec)
}

// foldLocked merges one worker's chunk state, journals it, and finishes
// the job when complete.
func (c *Coordinator) foldLocked(j *clusterJob, state *mc.ChunkState) {
	start := time.Now()
	if err := j.merger.Add(state); err != nil {
		// Shape-invalid state: the chunk itself was never folded, so
		// put it back in play.
		c.cfg.Logf("cluster: rejecting chunk %s: %v", state.Spec, err)
		c.metrics.chunkFailed()
		c.requeueLocked(j, state.Spec, err)
		return
	}
	c.journalChunk(j, state)
	c.metrics.chunkCompleted(time.Since(start).Seconds())
	if j.progress != nil {
		j.progress(j.merger.Done(), j.merger.Target())
	}
	c.settleLocked(j)
}

// journalChunk appends a merged chunk's record. Durability before
// visibility: a chunk is journaled before it can settle the job. Should the
// append fail, the merged state is still correct in memory; recovery would
// just re-simulate the chunk.
func (c *Coordinator) journalChunk(j *clusterJob, state *mc.ChunkState) {
	if c.cfg.Journal != nil {
		if err := c.cfg.Journal.append(journalRecord{Type: recChunk, Job: j.id, State: state}); err != nil {
			c.cfg.Logf("cluster: journal chunk %s of job %d: %v", state.Spec, j.id, err)
		}
	}
}

// settleLocked finishes the job once its merge is complete and every
// chunk that decided it is journaled.
func (c *Coordinator) settleLocked(j *clusterJob) {
	if j.merger.Complete() && !j.unjournaled {
		c.finishJobLocked(j, nil)
	}
}

// finishJobLocked marks a job done (err nil) or failed, journaling the
// terminal outcome. Shutdown-induced terminations (close, drain) are not
// journaled: the job itself is healthy and resumes after restart.
func (c *Coordinator) finishJobLocked(j *clusterJob, err error) {
	if j.finished {
		return
	}
	j.finished = true
	j.err = err
	j.pending = nil
	if c.cfg.Journal != nil && !errors.Is(err, errCoordinatorClosed) && !errors.Is(err, errCoordinatorDraining) {
		rec := journalRecord{Type: recFinish, Job: j.id}
		if err != nil {
			rec.Error = err.Error()
		}
		if jerr := c.cfg.Journal.append(rec); jerr != nil {
			c.cfg.Logf("cluster: journal finish of job %d: %v", j.id, jerr)
		}
	}
	close(j.done)
}

// Handler returns the coordinator's HTTP API, rooted at the PathRegister /
// PathLease / PathComplete / PathStatus routes. Mount it on the serving mux
// (the paths are absolute, so http.Handle(PathRegister, h) and a plain
// mux.Handle("/cluster/v1/", h) both work). A request body may hold at
// most segment.MaxPayload bytes, the largest record the journal stores
// (a completion carries one mc.ChunkState); a larger one fails decoding
// and answers 400.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathRegister, c.handleRegister)
	mux.HandleFunc("POST "+PathLease, c.handleLease)
	mux.HandleFunc("POST "+PathComplete, c.handleComplete)
	mux.HandleFunc("POST "+PathDeregister, c.handleDeregister)
	mux.HandleFunc("GET "+PathStatus, c.handleStatus)
	return http.MaxBytesHandler(mux, segment.MaxPayload)
}

// handleDeregister removes a draining worker immediately instead of
// waiting a heartbeat timeout. Any leases it still holds are requeued
// (a drained worker completes its lease first, so normally none). The
// worker is not excluded and may register again later.
func (c *Coordinator) handleDeregister(w http.ResponseWriter, r *http.Request) {
	var req deregisterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.WorkerID == "" {
		http.Error(w, "cluster: bad deregister request", http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	if ws, ok := c.workers[req.WorkerID]; ok {
		c.dropWorkerLocked(ws)
		c.cfg.Logf("cluster: worker %s deregistered", req.WorkerID)
	}
	c.mu.Unlock()
	writeJSON(w, deregisterResponse{OK: true})
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.WorkerID == "" {
		http.Error(w, "cluster: bad register request", http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	if c.excluded[req.WorkerID] {
		c.mu.Unlock()
		http.Error(w, "cluster: worker excluded", http.StatusForbidden)
		return
	}
	ws, ok := c.workers[req.WorkerID]
	if !ok {
		ws = &workerState{id: req.WorkerID, leases: make(map[string]bool)}
		c.workers[req.WorkerID] = ws
	}
	ws.healthURL = req.HealthURL
	ws.lastSeen = time.Now()
	c.mu.Unlock()
	c.cfg.Logf("cluster: worker %s registered", req.WorkerID)
	writeJSON(w, registerResponse{PollInterval: duration(c.cfg.PollInterval)})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.WorkerID == "" {
		http.Error(w, "cluster: bad lease request", http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	if c.excluded[req.WorkerID] {
		c.mu.Unlock()
		http.Error(w, "cluster: worker excluded", http.StatusForbidden)
		return
	}
	ws, ok := c.workers[req.WorkerID]
	if !ok {
		c.mu.Unlock()
		http.Error(w, "cluster: unknown worker, register first", http.StatusNotFound)
		return
	}
	ws.lastSeen = time.Now()
	var out *Lease
	if c.draining {
		// Draining: answer "no work" so workers idle instead of picking
		// up leases the exiting coordinator could never merge.
		c.mu.Unlock()
		writeJSON(w, leaseResponse{})
		return
	}
	for _, id := range c.jobIDs { // FIFO across jobs
		j := c.jobs[id]
		if j == nil || j.finished || len(j.pending) == 0 {
			continue
		}
		spec := j.pending[0]
		j.pending = j.pending[1:]
		j.leased++
		c.leaseSeq++
		l := &lease{
			id:       fmt.Sprintf("lease-%d", c.leaseSeq),
			job:      j,
			spec:     spec,
			worker:   ws.id,
			deadline: time.Now().Add(c.cfg.LeaseTTL),
		}
		if j.trace.Valid() {
			lctx := obs.ContextWithRemote(context.Background(), c.cfg.Tracer, j.trace)
			_, l.span = obs.Start(lctx, "cluster.lease",
				obs.String("lease", l.id),
				obs.String("worker", ws.id),
				obs.String("chunk", spec.String()))
		}
		c.leases[l.id] = l
		ws.leases[l.id] = true
		out = &Lease{
			ID:          l.id,
			Scenario:    j.scenario,
			Spec:        spec,
			RoundSize:   j.job.RoundSize(),
			TTL:         duration(c.cfg.LeaseTTL),
			TraceParent: traceparentOf(l.span.Context()),
		}
		c.metrics.chunkLeased()
		break
	}
	c.mu.Unlock()
	writeJSON(w, leaseResponse{Lease: out})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.WorkerID == "" || req.LeaseID == "" {
		http.Error(w, "cluster: bad complete request", http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	if ws, ok := c.workers[req.WorkerID]; ok {
		ws.lastSeen = time.Now()
	}
	l, ok := c.leases[req.LeaseID]
	if !ok || l.worker != req.WorkerID {
		// Expired, requeued, or the job already finished: the work is
		// simply discarded. Exactly-once folding hinges on this check.
		c.mu.Unlock()
		writeJSON(w, completeResponse{OK: false, Stale: true})
		return
	}
	// Record the lease outcome before release ends its span.
	var outcome error
	switch {
	case req.Error != "" || req.State == nil:
		outcome = fmt.Errorf("worker %s: %s", req.WorkerID, req.Error)
	case req.State.Spec != l.spec:
		outcome = errors.New("chunk spec mismatch")
	}
	l.span.RecordError(outcome)
	c.releaseLeaseLocked(req.LeaseID)
	j := l.job
	if req.Error != "" || req.State == nil {
		c.cfg.Logf("cluster: worker %s failed chunk %s: %s", req.WorkerID, l.spec, req.Error)
		c.metrics.chunkFailed()
		c.failWorkerLocked(req.WorkerID)
		c.requeueLocked(j, l.spec, errors.New(req.Error))
		c.mu.Unlock()
		writeJSON(w, completeResponse{OK: false})
		return
	}
	if req.State.Spec != l.spec {
		c.cfg.Logf("cluster: worker %s returned chunk %s for lease of %s", req.WorkerID, req.State.Spec, l.spec)
		c.metrics.chunkFailed()
		c.failWorkerLocked(req.WorkerID)
		c.requeueLocked(j, l.spec, errors.New("chunk spec mismatch"))
		c.mu.Unlock()
		writeJSON(w, completeResponse{OK: false})
		return
	}
	if ws, ok := c.workers[req.WorkerID]; ok {
		ws.fails = 0
	}
	// The merge span parents to the worker's chunk span (its traceparent
	// rides the completion request), falling back to the job's trace when
	// the worker doesn't propagate.
	mctx := context.Background()
	if sc, err := obs.ParseTraceParent(r.Header.Get(obs.TraceParentHeader)); err == nil {
		mctx = obs.ContextWithRemote(mctx, c.cfg.Tracer, sc)
	} else if j.trace.Valid() {
		mctx = obs.ContextWithRemote(mctx, c.cfg.Tracer, j.trace)
	}
	_, msp := obs.Start(mctx, "cluster.merge",
		obs.String("lease", req.LeaseID),
		obs.String("worker", req.WorkerID),
		obs.String("chunk", l.spec.String()))
	c.foldLocked(j, req.State)
	msp.End()
	c.mu.Unlock()
	writeJSON(w, completeResponse{OK: true})
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, c.Status())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// traceparentOf renders a span context for the wire/journal, "" when
// invalid (untraced or unsampled).
func traceparentOf(sc obs.SpanContext) string {
	if !sc.Valid() {
		return ""
	}
	return sc.TraceParent()
}

// shortHash renders a scenario identity for log lines.
func shortHash(sc *config.Scenario) string {
	h, err := sc.Hash()
	if err != nil || len(h) < 12 {
		return sc.Name
	}
	if sc.Name != "" {
		return sc.Name + "/" + h[:12]
	}
	return h[:12]
}
