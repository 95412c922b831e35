package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ahs/internal/config"
	"ahs/internal/obs"
	"ahs/internal/telemetry"
)

// Sentinel errors surfaced by Submit and the job accessors; the HTTP layer
// maps them to status codes (429, 503, 404).
var (
	ErrQueueFull    = errors.New("service: evaluation queue is full")
	ErrShuttingDown = errors.New("service: manager is shutting down")
	ErrUnknownJob   = errors.New("service: unknown job id")
)

// Status is the lifecycle state of an evaluation job.
type Status string

const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// Config sizes the manager. The zero value gets sensible defaults.
type Config struct {
	// Workers is the number of jobs evaluated concurrently (default 2).
	Workers int
	// QueueSize bounds the number of jobs waiting for a worker; a full
	// queue rejects submissions with ErrQueueFull (default 64).
	QueueSize int
	// CacheSize is the LRU result-cache capacity in entries; 0 means the
	// default 256, negative disables caching.
	CacheSize int
	// WorkersPerJob bounds the simulation parallelism inside one job so
	// concurrent jobs don't oversubscribe the machine (default
	// GOMAXPROCS / Workers, at least 1).
	WorkersPerJob int
	// JobTimeout caps each job's evaluation wall-clock time; expired
	// jobs finish as cancelled. 0 means no cap.
	JobTimeout time.Duration
	// HistorySize bounds how many finished job records stay pollable
	// before the oldest are forgotten (default 1024).
	HistorySize int
	// Eval runs one scenario; nil means the production evaluation wired
	// to the manager's telemetry registry (see EvaluateInto). Tests
	// inject fakes to script slow, failing or blocking jobs.
	Eval EvalFunc
	// Telemetry is the registry the manager's operational metrics — and,
	// with the default Eval, the simulation's — are registered on. Nil
	// means a fresh private registry, exposed by Manager.Registry and
	// served at GET /metrics by the HTTP handler.
	Telemetry *telemetry.Registry
	// Backend reports the execution backend's readiness for GET /healthz.
	// Nil means the in-process local backend (always ready). Pair
	// ClusterEval with ClusterBackend so health reflects the cluster.
	Backend func() BackendHealth
	// Tracer, when non-nil, records a span per job run and links it to the
	// submitting request's trace, so one trace covers submit → evaluation
	// even though the job outlives the HTTP request.
	Tracer *obs.Tracer
	// ExtraHealth, when non-nil, contributes additional top-level fields to
	// the GET /healthz body — cmd/ahs-serve reports journal directory and
	// last-compaction status through it.
	ExtraHealth func() map[string]any
	// Store, when non-nil, is the persistent second tier under the LRU:
	// submissions missing both tiers evaluate and write through, so a curve
	// computed once is served forever — across restarts and by every
	// instance sharing the store directory (see internal/resultstore).
	Store ResultStore
	// Fleet, when non-nil, coordinates this instance with peers sharing
	// the store directory (see internal/fleet): submissions missing every
	// result tier claim their scenario fleet-wide before evaluating, and
	// finished results persist through the coordinator so the claim is
	// released only once the result is durable. A scenario a live peer
	// already claimed fails submission with *PeerClaimedError carrying
	// the holder's URL.
	Fleet FleetCoordinator
	// Logf, when non-nil, receives operational log lines (store read/write
	// failures); nil discards them.
	Logf func(format string, args ...any)
	// DefaultTenant is attributed submissions that name no tenant (empty =
	// "default"). Tenants arrive via WithTenant on the submit context — the
	// HTTP layer maps the X-AHS-Tenant header onto it.
	DefaultTenant string
	// TenantQuota caps one tenant's queued jobs; a tenant at its quota is
	// rejected with ErrTenantQuota (HTTP 429) while others keep submitting.
	// 0 means no per-tenant cap (the shared QueueSize still applies).
	TenantQuota int
}

// BackendHealth describes the execution backend behind the manager, as
// surfaced by GET /healthz.
type BackendHealth struct {
	// Mode is "local" (in-process simulation) or "cluster".
	Mode string `json:"mode"`
	// Ready reports whether the backend can run jobs right now. The
	// cluster backend is ready even with zero workers — it falls back to
	// local execution — so this only goes false for future backends with
	// hard dependencies.
	Ready bool `json:"ready"`
	// WorkersRegistered/WorkersLive count cluster workers; both zero in
	// local mode.
	WorkersRegistered int `json:"workersRegistered,omitempty"`
	WorkersLive       int `json:"workersLive,omitempty"`
	// RecoveredJobs counts journal-restored cluster jobs awaiting
	// re-submission of their scenario (see docs/cluster.md, "Failure
	// model & recovery"); always zero in local mode and without -journal-dir.
	RecoveredJobs int `json:"recoveredJobs,omitempty"`
	// Draining reports a coordinator that has stopped leasing ahead of a
	// graceful shutdown.
	Draining bool `json:"draining,omitempty"`
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.WorkersPerJob <= 0 {
		c.WorkersPerJob = runtime.GOMAXPROCS(0) / c.Workers
		if c.WorkersPerJob < 1 {
			c.WorkersPerJob = 1
		}
	}
	if c.HistorySize <= 0 {
		c.HistorySize = 1024
	}
	if c.Telemetry == nil {
		c.Telemetry = telemetry.NewRegistry()
	}
	if c.Eval == nil {
		c.Eval = EvaluateInto(c.Telemetry)
	}
	if c.DefaultTenant == "" {
		c.DefaultTenant = DefaultTenant
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// job is the mutable server-side record of one submission.
type job struct {
	id       string
	hash     string
	tenant   string
	scenario *config.Scenario
	// trace is the submitting request's span context; the job's run span
	// parents itself here so the trace survives the request's lifetime.
	trace obs.SpanContext

	ctx    context.Context
	cancel context.CancelFunc
	// done closes exactly once, when the job reaches a terminal status.
	done chan struct{}

	// batchesDone/maxBatches are updated from the estimator's progress
	// hook and read by pollers without locking.
	batchesDone atomic.Uint64
	maxBatches  atomic.Uint64
	// snaps numbers and retains recent snapshots so a dropped SSE stream
	// can resume from its Last-Event-ID without missing events.
	snaps snapshotLog

	mu        sync.Mutex
	status    Status
	cached    bool
	tier      string // "memory" or "store" when cached
	result    *Result
	errMsg    string
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// Progress is a point-in-time view of a job's batch counter.
type Progress struct {
	BatchesDone uint64 `json:"batchesDone"`
	MaxBatches  uint64 `json:"maxBatches"`
}

// JobView is an immutable snapshot of a job for API responses.
type JobView struct {
	ID           string `json:"id"`
	ScenarioHash string `json:"scenarioHash"`
	Tenant       string `json:"tenant,omitempty"`
	Status       Status `json:"status"`
	Cached       bool   `json:"cached"`
	// CacheTier names the tier a cached result came from: "memory" (the
	// LRU) or "store" (the persistent second tier); empty when evaluated.
	CacheTier string   `json:"cacheTier,omitempty"`
	Progress  Progress `json:"progress"`
	Error     string   `json:"error,omitempty"`
	// TraceID correlates the job with its distributed trace (see
	// GET /v1/jobs/{id}/trace); empty when tracing was off or unsampled
	// at submit time.
	TraceID     string `json:"traceId,omitempty"`
	SubmittedAt string `json:"submittedAt,omitempty"`
	StartedAt   string `json:"startedAt,omitempty"`
	FinishedAt  string `json:"finishedAt,omitempty"`
}

func (j *job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:           j.id,
		ScenarioHash: j.hash,
		Tenant:       j.tenant,
		Status:       j.status,
		Cached:       j.cached,
		CacheTier:    j.tier,
		TraceID:      traceIDOf(j.trace),
		Progress: Progress{
			BatchesDone: j.batchesDone.Load(),
			MaxBatches:  j.maxBatches.Load(),
		},
		Error: j.errMsg,
	}
	stamp := func(t time.Time) string {
		if t.IsZero() {
			return ""
		}
		return t.UTC().Format(time.RFC3339Nano)
	}
	v.SubmittedAt = stamp(j.submitted)
	v.StartedAt = stamp(j.started)
	v.FinishedAt = stamp(j.finished)
	return v
}

// Manager owns the worker pool, the deduplication table and the result
// cache. Create with NewManager, stop with Shutdown.
type Manager struct {
	cfg       Config
	metrics   Metrics
	perTenant *tenantMetrics
	cache     *resultCache

	baseCtx    context.Context
	baseCancel context.CancelFunc
	queue      *fairQueue
	wg         sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	nextID   uint64
	jobs     map[string]*job
	byHash   map[string]*job // queued or running jobs, for deduplication
	finished []string        // terminal job ids, oldest first, for pruning
}

// NewManager starts cfg.Workers worker goroutines and returns the manager.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:        cfg,
		metrics:    newMetrics(cfg.Telemetry, cfg.Workers),
		perTenant:  newTenantMetrics(cfg.Telemetry),
		cache:      newResultCache(cfg.CacheSize),
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      newFairQueue(cfg.QueueSize, cfg.TenantQuota),
		jobs:       make(map[string]*job),
		byHash:     make(map[string]*job),
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Submit registers a scenario for evaluation and returns a snapshot of the
// job that answers it. Identical scenarios (by canonical hash) coalesce:
// a cached result yields an immediately-done job, an in-flight twin is
// returned as-is. A full queue fails with ErrQueueFull; any scenario error
// (unparseable parameters) fails before enqueueing.
func (m *Manager) Submit(sc *config.Scenario) (JobView, error) {
	return m.SubmitCtx(context.Background(), sc)
}

// SubmitCtx is Submit with trace context: the caller's active span (the
// HTTP submit handler's, a sweep point's) becomes the parent of the job's
// run span, and dedup/cache/store verdicts plus the admission decision are
// annotated on it as events. ctx also carries the tenant identity (see
// WithTenant); submission never blocks on it.
func (m *Manager) SubmitCtx(ctx context.Context, sc *config.Scenario) (JobView, error) {
	hash, err := sc.Hash()
	if err != nil {
		return JobView{}, err
	}
	// Validate up front so malformed scenarios never occupy a queue slot
	// and errors surface synchronously.
	if _, err := sc.Params(); err != nil {
		return JobView{}, fmt.Errorf("service: invalid scenario: %w", err)
	}
	tenant := TenantFrom(ctx, m.cfg.DefaultTenant)

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return JobView{}, ErrShuttingDown
	}
	m.metrics.Submitted.Add(1)
	m.perTenant.onSubmit(tenant)

	if twin, ok := m.byHash[hash]; ok {
		m.metrics.DedupHits.Add(1)
		obs.AddEvent(ctx, "service.dedup",
			obs.String("job", twin.id), obs.String("scenario", hash))
		return twin.view(), nil
	}
	if res, ok := m.cache.Get(hash); ok {
		m.metrics.CacheHits.Add(1)
		obs.AddEvent(ctx, "service.cache-hit", obs.String("scenario", hash))
		return m.bornDoneLocked(ctx, sc, hash, tenant, "memory", res), nil
	}
	m.metrics.CacheMisses.Add(1)
	obs.AddEvent(ctx, "service.cache-miss", obs.String("scenario", hash))
	if m.cfg.Store != nil {
		if res, ok := m.storeGet(hash); ok {
			m.metrics.StoreHits.Add(1)
			obs.AddEvent(ctx, "service.store-hit", obs.String("scenario", hash))
			// Backfill the LRU so the next submitter skips the disk read.
			m.cache.Put(hash, res)
			return m.bornDoneLocked(ctx, sc, hash, tenant, "store", res), nil
		}
		m.metrics.StoreMisses.Add(1)
		obs.AddEvent(ctx, "service.store-miss", obs.String("scenario", hash))
	}
	// Every local tier missed: claim the scenario fleet-wide before it
	// occupies a queue slot. A peer-held claim fails the submission with
	// the holder's URL so the HTTP layer can redirect.
	if err := m.fleetClaimLocked(sc, hash); err != nil {
		var peer *PeerClaimedError
		if errors.As(err, &peer) {
			obs.AddEvent(ctx, "service.peer-claimed",
				obs.String("scenario", hash), obs.String("peer", peer.URL))
		}
		return JobView{}, err
	}
	// A peer may have persisted the result and released its claim between
	// the store miss above and our claim. Re-check under the claim, so a
	// scenario is evaluated at most once fleet-wide.
	if m.cfg.Fleet != nil {
		if res, ok := m.storeGet(hash); ok {
			m.fleetRelease(hash)
			m.metrics.StoreHits.Add(1)
			obs.AddEvent(ctx, "service.store-hit", obs.String("scenario", hash))
			m.cache.Put(hash, res)
			return m.bornDoneLocked(ctx, sc, hash, tenant, "store", res), nil
		}
	}

	j := m.newJobLocked(ctx, sc, hash)
	j.tenant = tenant
	if err := m.queue.push(j); err != nil {
		m.metrics.QueueRejects.Add(1)
		m.perTenant.onReject(tenant)
		obs.AddEvent(ctx, "service.admission-rejected",
			obs.String("tenant", tenant), obs.String("reason", err.Error()))
		j.cancel()
		// The claim was taken for a job that will never run; free it so a
		// peer with queue headroom can pick the scenario up immediately.
		m.fleetRelease(hash)
		return JobView{}, err
	}
	m.metrics.QueueDepth.Add(1)
	m.perTenant.addDepth(tenant, 1)
	obs.AddEvent(ctx, "service.admitted",
		obs.String("job", j.id), obs.String("tenant", tenant))
	m.jobs[j.id] = j
	m.byHash[hash] = j
	return j.view(), nil
}

// bornDoneLocked materializes an immediately-done job around a result
// served from a cache tier; m.mu must be held. The cache is keyed by the
// canonical hash, which ignores the cosmetic name — a sweep point and a
// direct submission share one entry. Hand each submitter the result under
// its own name so a shared entry never mislabels a point.
func (m *Manager) bornDoneLocked(ctx context.Context, sc *config.Scenario, hash, tenant, tier string, res *Result) JobView {
	if res.Name != sc.Name {
		relabeled := *res
		relabeled.Name = sc.Name
		res = &relabeled
	}
	j := m.newJobLocked(ctx, sc, hash)
	j.tenant = tenant
	j.cached = true
	j.tier = tier
	j.result = res
	j.status = StatusDone
	j.finished = j.submitted
	j.batchesDone.Store(res.Batches)
	j.maxBatches.Store(res.Batches)
	close(j.done)
	j.cancel() // born terminal: release the context immediately
	m.jobs[j.id] = j
	m.rememberFinishedLocked(j.id)
	return j.view()
}

// newJobLocked allocates a job record; m.mu must be held. submitCtx only
// contributes the submitter's trace identity — the job's lifecycle context
// derives from the manager's base context, not the request's.
func (m *Manager) newJobLocked(submitCtx context.Context, sc *config.Scenario, hash string) *job {
	m.nextID++
	ctx, cancel := context.WithCancel(m.baseCtx)
	trace, _ := obs.ContextSpanContext(submitCtx)
	return &job{
		id:        fmt.Sprintf("job-%d", m.nextID),
		hash:      hash,
		scenario:  sc,
		trace:     trace,
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		status:    StatusQueued,
		submitted: time.Now(),
	}
}

// Job returns a snapshot of the job, or ErrUnknownJob.
func (m *Manager) Job(id string) (JobView, error) {
	j, err := m.lookup(id)
	if err != nil {
		return JobView{}, err
	}
	return j.view(), nil
}

// Result returns the job's result once it is done. The view carries the
// authoritative status; result is nil unless Status == StatusDone.
func (m *Manager) Result(id string) (*Result, JobView, error) {
	j, err := m.lookup(id)
	if err != nil {
		return nil, JobView{}, err
	}
	j.mu.Lock()
	res := j.result
	j.mu.Unlock()
	return res, j.view(), nil
}

// Cancel requests cancellation of a queued or running job. Queued jobs
// settle immediately; running jobs stop within one simulation batch. It is
// a no-op on terminal jobs.
func (m *Manager) Cancel(id string) (JobView, error) {
	j, err := m.lookup(id)
	if err != nil {
		return JobView{}, err
	}
	j.cancel()
	// A queued job has no worker to notice the cancelled context; settle
	// it here so pollers see the terminal state right away. The worker
	// that eventually drains it skips non-queued jobs.
	m.finishIf(j, StatusQueued, StatusCancelled, nil, context.Canceled)
	return j.view(), nil
}

// Wait blocks until the job reaches a terminal status or ctx expires.
func (m *Manager) Wait(ctx context.Context, id string) (JobView, error) {
	j, err := m.lookup(id)
	if err != nil {
		return JobView{}, err
	}
	select {
	case <-j.done:
		return j.view(), nil
	case <-ctx.Done():
		return JobView{}, ctx.Err()
	}
}

// Metrics exposes the manager's live counters.
func (m *Manager) Metrics() *Metrics { return &m.metrics }

// Registry exposes the telemetry registry the manager's metrics (and, with
// the default evaluation, the simulation engine's) are registered on. The
// HTTP layer serves it at GET /metrics.
func (m *Manager) Registry() *telemetry.Registry { return m.cfg.Telemetry }

// Backend reports the execution backend's health (see Config.Backend).
func (m *Manager) Backend() BackendHealth {
	if m.cfg.Backend == nil {
		return BackendHealth{Mode: "local", Ready: true}
	}
	return m.cfg.Backend()
}

// CacheLen reports the number of cached results.
func (m *Manager) CacheLen() int { return m.cache.Len() }

func (m *Manager) lookup(id string) (*job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	return j, nil
}

// Shutdown stops accepting submissions, lets workers drain every queued
// and in-flight job, and returns when they are all terminal. If ctx
// expires first, all remaining jobs are cancelled (they stop within one
// batch) and ctx.Err() is returned after the pool exits.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	alreadyClosed := m.closed
	m.closed = true
	m.mu.Unlock()
	if !alreadyClosed {
		m.queue.close()
	}

	drained := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		m.baseCancel()
		<-drained
		return ctx.Err()
	}
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		j, ok := m.queue.pop()
		if !ok {
			return
		}
		m.metrics.QueueDepth.Add(-1)
		m.perTenant.addDepth(j.tenant, -1)
		m.runJob(j)
	}
}

func (m *Manager) runJob(j *job) {
	j.mu.Lock()
	if j.status != StatusQueued {
		// Cancelled while queued and already settled.
		j.mu.Unlock()
		return
	}
	j.status = StatusRunning
	j.started = time.Now()
	j.mu.Unlock()

	m.metrics.Running.Add(1)
	defer m.metrics.Running.Add(-1)

	ctx := j.ctx
	if m.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, m.cfg.JobTimeout)
		defer cancel()
	}
	// Re-join the submitter's trace: the job context descends from the
	// manager's base context, so the trace identity has to be re-attached
	// explicitly before starting the run span.
	ctx = obs.ContextWithRemote(ctx, m.cfg.Tracer, j.trace)
	ctx, span := obs.Start(ctx, "service.job",
		obs.String("job", j.id), obs.String("scenario", j.hash),
		obs.String("tenant", j.tenant))
	defer span.End()
	progress := func(done, max uint64) {
		j.batchesDone.Store(done)
		j.maxBatches.Store(max)
	}
	// Publish partial-curve snapshots for GET /v1/jobs/{id}/stream. The
	// sink travels by context so EvalFunc's signature is unchanged; the
	// default evaluation feeds it after every accumulation round, while
	// backends without a snapshot source (the cluster) simply never call it
	// and streams carry progress only.
	ctx = withSnapshotSink(ctx, func(r *Result) {
		j.snaps.append(r)
	})

	start := time.Now()
	res, err := m.cfg.Eval(ctx, j.scenario, m.cfg.WorkersPerJob, progress)
	elapsed := time.Since(start)
	span.RecordError(err)

	switch {
	case err == nil:
		m.cache.Put(j.hash, res)
		m.persistResult(j.hash, res)
		m.metrics.EvalMillis.Add(uint64(elapsed.Milliseconds()))
		m.metrics.BatchesSimulated.Add(res.Batches)
		m.finishIf(j, StatusRunning, StatusDone, res, nil)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		m.finishIf(j, StatusRunning, StatusCancelled, nil, err)
	default:
		m.finishIf(j, StatusRunning, StatusFailed, nil, err)
	}
}

// finishIf atomically moves the job from one status to a terminal one; it
// is the only place jobs reach terminal states, so done closes exactly
// once and the outcome counters stay consistent. It holds m.mu throughout
// and closes done last, so whoever Waits for the job sees its outcome
// counted, its claim released and the job out of the by-hash index (a
// submission that follows a Wait never deduplicates onto it).
func (m *Manager) finishIf(j *job, from, to Status, res *Result, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j.mu.Lock()
	if j.status != from {
		j.mu.Unlock()
		return
	}
	j.status = to
	j.result = res
	if err != nil {
		j.errMsg = err.Error()
	}
	j.finished = time.Now()
	j.mu.Unlock()
	// Release the job's context registration on the manager's base
	// context; without this every finished job would stay reachable from
	// baseCtx until shutdown — a real leak on a long-lived server.
	j.cancel()

	switch to {
	case StatusDone:
		m.metrics.Completed.Add(1)
		m.perTenant.onComplete(j.tenant)
	case StatusFailed:
		m.metrics.Failed.Add(1)
	case StatusCancelled:
		m.metrics.Cancelled.Add(1)
	}
	// A job that ended without a result still holds its fleet claim
	// (persistResult only releases on success); free it so peers can
	// re-claim now instead of waiting out the TTL. Done jobs released
	// inside PutResult — after the result was durable, never before.
	if to != StatusDone {
		m.fleetRelease(j.hash)
	}

	if m.byHash[j.hash] == j {
		delete(m.byHash, j.hash)
	}
	m.rememberFinishedLocked(j.id)
	close(j.done)
}

// traceIDOf renders a span context's trace ID, or "" for the zero value.
func traceIDOf(sc obs.SpanContext) string {
	if !sc.Valid() {
		return ""
	}
	return sc.TraceID.String()
}

// rememberFinishedLocked records a terminal job for history pruning;
// m.mu must be held.
func (m *Manager) rememberFinishedLocked(id string) {
	m.finished = append(m.finished, id)
	for len(m.finished) > m.cfg.HistorySize {
		delete(m.jobs, m.finished[0])
		m.finished = m.finished[1:]
	}
}
