package sweep

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"ahs/internal/obs"
	"ahs/internal/service"
	"ahs/internal/telemetry"
)

// Sentinel errors surfaced by the engine; the HTTP layer maps them to
// status codes.
var (
	ErrUnknownSweep  = errors.New("sweep: unknown sweep id")
	ErrTooManyPoints = errors.New("sweep: design expands to more points than the engine allows")
	ErrShuttingDown  = errors.New("sweep: engine is shutting down")
	// ErrInvalidPoint means an expanded point's scenario fails static
	// parameter validation; the whole sweep is rejected at submission,
	// before any job is created. Runtime evaluation failures, by contrast,
	// fail only their point (partial-failure contract).
	ErrInvalidPoint = errors.New("sweep: design expands to an invalid scenario")
)

// Status is the lifecycle state of a sweep.
type Status string

const (
	// StatusRunning means points are still being scheduled or evaluated.
	StatusRunning Status = "running"
	// StatusDone means every point completed with a result.
	StatusDone Status = "done"
	// StatusPartial means the sweep finished but some points failed or
	// were cancelled — the partial-failure contract: a poisoned point
	// fails that point, never the sweep.
	StatusPartial Status = "partial"
	// StatusCancelled means the sweep was cancelled before finishing.
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool { return s != StatusRunning }

// PointStatus is the lifecycle state of one design point.
type PointStatus string

const (
	PointPending   PointStatus = "pending"   // not yet submitted (bounded fan-out)
	PointScheduled PointStatus = "scheduled" // submitted; queued or running in the job manager
	PointDone      PointStatus = "done"
	PointFailed    PointStatus = "failed"
	PointCancelled PointStatus = "cancelled"
)

// retryInterval is the pause before retrying a point submission bounced
// by a full manager queue or the tenant's quota.
const retryInterval = 50 * time.Millisecond

// Config sizes the engine. Manager is required; everything else defaults.
type Config struct {
	// Manager executes the expanded points. Sweep points share its
	// deduplication, cache and backend (local or cluster) with direct
	// /v1/evaluate submissions.
	Manager *service.Manager
	// Telemetry is the registry for the ahs_sweep_* families; nil means
	// the manager's registry, so GET /metrics carries both.
	Telemetry *telemetry.Registry
	// MaxInFlight bounds concurrently submitted points per sweep when the
	// spec doesn't set its own (default 4).
	MaxInFlight int
	// MaxPoints rejects designs that expand beyond it (default 4096).
	MaxPoints int
	// HistorySize bounds how many finished sweeps stay pollable (default 64).
	HistorySize int
	// Tracer, when non-nil, re-attaches each sweep's run to the
	// submitter's trace so expansion, dedup and every point submission
	// appear under one distributed trace. Nil disables sweep spans.
	Tracer *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.Telemetry == nil && c.Manager != nil {
		c.Telemetry = c.Manager.Registry()
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4
	}
	if c.MaxPoints <= 0 {
		c.MaxPoints = 4096
	}
	if c.HistorySize <= 0 {
		c.HistorySize = 64
	}
	return c
}

// pointRec is the mutable server-side record of one design point.
type pointRec struct {
	Point

	mu     sync.Mutex
	status PointStatus
	jobID  string
	result *service.Result
	errMsg string
}

func (p *pointRec) view() PointView {
	p.mu.Lock()
	defer p.mu.Unlock()
	v := PointView{
		Index:        p.Index,
		Label:        p.Label,
		Coords:       p.Coords,
		ScenarioHash: p.Hash,
		DedupOf:      p.DedupOf,
		Status:       p.status,
		JobID:        p.jobID,
		Error:        p.errMsg,
	}
	return v
}

// PointView is an immutable snapshot of a design point for API responses.
type PointView struct {
	Index        int         `json:"index"`
	Label        string      `json:"label"`
	Coords       []Coord     `json:"coords"`
	ScenarioHash string      `json:"scenarioHash"`
	DedupOf      int         `json:"dedupOf"` // -1 when scheduled itself
	Status       PointStatus `json:"status"`
	JobID        string      `json:"jobId,omitempty"`
	Error        string      `json:"error,omitempty"`
}

// PointResult couples a point's coordinates with its evaluation result.
type PointResult struct {
	Index  int             `json:"index"`
	Label  string          `json:"label"`
	Coords []Coord         `json:"coords"`
	Status PointStatus     `json:"status"`
	Result *service.Result `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// View is a snapshot of a sweep for API responses. Points is populated
// only by Engine.Sweep (the detail endpoint), not the list endpoint.
type View struct {
	ID           string           `json:"id"`
	Name         string           `json:"name"`
	Design       string           `json:"design"`
	Status       Status           `json:"status"`
	Points       int              `json:"points"`
	UniquePoints int              `json:"uniquePoints"`
	Deduped      int              `json:"deduped"`
	Completed    int              `json:"completed"`
	Failed       int              `json:"failed"`
	Cancelled    int              `json:"cancelled"`
	Progress     service.Progress `json:"progress"`
	SubmittedAt  string           `json:"submittedAt,omitempty"`
	FinishedAt   string           `json:"finishedAt,omitempty"`
	PointViews   []PointView      `json:"pointViews,omitempty"`
}

// sweepRec is the mutable server-side record of one sweep.
type sweepRec struct {
	id     string
	spec   *Spec
	design *Design
	points []*pointRec

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
	// trace is the submitter's span context, captured at SubmitCtx time;
	// the sweep outlives the submitting request, so run re-attaches to it
	// explicitly rather than holding the request context.
	trace obs.SpanContext
	// tenant is the submitter's tenant, captured like trace and re-applied
	// to every point submission, so a sweep's fan-out is scheduled and
	// accounted under the tenant that asked for it.
	tenant string

	mu        sync.Mutex
	status    Status
	submitted time.Time
	finished  time.Time
}

// Engine expands sweep specs and drives their points through the job
// manager with bounded fan-out. Create with NewEngine, stop with Close.
type Engine struct {
	cfg     Config
	metrics Metrics

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	nextID   uint64
	sweeps   map[string]*sweepRec
	finished []string // terminal sweep ids, oldest first, for pruning
}

// NewEngine returns an engine scheduling through cfg.Manager.
func NewEngine(cfg Config) *Engine {
	if cfg.Manager == nil {
		panic("sweep: Config.Manager is required")
	}
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	return &Engine{
		cfg:        cfg,
		metrics:    newMetrics(cfg.Telemetry),
		baseCtx:    ctx,
		baseCancel: cancel,
		sweeps:     make(map[string]*sweepRec),
	}
}

// Metrics exposes the engine's live counters.
func (e *Engine) Metrics() *Metrics { return &e.metrics }

// Submit expands the spec, registers the sweep and starts scheduling its
// unique points. It returns once expansion is done; evaluation proceeds in
// the background (poll with Sweep / Wait).
func (e *Engine) Submit(sp *Spec) (View, error) {
	return e.SubmitCtx(context.Background(), sp)
}

// SubmitCtx is Submit carrying the caller's trace context: the sweep's
// background run and every point submission join the submitter's
// distributed trace. ctx is used only for trace correlation — sweep
// lifetime is governed by the engine, not the submitting request.
func (e *Engine) SubmitCtx(sctx context.Context, sp *Spec) (View, error) {
	design, err := sp.Expand()
	if err != nil {
		e.metrics.Rejected.Add(1)
		return View{}, err
	}
	if len(design.Points) > e.cfg.MaxPoints {
		e.metrics.Rejected.Add(1)
		return View{}, fmt.Errorf("%w (%d > %d)", ErrTooManyPoints, len(design.Points), e.cfg.MaxPoints)
	}
	// Pre-validate every unique point's scenario parameters. A design that
	// expands to a statically invalid point (bad strategy code, negative
	// rate, infeasible platoon size) is rejected here, before any job is
	// created; the HTTP layer answers 400. Only runtime failures are left
	// to the per-point partial-failure path.
	for _, idx := range design.Unique {
		if _, err := design.Points[idx].Scenario.Params(); err != nil {
			e.metrics.Rejected.Add(1)
			return View{}, fmt.Errorf("%w: point %d (%s): %v", ErrInvalidPoint, idx, design.Points[idx].Label, err)
		}
	}

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.metrics.Rejected.Add(1)
		return View{}, ErrShuttingDown
	}
	e.nextID++
	ctx, cancel := context.WithCancel(e.baseCtx)
	trace, _ := obs.ContextSpanContext(sctx)
	rec := &sweepRec{
		id:        fmt.Sprintf("sweep-%d", e.nextID),
		spec:      sp,
		design:    design,
		points:    make([]*pointRec, len(design.Points)),
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		trace:     trace,
		tenant:    service.TenantFrom(sctx, ""),
		status:    StatusRunning,
		submitted: time.Now(),
	}
	for i := range design.Points {
		rec.points[i] = &pointRec{Point: design.Points[i], status: PointPending}
	}
	e.sweeps[rec.id] = rec
	e.wg.Add(1)
	e.mu.Unlock()

	e.metrics.Submitted.Add(1)
	e.metrics.PointsExpanded.Add(uint64(len(design.Points)))
	e.metrics.PointsDeduped.Add(uint64(design.Deduped()))
	e.metrics.Active.Add(1)

	go e.run(rec)
	return e.view(rec, false), nil
}

// run drives one sweep to completion: unique points are submitted in
// expansion order under the fan-out bound; deduplicated twins adopt their
// representative's outcome at the end.
func (e *Engine) run(rec *sweepRec) {
	defer e.wg.Done()
	tctx := obs.ContextWithRemote(rec.ctx, e.cfg.Tracer, rec.trace)
	tctx = service.WithTenant(tctx, rec.tenant)
	tctx, span := obs.Start(tctx, "sweep.run",
		obs.String("sweep", rec.id),
		obs.String("points", strconv.Itoa(len(rec.design.Points))),
		obs.String("deduped", strconv.Itoa(rec.design.Deduped())))
	defer span.End()
	maxInFlight := rec.spec.MaxInFlight
	if maxInFlight <= 0 {
		maxInFlight = e.cfg.MaxInFlight
	}
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup

	for _, idx := range rec.design.Unique {
		p := rec.points[idx]
		select {
		case sem <- struct{}{}:
		case <-rec.ctx.Done():
			p.settle(PointCancelled, nil, context.Cause(rec.ctx))
			e.countSettled(PointCancelled)
			continue
		}
		if rec.ctx.Err() != nil {
			<-sem
			p.settle(PointCancelled, nil, context.Cause(rec.ctx))
			e.countSettled(PointCancelled)
			continue
		}
		view, err := e.submitPoint(tctx, rec, p)
		if err != nil {
			// A poisoned point fails that point, not the sweep.
			status := PointFailed
			if errors.Is(err, context.Canceled) || errors.Is(err, service.ErrShuttingDown) {
				status = PointCancelled
			}
			p.settle(status, nil, err)
			e.countSettled(status)
			<-sem
			continue
		}
		p.mu.Lock()
		p.status = PointScheduled
		p.jobID = view.ID
		p.mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			e.awaitPoint(rec, p)
		}()
	}
	wg.Wait()

	// Deduplicated twins share their representative's job and outcome.
	for i := range rec.points {
		p := rec.points[i]
		if p.DedupOf < 0 {
			continue
		}
		twin := rec.points[p.DedupOf]
		twin.mu.Lock()
		status, res, errMsg, jobID := twin.status, twin.result, twin.errMsg, twin.jobID
		twin.mu.Unlock()
		p.mu.Lock()
		p.status, p.result, p.errMsg, p.jobID = status, res, errMsg, jobID
		p.mu.Unlock()
	}

	// Finalize.
	completed, failed, cancelled := 0, 0, 0
	for _, idx := range rec.design.Unique {
		switch rec.points[idx].view().Status {
		case PointDone:
			completed++
		case PointFailed:
			failed++
		case PointCancelled:
			cancelled++
		}
	}
	status := StatusDone
	switch {
	case rec.ctx.Err() != nil:
		status = StatusCancelled
	case failed+cancelled > 0:
		status = StatusPartial
	}
	span.SetAttr("status", string(status))
	rec.mu.Lock()
	rec.status = status
	rec.finished = time.Now()
	elapsed := rec.finished.Sub(rec.submitted)
	rec.mu.Unlock()
	close(rec.done)
	rec.cancel()

	e.metrics.Active.Add(-1)
	e.metrics.Duration.Observe(elapsed.Seconds())

	e.mu.Lock()
	e.finished = append(e.finished, rec.id)
	if over := len(e.finished) - e.cfg.HistorySize; over > 0 {
		for _, id := range e.finished[:over] {
			delete(e.sweeps, id)
		}
		e.finished = append(e.finished[:0:0], e.finished[over:]...)
	}
	e.mu.Unlock()
}

// submitPoint hands one scenario to the job manager, retrying while the
// queue is full — or the sweep's tenant at its quota — so a big design
// never dies to transient backpressure. ctx carries the sweep's span and
// tenant so each point's job links to the trace and schedules in the
// submitting tenant's lane.
func (e *Engine) submitPoint(ctx context.Context, rec *sweepRec, p *pointRec) (service.JobView, error) {
	for {
		view, err := e.cfg.Manager.SubmitCtx(ctx, p.Scenario)
		if !errors.Is(err, service.ErrQueueFull) && !errors.Is(err, service.ErrTenantQuota) {
			return view, err
		}
		select {
		case <-time.After(retryInterval):
		case <-rec.ctx.Done():
			return service.JobView{}, context.Cause(rec.ctx)
		}
	}
}

// awaitPoint blocks until the point's job settles and records the outcome.
func (e *Engine) awaitPoint(rec *sweepRec, p *pointRec) {
	view, err := e.cfg.Manager.Wait(rec.ctx, p.jobID)
	if err != nil {
		// The sweep was cancelled while the job ran on; the job itself
		// keeps its own lifecycle (it may be shared with other clients).
		p.settle(PointCancelled, nil, err)
		e.countSettled(PointCancelled)
		return
	}
	switch view.Status {
	case service.StatusDone:
		res, _, rerr := e.cfg.Manager.Result(p.jobID)
		if rerr != nil || res == nil {
			p.settle(PointFailed, nil, fmt.Errorf("sweep: job %s finished without a result: %v", p.jobID, rerr))
			e.countSettled(PointFailed)
			return
		}
		p.settle(PointDone, res, nil)
		e.countSettled(PointDone)
	case service.StatusCancelled:
		p.settle(PointCancelled, nil, errors.New(view.Error))
		e.countSettled(PointCancelled)
	default: // failed
		p.settle(PointFailed, nil, errors.New(view.Error))
		e.countSettled(PointFailed)
	}
}

func (p *pointRec) settle(status PointStatus, res *service.Result, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.status = status
	p.result = res
	if err != nil {
		p.errMsg = err.Error()
	}
}

func (e *Engine) countSettled(status PointStatus) {
	switch status {
	case PointDone:
		e.metrics.PointsCompleted.Add(1)
	case PointFailed:
		e.metrics.PointsFailed.Add(1)
	case PointCancelled:
		e.metrics.PointsCancelled.Add(1)
	}
}

// view assembles a snapshot; withPoints adds the per-point detail.
func (e *Engine) view(rec *sweepRec, withPoints bool) View {
	rec.mu.Lock()
	v := View{
		ID:           rec.id,
		Name:         rec.spec.Name,
		Design:       rec.spec.Design,
		Status:       rec.status,
		Points:       len(rec.points),
		UniquePoints: len(rec.design.Unique),
		Deduped:      rec.design.Deduped(),
	}
	if v.Design == "" {
		v.Design = DesignGrid
	}
	stamp := func(t time.Time) string {
		if t.IsZero() {
			return ""
		}
		return t.UTC().Format(time.RFC3339Nano)
	}
	v.SubmittedAt = stamp(rec.submitted)
	v.FinishedAt = stamp(rec.finished)
	rec.mu.Unlock()

	for _, idx := range rec.design.Unique {
		p := rec.points[idx]
		pv := p.view()
		switch pv.Status {
		case PointDone:
			v.Completed++
		case PointFailed:
			v.Failed++
		case PointCancelled:
			v.Cancelled++
		}
		// Aggregate batch progress: settled points contribute their final
		// counters, scheduled ones their live job progress.
		if pv.Status == PointDone {
			p.mu.Lock()
			if p.result != nil {
				v.Progress.BatchesDone += p.result.Batches
				v.Progress.MaxBatches += p.result.Batches
			}
			p.mu.Unlock()
		} else if pv.JobID != "" {
			if jv, err := e.cfg.Manager.Job(pv.JobID); err == nil {
				v.Progress.BatchesDone += jv.Progress.BatchesDone
				v.Progress.MaxBatches += jv.Progress.MaxBatches
			}
		}
	}
	if withPoints {
		v.PointViews = make([]PointView, len(rec.points))
		for i, p := range rec.points {
			v.PointViews[i] = p.view()
		}
	}
	return v
}

func (e *Engine) lookup(id string) (*sweepRec, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	rec, ok := e.sweeps[id]
	if !ok {
		return nil, ErrUnknownSweep
	}
	return rec, nil
}

// Sweep returns the detailed snapshot of one sweep.
func (e *Engine) Sweep(id string) (View, error) {
	rec, err := e.lookup(id)
	if err != nil {
		return View{}, err
	}
	return e.view(rec, true), nil
}

// Sweeps lists summaries of all pollable sweeps, oldest first.
func (e *Engine) Sweeps() []View {
	e.mu.Lock()
	recs := make([]*sweepRec, 0, len(e.sweeps))
	for _, rec := range e.sweeps {
		recs = append(recs, rec)
	}
	e.mu.Unlock()
	sortViewsByID(recs)
	views := make([]View, len(recs))
	for i, rec := range recs {
		views[i] = e.view(rec, false)
	}
	return views
}

// Results returns the per-point outcomes (deduplicated twins included,
// resolved to their representative's result once the sweep finishes).
func (e *Engine) Results(id string) ([]PointResult, error) {
	rec, err := e.lookup(id)
	if err != nil {
		return nil, err
	}
	out := make([]PointResult, len(rec.points))
	for i, p := range rec.points {
		p.mu.Lock()
		out[i] = PointResult{
			Index:  p.Index,
			Label:  p.Label,
			Coords: p.Coords,
			Status: p.status,
			Result: p.result,
			Error:  p.errMsg,
		}
		p.mu.Unlock()
	}
	return out, nil
}

// Cancel stops scheduling new points of the sweep and marks it cancelled.
// Jobs already submitted are left to settle on their own: they may be
// shared with other sweeps or direct /v1/evaluate clients, so the engine
// never cancels manager jobs it does not exclusively own.
func (e *Engine) Cancel(id string) (View, error) {
	rec, err := e.lookup(id)
	if err != nil {
		return View{}, err
	}
	rec.cancel()
	return e.view(rec, false), nil
}

// Wait blocks until the sweep reaches a terminal status or ctx expires.
func (e *Engine) Wait(ctx context.Context, id string) (View, error) {
	rec, err := e.lookup(id)
	if err != nil {
		return View{}, err
	}
	select {
	case <-rec.done:
		return e.view(rec, false), nil
	case <-ctx.Done():
		return View{}, ctx.Err()
	}
}

// Close cancels every running sweep and waits for their goroutines (or for
// ctx). Call after the manager has drained so settled jobs resolve points
// rather than cancelling them.
func (e *Engine) Close(ctx context.Context) error {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.baseCancel()
	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// sortViewsByID orders sweep records by numeric id suffix (creation order).
func sortViewsByID(recs []*sweepRec) {
	sort.Slice(recs, func(i, j int) bool { return idNum(recs[i].id) < idNum(recs[j].id) })
}

func idNum(id string) uint64 {
	var n uint64
	fmt.Sscanf(id, "sweep-%d", &n)
	return n
}
