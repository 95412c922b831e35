package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ahs/internal/config"
	"ahs/internal/obs"
	"ahs/internal/rng"
	"ahs/internal/telemetry"
)

// maxScenarioBytes bounds the request body of POST /v1/evaluate; scenario
// files are a few hundred bytes, so 1 MiB is generous.
const maxScenarioBytes = 1 << 20

// TenantHeader names the request header carrying the submitting tenant's
// identity for fair-share scheduling and per-tenant quotas; absent or
// empty, the server's default tenant applies.
const TenantHeader = "X-AHS-Tenant"

// evaluateResponse acknowledges a submission.
type evaluateResponse struct {
	ID        string `json:"id"`
	Status    Status `json:"status"`
	Cached    bool   `json:"cached"`
	StatusURL string `json:"statusUrl"`
	ResultURL string `json:"resultUrl"`
	// TraceID names the distributed trace recording this job; empty when
	// tracing is off or the request was head-sampled out.
	TraceID  string `json:"traceId,omitempty"`
	TraceURL string `json:"traceUrl,omitempty"`
}

// errorResponse is the uniform error envelope.
type errorResponse struct {
	Error string `json:"error"`
}

// maxRetryAfterSeconds caps the jittered Retry-After advice on 429
// responses.
const maxRetryAfterSeconds = 8

// retryAfterSeconds maps one uniform draw u ∈ [0,1) to full-jitter
// Retry-After advice in whole seconds: uniformly 1..maxRetryAfterSeconds
// rather than a constant, so a thundering herd bounced by a quota or a
// full queue respreads instead of returning in lockstep. Pure in u for
// the property test; the handler draws u from its jitter stream.
func retryAfterSeconds(u float64) int {
	s := 1 + int(u*maxRetryAfterSeconds)
	if s < 1 {
		s = 1
	}
	if s > maxRetryAfterSeconds {
		s = maxRetryAfterSeconds
	}
	return s
}

// setRetryAfter stamps the jittered advice on a 429/409. Retry-After is
// operational backoff, not an estimate, so drawing from a wall-clock
// seeded stream does not touch result reproducibility (the simulation's
// randomness all flows through seeded per-trajectory streams).
func (s *server) setRetryAfter(w http.ResponseWriter) {
	s.jitterMu.Lock()
	u := s.jitter.Float64()
	s.jitterMu.Unlock()
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(u)))
}

// NewHandler exposes the manager over the HTTP JSON API served by
// cmd/ahs-serve; docs/api.md documents the endpoints. Every API route is
// mounted through Router, and the manager's registry is served at GET
// /metrics in the Prometheus text format. The handler is safe for
// concurrent use and carries no state beyond the manager.
func NewHandler(m *Manager) http.Handler {
	s := &server{m: m, jitter: rng.NewStream(uint64(time.Now().UnixNano()))}
	reg := m.Registry()
	mux := http.NewServeMux()
	tracer := m.cfg.Tracer
	handle := Router(mux, reg, tracer)
	handle("POST /v1/evaluate", s.handleEvaluate)
	handle("GET /v1/jobs/{id}", s.handleJob)
	handle("GET /v1/jobs/{id}/stream", s.handleJobStream)
	handle("GET /v1/scenarios/{hash}", s.handleScenario)
	handle("GET /v1/scenarios/{hash}/stream", s.handleScenarioStream)
	handle("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	handle("DELETE /v1/jobs/{id}", s.handleCancel)
	handle("GET /v1/results/{id}", s.handleResult)
	handle("GET /healthz", s.handleHealth)
	mux.Handle("GET /metrics", reg.Handler())
	mux.Handle("GET /debug/traces", obs.DebugHandler(tracer, "/debug/traces"))
	mux.Handle("GET /debug/traces/{id...}", obs.DebugHandler(tracer, "/debug/traces"))
	return mux
}

// Router returns the function the evaluation and sweep APIs mount their
// routes on mux with. Each route runs under obs.Middleware and is timed
// into the ahs_http_request_duration_seconds histogram on reg, one series
// per route pattern, so one scrape covers evaluate and sweep latency alike.
func Router(mux *http.ServeMux, reg *telemetry.Registry, tracer *obs.Tracer) func(pattern string, h http.HandlerFunc) {
	latency := reg.HistogramVec(telemetry.Opts{
		Name: "ahs_http_request_duration_seconds",
		Help: "API request latency by route pattern.",
		// Sub-millisecond to ~half a minute.
		Buckets: telemetry.ExponentialBuckets(0.0005, 4, 9),
	}, "endpoint")
	return func(pattern string, h http.HandlerFunc) {
		// Eager: the series exists before traffic.
		hist := latency.With(pattern) //ahsvet:ignore locklabel patterns are the compile-time route literals of the API handlers
		traced := obs.Middleware(tracer, pattern, h)
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			traced.ServeHTTP(w, r)
			hist.Observe(time.Since(start).Seconds())
		})
	}
}

type server struct {
	m *Manager
	// jitter feeds Retry-After advice; mutex-guarded because handlers
	// run concurrently and rng streams are single-goroutine.
	jitterMu sync.Mutex
	jitter   *rng.Stream
}

// WriteJSON answers code with v as indented JSON.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError answers code with the uniform {"error": ...} envelope.
func WriteError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, errorResponse{Error: err.Error()})
}

// handleEvaluate accepts a config.Scenario JSON body and answers 200 with
// a done job (cache hit), 202 with a queued job, 400 on a malformed or
// invalid scenario, 429 (with jittered Retry-After) when the queue or the
// tenant's quota is full, 307 when a fleet peer already claimed the
// scenario, and 503 during shutdown.
func (s *server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	sc, err := config.Load(http.MaxBytesReader(w, r.Body, maxScenarioBytes))
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	// The tenant rides the submit context; absent header means the
	// manager's default tenant. Admission (quota, fair-share lane) is the
	// manager's call.
	ctx := WithTenant(r.Context(), r.Header.Get(TenantHeader))
	view, err := s.m.SubmitCtx(ctx, sc)
	var peer *PeerClaimedError
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrTenantQuota):
		s.setRetryAfter(w)
		WriteError(w, http.StatusTooManyRequests, err)
		return
	case errors.As(err, &peer):
		// A live peer owns this scenario. 307 preserves the method and
		// body, so a standard client re-POSTs the identical scenario to
		// the owner and lands on the in-flight job there. A holder that
		// advertised no URL cannot be redirected to; advise a retry — by
		// then the claim has either expired or produced a stored result.
		if peer.URL == "" {
			s.setRetryAfter(w)
			WriteError(w, http.StatusConflict, err)
			return
		}
		w.Header().Set("Location", peer.URL+"/v1/evaluate")
		WriteError(w, http.StatusTemporaryRedirect, err)
		return
	case errors.Is(err, ErrShuttingDown):
		WriteError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	code := http.StatusAccepted
	if view.Status == StatusDone {
		code = http.StatusOK
	}
	resp := evaluateResponse{
		ID:        view.ID,
		Status:    view.Status,
		Cached:    view.Cached,
		StatusURL: "/v1/jobs/" + view.ID,
		ResultURL: "/v1/results/" + view.ID,
		TraceID:   view.TraceID,
	}
	if resp.TraceID != "" {
		resp.TraceURL = "/v1/jobs/" + view.ID + "/trace"
	}
	WriteJSON(w, code, resp)
}

// handleJobTrace serves the job's recorded distributed trace: JSON span
// data by default, Chrome-trace JSON (Perfetto-loadable) with
// ?format=chrome. 404 when the job is unknown, was never traced, or its
// trace has been evicted from the recorder ring.
func (s *server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	view, err := s.m.Job(r.PathValue("id"))
	if err != nil {
		WriteError(w, http.StatusNotFound, err)
		return
	}
	if view.TraceID == "" {
		WriteError(w, http.StatusNotFound, fmt.Errorf("service: job %s has no recorded trace", view.ID))
		return
	}
	obs.ServeTrace(s.m.cfg.Tracer, view.TraceID)(w, r)
}

func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	view, err := s.m.Job(r.PathValue("id"))
	if err != nil {
		WriteError(w, http.StatusNotFound, err)
		return
	}
	WriteJSON(w, http.StatusOK, view)
}

func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	view, err := s.m.Cancel(r.PathValue("id"))
	if err != nil {
		WriteError(w, http.StatusNotFound, err)
		return
	}
	WriteJSON(w, http.StatusOK, view)
}

// handleResult maps job states to codes: 200 done (the Result), 202 still
// queued/running (the JobView), 410 cancelled, 500 failed, 404 unknown.
func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	res, view, err := s.m.Result(r.PathValue("id"))
	if err != nil {
		WriteError(w, http.StatusNotFound, err)
		return
	}
	switch view.Status {
	case StatusDone:
		WriteJSON(w, http.StatusOK, res)
	case StatusCancelled:
		WriteError(w, http.StatusGone, fmt.Errorf("service: job %s was cancelled", view.ID))
	case StatusFailed:
		WriteError(w, http.StatusInternalServerError, fmt.Errorf("service: job %s failed: %s", view.ID, view.Error))
	default:
		WriteJSON(w, http.StatusAccepted, view)
	}
}

// scenarioResponse answers the by-hash lookups: the live job when this
// instance is evaluating the scenario, the stored result when any fleet
// member already finished it.
type scenarioResponse struct {
	ScenarioHash string   `json:"scenarioHash"`
	Status       Status   `json:"status"`
	Job          *JobView `json:"job,omitempty"`
	Result       *Result  `json:"result,omitempty"`
}

// handleScenario serves GET /v1/scenarios/{hash}: the canonical-hash
// view of a scenario, independent of which instance ran it. A live
// local job answers with its JobView; otherwise the result tiers
// (memory, then the shared store — where peers' results land) answer
// with the finished Result; otherwise 404. Submitters bounced to a peer
// by a 307 poll here to pick the result up without re-submitting.
func (s *server) handleScenario(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if view, ok := s.m.JobByHash(hash); ok {
		WriteJSON(w, http.StatusOK, scenarioResponse{
			ScenarioHash: hash, Status: view.Status, Job: &view,
		})
		return
	}
	if res, ok := s.m.StoredResult(hash); ok {
		WriteJSON(w, http.StatusOK, scenarioResponse{
			ScenarioHash: hash, Status: StatusDone, Result: res,
		})
		return
	}
	WriteError(w, http.StatusNotFound,
		fmt.Errorf("service: no job or stored result for scenario %s", hash))
}

// handleScenarioStream serves GET /v1/scenarios/{hash}/stream: the SSE
// stream for whatever this instance knows about the scenario. A live
// local job streams exactly like /v1/jobs/{id}/stream (Last-Event-ID
// honored); a stored result streams as a single terminal result event;
// otherwise 404.
func (s *server) handleScenarioStream(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if view, ok := s.m.JobByHash(hash); ok {
		s.streamJob(w, r, view.ID)
		return
	}
	if res, ok := s.m.StoredResult(hash); ok {
		sse, err := NewSSEWriter(w)
		if err != nil {
			WriteError(w, http.StatusInternalServerError, err)
			return
		}
		_ = sse.Send("result", res)
		return
	}
	WriteError(w, http.StatusNotFound,
		fmt.Errorf("service: no job or stored result for scenario %s", hash))
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	met := s.m.Metrics()
	body := map[string]any{
		"status":     "ok",
		"queueDepth": met.QueueDepth.Value(),
		"running":    met.Running.Value(),
		"backend":    s.m.Backend(),
	}
	if s.m.cfg.ExtraHealth != nil {
		for k, v := range s.m.cfg.ExtraHealth() {
			body[k] = v
		}
	}
	WriteJSON(w, http.StatusOK, body)
}
