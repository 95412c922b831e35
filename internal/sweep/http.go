package sweep

import (
	"errors"
	"net/http"
	"time"

	"ahs/internal/service"
)

// maxSpecBytes bounds the request body of POST /v1/sweeps; even a spec
// with hundreds of explicit levels is a few KiB.
const maxSpecBytes = 1 << 20

// submitResponse acknowledges a sweep submission.
type submitResponse struct {
	ID           string `json:"id"`
	Status       Status `json:"status"`
	Points       int    `json:"points"`
	UniquePoints int    `json:"uniquePoints"`
	Deduped      int    `json:"deduped"`
	StatusURL    string `json:"statusUrl"`
	ResultsURL   string `json:"resultsUrl"`
	ReportURL    string `json:"reportUrl"`
}

// NewHandler exposes the engine over the HTTP JSON API mounted by
// cmd/ahs-serve under /v1/sweeps; docs/api.md documents the endpoints.
// Routes mount through service.Router, so they share the service's
// ahs_http_request_duration_seconds histogram family and one scrape
// covers evaluate and sweep latency alike.
func NewHandler(e *Engine) http.Handler {
	s := &server{e: e}
	mux := http.NewServeMux()
	handle := service.Router(mux, e.cfg.Telemetry, e.cfg.Tracer)
	handle("POST /v1/sweeps", s.handleSubmit)
	handle("GET /v1/sweeps", s.handleList)
	handle("GET /v1/sweeps/{id}", s.handleSweep)
	handle("GET /v1/sweeps/{id}/stream", s.handleStream)
	handle("DELETE /v1/sweeps/{id}", s.handleCancel)
	handle("GET /v1/sweeps/{id}/results", s.handleResults)
	handle("GET /v1/sweeps/{id}/report", s.handleReport)
	return mux
}

type server struct {
	e *Engine
}

// handleSubmit accepts a sweep Spec JSON body and answers 202 with the
// sweep ack, 400 on a malformed or invalid spec (including designs beyond
// the point budget) and 503 during shutdown.
func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	sp, err := Load(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		service.WriteError(w, http.StatusBadRequest, err)
		return
	}
	// The tenant rides the submit context, exactly as for single
	// evaluations: every point of the sweep schedules in this lane.
	ctx := service.WithTenant(r.Context(), r.Header.Get(service.TenantHeader))
	view, err := s.e.SubmitCtx(ctx, sp)
	switch {
	case errors.Is(err, ErrShuttingDown):
		service.WriteError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		service.WriteError(w, http.StatusBadRequest, err)
		return
	}
	service.WriteJSON(w, http.StatusAccepted, submitResponse{
		ID:           view.ID,
		Status:       view.Status,
		Points:       view.Points,
		UniquePoints: view.UniquePoints,
		Deduped:      view.Deduped,
		StatusURL:    "/v1/sweeps/" + view.ID,
		ResultsURL:   "/v1/sweeps/" + view.ID + "/results",
		ReportURL:    "/v1/sweeps/" + view.ID + "/report",
	})
}

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	service.WriteJSON(w, http.StatusOK, s.e.Sweeps())
}

func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) {
	view, err := s.e.Sweep(r.PathValue("id"))
	if err != nil {
		service.WriteError(w, http.StatusNotFound, err)
		return
	}
	service.WriteJSON(w, http.StatusOK, view)
}

// handleStream serves GET /v1/sweeps/{id}/stream: an SSE stream of the
// sweep's aggregate life, mirroring the per-job stream. Events:
//
//	progress  sweep View (point counts + aggregate batch progress), on change
//	sweep     terminal View — identical to GET /v1/sweeps/{id} afterwards
//
// The stream ends with exactly one terminal "sweep" event and closes.
func (s *server) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := s.e.Sweep(id); err != nil {
		service.WriteError(w, http.StatusNotFound, err)
		return
	}
	sse, err := service.NewSSEWriter(w)
	if err != nil {
		service.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	var last View
	sent := false
	heartbeat := time.Now()
	ticker := time.NewTicker(service.SSEPollInterval)
	defer ticker.Stop()
	for {
		view, err := s.e.Sweep(id)
		if err != nil {
			// Pruned from history mid-stream; close and let the client re-poll.
			return
		}
		if view.Status.Terminal() {
			_ = sse.Send("sweep", view)
			return
		}
		if !sent || changed(last, view) {
			if err := sse.Send("progress", view); err != nil {
				return
			}
			last, sent = view, true
			heartbeat = time.Now()
		}
		if time.Since(heartbeat) >= service.SSEHeartbeat {
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

// changed reports whether the stream-relevant part of a sweep view moved.
func changed(a, b View) bool {
	return a.Status != b.Status ||
		a.Completed != b.Completed ||
		a.Failed != b.Failed ||
		a.Cancelled != b.Cancelled ||
		a.Progress != b.Progress
}

func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	view, err := s.e.Cancel(r.PathValue("id"))
	if err != nil {
		service.WriteError(w, http.StatusNotFound, err)
		return
	}
	service.WriteJSON(w, http.StatusOK, view)
}

func (s *server) handleResults(w http.ResponseWriter, r *http.Request) {
	results, err := s.e.Results(r.PathValue("id"))
	if err != nil {
		service.WriteError(w, http.StatusNotFound, err)
		return
	}
	service.WriteJSON(w, http.StatusOK, results)
}

// handleReport renders the live response surface as HTML; a sweep still
// running renders its completed region (the page says so via the figure's
// point counts, and re-fetching refreshes it).
func (s *server) handleReport(w http.ResponseWriter, r *http.Request) {
	rec, err := s.e.lookup(r.PathValue("id"))
	if err != nil {
		service.WriteError(w, http.StatusNotFound, err)
		return
	}
	results, err := s.e.Results(rec.id)
	if err != nil {
		service.WriteError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = WriteReport(w, rec.spec, results)
}
