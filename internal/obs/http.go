package obs

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Middleware wraps an HTTP handler in a server span named after route,
// extracting an inbound traceparent header so cross-process traces stay
// joined. When the tracer's Config.Logger is set, every request also emits
// one access line logged under the traced context, so the trace-aware
// LogHandler stamps it with trace_id/span_id. With a nil tracer it returns
// next unchanged, so mounting code never branches on whether tracing is
// configured.
func Middleware(t *Tracer, route string, next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		if tp := r.Header.Get(TraceParentHeader); tp != "" {
			if sc, err := ParseTraceParent(tp); err == nil {
				ctx = ContextWithRemote(ctx, t, sc)
			}
		}
		ctx, span := t.Start(ctx, route,
			String("http.method", r.Method),
			String("http.path", r.URL.Path),
		)
		defer span.End()
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(ctx))
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		span.SetAttr("http.status", strconv.Itoa(status))
		if lg := t.cfg.Logger; lg != nil {
			lg.LogAttrs(ctx, slog.LevelInfo, "http request",
				slog.String("method", r.Method),
				slog.String("route", route),
				slog.Int("status", status),
				slog.Duration("duration", time.Since(start)),
			)
		}
	})
}

// statusWriter captures the response status for the server span.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap exposes the wrapped writer so http.ResponseController reaches
// the underlying Flusher/deadline methods through the middleware —
// without it, streaming handlers (SSE) cannot flush on traced routes.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// DebugHandler serves the recorder over HTTP:
//
//	GET <prefix>          — JSON list of recorded traces, newest first
//	GET <prefix>/{id}     — one trace as a JSON span log or Chrome trace
//	                        (?format=chrome for Perfetto)
//
// Mount it at /debug/traces. A nil tracer serves 404s.
func DebugHandler(t *Tracer, prefix string) http.Handler {
	prefix = strings.TrimSuffix(prefix, "/")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		rest := strings.Trim(strings.TrimPrefix(r.URL.Path, prefix), "/")
		if rest == "" {
			if t == nil {
				http.Error(w, "tracing disabled", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(t.Traces())
			return
		}
		ServeTrace(t, rest)(w, r)
	})
}

// ServeTrace returns a handler serving one recorded trace by hex ID:
// JSON TraceData by default, Chrome-trace JSON with ?format=chrome. It
// backs both /debug/traces/{id} and the service's /v1/jobs/{id}/trace.
func ServeTrace(t *Tracer, id string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		td, ok := t.Trace(id)
		if !ok {
			http.Error(w, "trace not found (unsampled, evicted, or tracing disabled)", http.StatusNotFound)
			return
		}
		if r.URL.Query().Get("format") == "chrome" {
			w.Header().Set("Content-Type", "application/json")
			if err := WriteChromeTrace(w, td); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		enc.Encode(td)
	}
}
