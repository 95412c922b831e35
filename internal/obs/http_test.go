package obs

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ahs/internal/trace"
)

// traceIDOf returns the hex trace ID of the span or remote link in ctx,
// or "".
func traceIDOf(ctx context.Context) string {
	if sc, ok := ContextSpanContext(ctx); ok {
		return sc.TraceID.String()
	}
	return ""
}

// stampTraceParent sets the traceparent header from the request's
// context the way the cluster worker does: only for a sampled span.
func stampTraceParent(req *http.Request) {
	if sc, ok := ContextSpanContext(req.Context()); ok && sc.Sampled {
		req.Header.Set(TraceParentHeader, sc.TraceParent())
	}
}

func TestMiddlewareAndTransportPropagate(t *testing.T) {
	// Two "processes", each with its own tracer, joined by the traceparent
	// header: client starts a span and stamps the request with it as the
	// cluster worker does, server Middleware adopts the remote context.
	serverTr := NewTracer(Config{})
	var serverTrace string
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serverTrace = traceIDOf(r.Context())
		AddEvent(r.Context(), "handled")
		w.WriteHeader(http.StatusAccepted)
	})
	srv := httptest.NewServer(Middleware(serverTr, "POST /cluster/v1/complete", inner))
	defer srv.Close()

	clientTr := NewTracer(Config{})
	ctx, span := clientTr.Start(context.Background(), "chunk")
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL, nil)
	stampTraceParent(req)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	span.End()

	want := span.Context().TraceID.String()
	if serverTrace != want {
		t.Fatalf("server saw trace %q, want %q", serverTrace, want)
	}
	// The server recorded its span under the client's trace ID.
	td, ok := serverTr.Trace(want)
	if !ok || len(td.Spans) != 1 {
		t.Fatalf("server trace = %+v ok=%v", td, ok)
	}
	sd := td.Spans[0]
	if sd.Name != "POST /cluster/v1/complete" {
		t.Fatalf("server span name = %q", sd.Name)
	}
	if sd.Parent != span.Context().SpanID.String() {
		t.Fatal("server span not parented to client span")
	}
	var status, method string
	for _, a := range sd.Attrs {
		switch a.Key {
		case "http.status":
			status = a.Value
		case "http.method":
			method = a.Value
		}
	}
	if status != "202" || method != "POST" {
		t.Fatalf("server span attrs = %+v", sd.Attrs)
	}
	if len(sd.Events) != 1 || sd.Events[0].Name != "handled" {
		t.Fatalf("server span events = %+v", sd.Events)
	}
}

func TestMiddlewareAccessLog(t *testing.T) {
	// With Config.Logger set, every request emits one access line logged
	// under the traced context, so the trace-aware handler stamps it with
	// the same trace_id the recorder files the server span under.
	var buf strings.Builder
	logger, err := NewLogger(&buf, "json")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer(Config{Logger: logger})
	h := Middleware(tr, "GET /v1/jobs/{id}", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/job-1", nil))

	var line struct {
		Msg     string `json:"msg"`
		Method  string `json:"method"`
		Route   string `json:"route"`
		Status  int    `json:"status"`
		TraceID string `json:"trace_id"`
		SpanID  string `json:"span_id"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &line); err != nil {
		t.Fatalf("access line not JSON: %v\n%s", err, buf.String())
	}
	if line.Msg != "http request" || line.Method != "GET" || line.Route != "GET /v1/jobs/{id}" || line.Status != 200 {
		t.Fatalf("access line = %+v", line)
	}
	if line.TraceID == "" || line.SpanID == "" {
		t.Fatalf("access line missing trace correlation: %+v", line)
	}
	if _, ok := tr.Trace(line.TraceID); !ok {
		t.Fatalf("access line trace_id %q not in recorder", line.TraceID)
	}
}

func TestMiddlewareNilTracerPassThrough(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if traceIDOf(r.Context()) != "" {
			t.Error("nil-tracer middleware injected a trace")
		}
	})
	h := Middleware(nil, "GET /x", inner)
	// Must be the same handler, not a wrapper.
	if _, ok := h.(http.HandlerFunc); !ok {
		t.Fatal("nil tracer should return next unchanged")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/x", nil))
}

func TestTransportSkipsUntracedRequests(t *testing.T) {
	// A request sent without a span carries no traceparent, so the
	// server's Middleware starts a trace of its own.
	serverTr := NewTracer(Config{})
	var gotHeader, serverTrace string
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotHeader = r.Header.Get(TraceParentHeader)
		serverTrace = traceIDOf(r.Context())
	})
	srv := httptest.NewServer(Middleware(serverTr, "GET /x", inner))
	defer srv.Close()
	req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
	stampTraceParent(req)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if gotHeader != "" {
		t.Fatalf("untraced request carried traceparent %q", gotHeader)
	}
	td, ok := serverTr.Trace(serverTrace)
	if !ok || len(td.Spans) != 1 || td.Spans[0].Parent != "" {
		t.Fatalf("server trace = %+v ok=%v, want one root span", td, ok)
	}
}

func TestDebugHandler(t *testing.T) {
	tr := NewTracer(Config{})
	ctx, root := tr.Start(context.Background(), "job")
	_, c := tr.Start(ctx, "chunk")
	c.End()
	root.End()
	id := root.Context().TraceID.String()

	h := DebugHandler(tr, "/debug/traces")

	// Listing.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces", nil))
	var sums []TraceSummary
	if err := json.NewDecoder(rec.Body).Decode(&sums); err != nil {
		t.Fatal(err)
	}
	if len(sums) != 1 || sums[0].TraceID != id || sums[0].Spans != 2 {
		t.Fatalf("listing = %+v", sums)
	}

	// One trace, JSON form.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces/"+id, nil))
	var td TraceData
	if err := json.NewDecoder(rec.Body).Decode(&td); err != nil {
		t.Fatal(err)
	}
	if td.TraceID != id || len(td.Spans) != 2 {
		t.Fatalf("trace body = %+v", td)
	}

	// Chrome form validates.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces/"+id+"?format=chrome", nil))
	if err := trace.ValidateChromeTrace(rec.Body); err != nil {
		t.Fatalf("chrome export: %v", err)
	}

	// Unknown ID.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces/ffff", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown trace: status %d", rec.Code)
	}

	// Wrong method.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/debug/traces", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST: status %d", rec.Code)
	}

	// Disabled tracing.
	rec = httptest.NewRecorder()
	DebugHandler(nil, "/debug/traces").ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("nil tracer listing: status %d", rec.Code)
	}
}

func TestServeTraceBody(t *testing.T) {
	tr := NewTracer(Config{})
	_, root := tr.Start(context.Background(), "job")
	root.End()
	id := root.Context().TraceID.String()
	rec := httptest.NewRecorder()
	ServeTrace(tr, id)(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/x/trace", nil))
	if !strings.Contains(rec.Body.String(), id) {
		t.Fatalf("trace body missing ID: %s", rec.Body.String())
	}
}
