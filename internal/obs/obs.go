// Package obs is the stdlib-only distributed-tracing and structured-logging
// layer of the evaluation stack. It gives every submission one trace: a tree
// of spans (trace ID, span ID, parent, wall-clock interval, attributes,
// events) carried through context.Context inside a process and as a
// W3C-style `traceparent` header across HTTP hops — service API, cluster
// pull protocol, worker health probes — so a single sweep submission can be
// followed through expansion, dedup, chunk leases and requeues, journal
// adoption, fault injection and merge.
//
// Design constraints, in order:
//
//   - The disabled path costs nothing. obs.Start on a context with no
//     tracer is one context lookup, no allocation, and every method of the
//     returned nil *Span is a nil-check (benchmarked in bench_test.go).
//   - Overhead is bounded. Head sampling decides at the root whether a
//     trace records at all, a hard per-trace span cap stops runaway trees,
//     and finished traces live in a fixed-size ring (oldest evicted).
//   - Everything is observable through the existing surfaces: spans export
//     through the internal/trace Chrome-trace writer (viewable in
//     Perfetto) and a JSON span log; counts surface as ahs_trace_*
//     telemetry families; trace/span IDs ride on log/slog lines via
//     LogHandler.
//
// The package is deliberately not OpenTelemetry: no external deps, no
// exporters, no globals. A Tracer is plumbed explicitly (service manager,
// cluster coordinator, worker) and shared via contexts.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"ahs/internal/telemetry"
)

// TraceID identifies one end-to-end trace (16 bytes, hex on the wire).
type TraceID [16]byte

// SpanID identifies one span within a trace (8 bytes, hex on the wire).
type SpanID [8]byte

// String renders the ID as lowercase hex.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the ID as lowercase hex.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports an all-zero (invalid) trace ID.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports an all-zero (invalid) span ID.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// SpanContext is the propagated identity of a span: enough to parent remote
// children and to correlate log lines, no more.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	// Sampled reports whether the trace records spans. Unsampled contexts
	// still correlate logs but children are not recorded.
	Sampled bool
}

// Valid reports whether the context names a real span.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// Attr is one key/value attribute on a span or event. Values are strings;
// callers format numbers themselves (this keeps the hot path allocation
// behavior obvious).
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// String builds an Attr.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Event is a point-in-time annotation on a span (a fault injection, a
// requeue decision, a cache verdict).
type Event struct {
	Time  time.Time `json:"time"`
	Name  string    `json:"name"`
	Attrs []Attr    `json:"attrs,omitempty"`
}

// Config tunes a Tracer. The zero value records everything with bounded
// buffers.
type Config struct {
	// SampleEvery head-samples root spans: every Nth root starts a
	// recorded trace (1 = record all, the default). Sampling is decided
	// once at the root; children inherit the decision, so a trace is
	// always complete or absent, never ragged.
	SampleEvery int
	// MaxTraces bounds the finished-trace ring (default 256); the oldest
	// trace is evicted when a new one starts past the cap.
	MaxTraces int
	// MaxSpans caps recorded spans per trace (default 512). Spans ended
	// past the cap are counted as dropped, not recorded.
	MaxSpans int
	// Telemetry, when non-nil, receives the ahs_trace_* families.
	Telemetry *telemetry.Registry
	// Logger, when non-nil, receives one access line per request served
	// through Middleware, logged under the request's traced context so a
	// LogHandler-wrapped logger stamps it with trace_id/span_id.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.SampleEvery <= 0 {
		c.SampleEvery = 1
	}
	if c.MaxTraces <= 0 {
		c.MaxTraces = 256
	}
	if c.MaxSpans <= 0 {
		c.MaxSpans = 512
	}
	return c
}

// Tracer creates spans and records finished ones in a bounded in-memory
// ring, served by cmd/ahs-serve at GET /debug/traces. All methods are safe
// for concurrent use. A nil *Tracer is valid and records nothing.
type Tracer struct {
	cfg  Config
	seq  atomic.Uint64 // root-span counter driving head sampling
	mets *traceMetrics

	mu     sync.Mutex
	traces map[TraceID]*traceBuf
	order  []TraceID // insertion order, for ring eviction
}

// traceBuf accumulates the recorded spans of one trace.
type traceBuf struct {
	start   time.Time
	root    string // root span name, filled when the root ends
	spans   []SpanData
	dropped int
}

// NewTracer builds a tracer from cfg.
func NewTracer(cfg Config) *Tracer {
	t := &Tracer{
		cfg:    cfg.withDefaults(),
		traces: make(map[TraceID]*traceBuf),
	}
	t.mets = newTraceMetrics(t.cfg.Telemetry, t)
	return t
}

// ids fills a fresh random trace ID and/or span ID. Randomness is
// deliberately not internal/rng: IDs must be unique across processes, not
// reproducible — the same reason cluster worker IDs use crypto/rand.
func randomIDs(trace *TraceID, span *SpanID) {
	var b [24]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the OS entropy source is gone; fall
		// back to a time-derived ID rather than panicking mid-request.
		binary.LittleEndian.PutUint64(b[:8], uint64(time.Now().UnixNano()))
		binary.LittleEndian.PutUint64(b[8:16], uint64(time.Now().UnixNano())>>1|1)
		binary.LittleEndian.PutUint64(b[16:24], uint64(time.Now().UnixNano())<<1|1)
	}
	if trace != nil {
		copy(trace[:], b[:16])
	}
	if span != nil {
		copy(span[:], b[16:24])
		if span.IsZero() {
			span[7] = 1
		}
	}
	if trace != nil && trace.IsZero() {
		trace[15] = 1
	}
}

// Start begins a span. If ctx already carries a span (local or remote
// link), the new span is its child in the same trace; otherwise it is the
// root of a new trace, subject to the head-sampling decision. The returned
// context carries the span; the returned *Span is nil when the trace is
// unsampled (all its methods are no-ops). Call End exactly once.
func (t *Tracer) Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	if t == nil {
		return Start(ctx, name, attrs...)
	}
	if parent := SpanFromContext(ctx); parent != nil {
		return parent.startChild(ctx, name, attrs)
	}
	if link, ok := linkFromContext(ctx); ok && link.Valid() {
		if !link.Sampled {
			return ctx, nil
		}
		s := t.newSpan(link.TraceID, link.SpanID, name, attrs)
		return ContextWithSpan(ctx, s), s
	}
	// Root: head-sampling decision. An unsampled root still stamps the
	// context with an unsampled identity so log lines correlate and
	// descendants don't masquerade as fresh roots.
	var traceID TraceID
	if (t.seq.Add(1)-1)%uint64(t.cfg.SampleEvery) != 0 {
		var sc SpanContext
		randomIDs(&sc.TraceID, &sc.SpanID)
		return ContextWithRemote(ctx, t, sc), nil
	}
	randomIDs(&traceID, nil)
	s := t.newSpan(traceID, SpanID{}, name, attrs)
	t.mets.sampledC.Inc()
	return ContextWithSpan(ctx, s), s
}

// newSpan allocates a live span in the given trace.
func (t *Tracer) newSpan(traceID TraceID, parent SpanID, name string, attrs []Attr) *Span {
	s := &Span{
		tracer: t,
		sc:     SpanContext{TraceID: traceID, Sampled: true},
		parent: parent,
		name:   name,
		start:  time.Now(),
	}
	randomIDs(nil, &s.sc.SpanID)
	if len(attrs) > 0 {
		s.attrs = append(s.attrs, attrs...)
	}
	return s
}

// record files one finished span into its trace buffer, creating the
// buffer on first use and evicting the oldest trace past the ring cap.
func (t *Tracer) record(sd SpanData, traceID TraceID, start time.Time, root bool, name string) {
	evictions, droppedSpan, recorded := 0, false, false
	t.mu.Lock()
	buf, ok := t.traces[traceID]
	if !ok {
		buf = &traceBuf{start: start}
		t.traces[traceID] = buf
		t.order = append(t.order, traceID)
		for len(t.order) > t.cfg.MaxTraces {
			delete(t.traces, t.order[0])
			t.order = t.order[1:]
			evictions++
		}
	}
	if root {
		buf.root = name
	}
	if buf.start.After(start) {
		buf.start = start
	}
	if len(buf.spans) >= t.cfg.MaxSpans {
		buf.dropped++
		droppedSpan = true
	} else {
		buf.spans = append(buf.spans, sd)
		recorded = true
	}
	t.mu.Unlock()

	if evictions > 0 {
		t.mets.evictedC.Add(uint64(evictions))
	}
	if droppedSpan {
		t.mets.droppedC.Inc()
	}
	if recorded {
		t.mets.spansC.Inc()
	}
}

// traceMetrics holds the ahs_trace_* families, in a private registry when
// none is configured.
type traceMetrics struct {
	spansC   *telemetry.Counter
	droppedC *telemetry.Counter
	sampledC *telemetry.Counter
	evictedC *telemetry.Counter
}

func newTraceMetrics(reg *telemetry.Registry, t *Tracer) *traceMetrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	m := &traceMetrics{
		spansC: reg.Counter(telemetry.Opts{
			Name: "ahs_trace_spans_total",
			Help: "Spans recorded by the tracer.",
		}),
		droppedC: reg.Counter(telemetry.Opts{
			Name: "ahs_trace_spans_dropped_total",
			Help: "Spans dropped by the per-trace span cap.",
		}),
		sampledC: reg.Counter(telemetry.Opts{
			Name: "ahs_trace_traces_sampled_total",
			Help: "Root spans admitted by head sampling.",
		}),
		evictedC: reg.Counter(telemetry.Opts{
			Name: "ahs_trace_traces_evicted_total",
			Help: "Finished traces evicted from the recorder ring.",
		}),
	}
	reg.GaugeFunc(telemetry.Opts{
		Name: "ahs_trace_traces_held",
		Help: "Traces currently held in the recorder ring.",
	}, func() float64 {
		t.mu.Lock()
		defer t.mu.Unlock()
		return float64(len(t.traces))
	})
	return m
}
