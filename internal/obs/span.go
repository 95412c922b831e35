package obs

import (
	"context"
	"sync"
	"time"
)

// Span is one live node of a trace. A nil *Span is the unsampled /
// tracing-disabled span: every method is a no-op nil-check, so call sites
// never branch on whether tracing is on. Spans are safe for concurrent use
// (fault injectors add events from other goroutines).
type Span struct {
	tracer *Tracer
	sc     SpanContext
	parent SpanID
	name   string
	start  time.Time

	mu     sync.Mutex
	attrs  []Attr
	events []Event
	status string // non-empty = error outcome
	ended  bool
}

// SpanData is the immutable exported form of a finished span, as recorded
// by the tracer and serialized into the JSON span log.
type SpanData struct {
	TraceID string    `json:"traceId"`
	SpanID  string    `json:"spanId"`
	Parent  string    `json:"parent,omitempty"`
	Name    string    `json:"name"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
	Error   string    `json:"error,omitempty"`
	Attrs   []Attr    `json:"attrs,omitempty"`
	Events  []Event   `json:"events,omitempty"`
}

// Context returns the span's propagated identity; the zero SpanContext for
// a nil span.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// SetAttr attaches (or appends) an attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// Event records a point-in-time annotation on the span.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	ev := Event{Time: time.Now(), Name: name}
	if len(attrs) > 0 {
		ev.Attrs = append(ev.Attrs, attrs...)
	}
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

// RecordError marks the span's outcome as failed. A nil err is ignored, so
// call sites can pass their return error unconditionally.
func (s *Span) RecordError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.status = err.Error()
	s.mu.Unlock()
}

// End finishes the span and files it with the tracer. Ending twice is a
// harmless no-op (defensive: both a deferred End and an explicit error-path
// End may run).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	sd := SpanData{
		TraceID: s.sc.TraceID.String(),
		SpanID:  s.sc.SpanID.String(),
		Name:    s.name,
		Start:   s.start,
		End:     time.Now(),
		Error:   s.status,
		Attrs:   s.attrs,
		Events:  s.events,
	}
	if !s.parent.IsZero() {
		sd.Parent = s.parent.String()
	}
	s.mu.Unlock()
	s.tracer.record(sd, s.sc.TraceID, s.start, s.parent.IsZero(), s.name)
}

// startChild creates a child span in the same trace.
func (s *Span) startChild(ctx context.Context, name string, attrs []Attr) (context.Context, *Span) {
	child := s.tracer.newSpan(s.sc.TraceID, s.sc.SpanID, name, attrs)
	return ContextWithSpan(ctx, child), child
}

// ctxKey* are private context key types; one per payload kind.
type (
	ctxKeySpan struct{}
	ctxKeyLink struct{}
)

// ContextWithSpan returns a context carrying the span as the active one.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKeySpan{}, s)
}

// SpanFromContext returns the active span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKeySpan{}).(*Span)
	return s
}

// link ties a remote parent (extracted from a traceparent header or a
// journaled trace ID) to the tracer that should record its children.
type link struct {
	tracer *Tracer
	sc     SpanContext
}

// ContextWithRemote returns a context under which the next Start becomes a
// child of the remote span sc, recorded by t. Used where a trace crosses a
// process or detaches from the request lifetime (worker chunks, manager
// jobs outliving their submit request).
func ContextWithRemote(ctx context.Context, t *Tracer, sc SpanContext) context.Context {
	if t == nil || !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, ctxKeyLink{}, link{tracer: t, sc: sc})
}

func linkFromContext(ctx context.Context) (SpanContext, bool) {
	l, ok := ctx.Value(ctxKeyLink{}).(link)
	return l.sc, ok
}

// Start begins a child span of whatever the context carries: the active
// span, or a remote link. With neither — tracing disabled or the trace
// unsampled — it returns the context unchanged and a nil span, at the cost
// of two context lookups and zero allocations.
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	if s := SpanFromContext(ctx); s != nil {
		return s.startChild(ctx, name, attrs)
	}
	if l, ok := ctx.Value(ctxKeyLink{}).(link); ok && l.sc.Valid() && l.sc.Sampled {
		child := l.tracer.newSpan(l.sc.TraceID, l.sc.SpanID, name, attrs)
		return ContextWithSpan(ctx, child), child
	}
	return ctx, nil
}

// AddEvent annotates the active span, if any. The no-span path is one
// context lookup.
func AddEvent(ctx context.Context, name string, attrs ...Attr) {
	if s := SpanFromContext(ctx); s != nil {
		s.Event(name, attrs...)
	}
}

// ContextSpanContext returns the propagated identity of the active span or
// remote link in ctx, if any — the value log lines and journal records tag
// themselves with.
func ContextSpanContext(ctx context.Context) (SpanContext, bool) {
	if s := SpanFromContext(ctx); s != nil {
		return s.sc, true
	}
	if l, ok := ctx.Value(ctxKeyLink{}).(link); ok && l.sc.Valid() {
		return l.sc, true
	}
	return SpanContext{}, false
}
