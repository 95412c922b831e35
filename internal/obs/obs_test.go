package obs

import (
	"context"
	"errors"
	"strings"
	"testing"

	"ahs/internal/telemetry"
)

func TestSpanTreeRecorded(t *testing.T) {
	tr := NewTracer(Config{})
	ctx, root := tr.Start(context.Background(), "submit", String("scenario", "abc"))
	if root == nil {
		t.Fatal("root span not sampled with SampleEvery=1")
	}
	rootSC := root.Context()
	if !rootSC.Valid() || !rootSC.Sampled {
		t.Fatalf("root span context invalid: %+v", rootSC)
	}

	cctx, child := tr.Start(ctx, "chunk")
	if child.Context().TraceID != rootSC.TraceID {
		t.Fatal("child not in parent's trace")
	}
	child.Event("requeue", String("reason", "lease-expired"))
	child.RecordError(errors.New("boom"))
	child.End()
	child.End() // idempotent

	_, grand := tr.Start(cctx, "merge")
	grand.End()
	root.End()

	td, ok := tr.Trace(rootSC.TraceID.String())
	if !ok {
		t.Fatal("trace not recorded")
	}
	if len(td.Spans) != 3 {
		t.Fatalf("want 3 spans, got %d", len(td.Spans))
	}
	if td.Root != "submit" {
		t.Fatalf("root name = %q, want submit", td.Root)
	}
	// Sorted by start time: root first.
	if td.Spans[0].Name != "submit" || td.Spans[0].Parent != "" {
		t.Fatalf("first span = %+v, want parentless submit", td.Spans[0])
	}
	byName := map[string]SpanData{}
	for _, sd := range td.Spans {
		byName[sd.Name] = sd
	}
	if byName["chunk"].Parent != byName["submit"].SpanID {
		t.Fatal("chunk span not parented to submit")
	}
	if byName["merge"].Parent != byName["chunk"].SpanID {
		t.Fatal("merge span not parented to chunk")
	}
	if byName["chunk"].Error != "boom" {
		t.Fatalf("chunk error = %q", byName["chunk"].Error)
	}
	if len(byName["chunk"].Events) != 1 || byName["chunk"].Events[0].Name != "requeue" {
		t.Fatalf("chunk events = %+v", byName["chunk"].Events)
	}
	if got := byName["submit"].Attrs; len(got) != 1 || got[0] != String("scenario", "abc") {
		t.Fatalf("submit attrs = %+v", got)
	}
}

func TestHeadSampling(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 3})
	sampled := 0
	for i := 0; i < 9; i++ {
		_, s := tr.Start(context.Background(), "root")
		if s != nil {
			sampled++
			s.End()
		}
	}
	if sampled != 3 {
		t.Fatalf("sampled %d of 9 roots with SampleEvery=3, want 3", sampled)
	}
	if got := len(tr.Traces()); got != 3 {
		t.Fatalf("recorder holds %d traces, want 3", got)
	}
}

func TestUnsampledRootPropagatesNothing(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 2})
	_, first := tr.Start(context.Background(), "a") // sampled
	first.End()
	ctx, second := tr.Start(context.Background(), "b") // unsampled
	if second != nil {
		t.Fatal("second root should be unsampled")
	}
	// Children of an unsampled root do not record either.
	_, child := tr.Start(ctx, "child")
	if child != nil {
		t.Fatal("child of unsampled root recorded")
	}
	// The unsampled context still carries a correlation ID for log lines.
	AddEvent(ctx, "noop")
	if traceIDOf(ctx) == "" {
		t.Fatal("unsampled root should still stamp a correlation trace ID")
	}
	if got := len(tr.Traces()); got != 1 {
		t.Fatalf("recorder holds %d traces, want only the sampled one", got)
	}
}

func TestRingEviction(t *testing.T) {
	tr := NewTracer(Config{MaxTraces: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		_, s := tr.Start(context.Background(), "root")
		ids = append(ids, s.Context().TraceID.String())
		s.End()
	}
	if _, ok := tr.Trace(ids[0]); ok {
		t.Fatal("oldest trace should have been evicted")
	}
	for _, id := range ids[1:] {
		if _, ok := tr.Trace(id); !ok {
			t.Fatalf("trace %s missing from ring", id)
		}
	}
	sums := tr.Traces()
	if len(sums) != 2 || sums[0].TraceID != ids[2] {
		t.Fatalf("Traces() = %+v, want newest first", sums)
	}
}

func TestSpanCap(t *testing.T) {
	tr := NewTracer(Config{MaxSpans: 2})
	ctx, root := tr.Start(context.Background(), "root")
	for i := 0; i < 4; i++ {
		_, s := tr.Start(ctx, "child")
		s.End()
	}
	root.End()
	td, ok := tr.Trace(root.Context().TraceID.String())
	if !ok {
		t.Fatal("trace missing")
	}
	if len(td.Spans) != 2 || td.Dropped != 3 {
		t.Fatalf("got %d spans, %d dropped; want 2 spans, 3 dropped", len(td.Spans), td.Dropped)
	}
}

func TestRemoteLink(t *testing.T) {
	tr := NewTracer(Config{})
	remote := SpanContext{Sampled: true}
	randomIDs(&remote.TraceID, &remote.SpanID)

	ctx := ContextWithRemote(context.Background(), tr, remote)
	if got := traceIDOf(ctx); got != remote.TraceID.String() {
		t.Fatalf("remote link trace ID = %q, want %q", got, remote.TraceID)
	}
	_, s := tr.Start(ctx, "adopted")
	if s == nil {
		t.Fatal("child of sampled remote link not recorded")
	}
	if s.Context().TraceID != remote.TraceID {
		t.Fatal("child did not join the remote trace")
	}
	s.End()
	td, ok := tr.Trace(remote.TraceID.String())
	if !ok || td.Spans[0].Parent != remote.SpanID.String() {
		t.Fatalf("adopted span not parented to remote: %+v ok=%v", td, ok)
	}

	// Unsampled remote link: correlate but do not record.
	unsampled := remote
	unsampled.Sampled = false
	randomIDs(&unsampled.TraceID, nil)
	uctx := ContextWithRemote(context.Background(), tr, unsampled)
	if _, s := tr.Start(uctx, "quiet"); s != nil {
		t.Fatal("child of unsampled remote link recorded")
	}
	if traceIDOf(uctx) != unsampled.TraceID.String() {
		t.Fatal("unsampled link should still correlate logs")
	}
}

func TestNilTracerAndNilSpan(t *testing.T) {
	var tr *Tracer
	ctx, s := tr.Start(context.Background(), "root")
	if s != nil {
		t.Fatal("nil tracer returned a span")
	}
	// All nil-span methods are no-ops.
	s.SetAttr("k", "v")
	s.Event("e")
	s.RecordError(errors.New("x"))
	s.End()
	if s.Context().Valid() {
		t.Fatal("nil span leaked identity")
	}
	if _, ok := tr.Trace("00"); ok {
		t.Fatal("nil tracer returned a trace")
	}
	if tr.Traces() != nil {
		t.Fatal("nil tracer returned summaries")
	}
	if _, s := Start(ctx, "child"); s != nil {
		t.Fatal("span started from empty context")
	}
}

func TestTelemetryFamilies(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := NewTracer(Config{MaxTraces: 1, MaxSpans: 1, Telemetry: reg})
	for i := 0; i < 2; i++ {
		ctx, root := tr.Start(context.Background(), "root")
		_, c := tr.Start(ctx, "child")
		c.End()
		root.End()
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"ahs_trace_spans_total 2",
		"ahs_trace_spans_dropped_total 2",
		"ahs_trace_traces_sampled_total 2",
		"ahs_trace_traces_evicted_total 1",
		"ahs_trace_traces_held 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("telemetry output missing %q:\n%s", want, out)
		}
	}
	if err := telemetry.ValidateText(strings.NewReader(out)); err != nil {
		t.Fatalf("invalid telemetry text: %v", err)
	}
}

func TestInFlightTraceVisible(t *testing.T) {
	tr := NewTracer(Config{})
	ctx, root := tr.Start(context.Background(), "long-job")
	_, c := tr.Start(ctx, "chunk-0")
	c.End()
	// Root still open: the trace is queryable with the finished child only.
	td, ok := tr.Trace(root.Context().TraceID.String())
	if !ok || len(td.Spans) != 1 || td.Spans[0].Name != "chunk-0" {
		t.Fatalf("in-flight trace = %+v ok=%v", td, ok)
	}
	root.End()
}
