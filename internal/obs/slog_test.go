package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

func TestLogHandlerInjectsTraceFields(t *testing.T) {
	var buf bytes.Buffer
	logger, err := NewLogger(&buf, "json")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer(Config{})
	ctx, span := tr.Start(context.Background(), "submit")

	logger.InfoContext(ctx, "leased chunk", "worker", "w-1")
	span.End()

	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("log line not JSON: %v\n%s", err, buf.String())
	}
	sc := span.Context()
	if rec["trace_id"] != sc.TraceID.String() {
		t.Fatalf("trace_id = %v, want %s", rec["trace_id"], sc.TraceID)
	}
	if rec["span_id"] != sc.SpanID.String() {
		t.Fatalf("span_id = %v, want %s", rec["span_id"], sc.SpanID)
	}
	if rec["worker"] != "w-1" {
		t.Fatalf("log attrs = %v", rec)
	}
	if rec["msg"] != "leased chunk" {
		t.Fatalf("msg = %v", rec["msg"])
	}
}

func TestLogHandlerNoContextPassThrough(t *testing.T) {
	var buf bytes.Buffer
	logger, err := NewLogger(&buf, "json")
	if err != nil {
		t.Fatal(err)
	}
	logger.Info("plain line")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if _, ok := rec["trace_id"]; ok {
		t.Fatal("untraced line carries trace_id")
	}
}

func TestLogHandlerTextFormat(t *testing.T) {
	var buf bytes.Buffer
	logger, err := NewLogger(&buf, "text")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer(Config{})
	ctx, span := tr.Start(context.Background(), "root")
	logger.InfoContext(ctx, "hello")
	span.End()
	if !strings.Contains(buf.String(), "trace_id="+span.Context().TraceID.String()) {
		t.Fatalf("text line missing trace_id: %s", buf.String())
	}

	// Default format is text.
	if _, err := NewLogger(&buf, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := NewLogger(&buf, "yaml"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestLogHandlerWithAttrsAndGroup(t *testing.T) {
	var buf bytes.Buffer
	logger, err := NewLogger(&buf, "json")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer(Config{})
	ctx, span := tr.Start(context.Background(), "root")
	defer span.End()
	// WithAttrs/WithGroup must preserve the trace-aware wrapper.
	logger.With("component", "coordinator").WithGroup("g").InfoContext(ctx, "msg", "k", "v")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["component"] != "coordinator" {
		t.Fatalf("component missing: %v", rec)
	}
	g, _ := rec["g"].(map[string]any)
	if g == nil || g["k"] != "v" {
		t.Fatalf("group attrs = %v", rec)
	}
	// trace_id is added at Handle time, inside the open group — either
	// placement is fine as long as it is present somewhere.
	if _, ok := rec["trace_id"]; !ok {
		if _, ok := g["trace_id"]; !ok {
			t.Fatalf("trace_id missing entirely: %v", rec)
		}
	}
}

func TestLogfAdapter(t *testing.T) {
	var buf bytes.Buffer
	logger, err := NewLogger(&buf, "json")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer(Config{})
	ctx, span := tr.Start(context.Background(), "root")
	defer span.End()
	logf := Logf(ctx, logger)
	logf("worker %s drained %d leases", "w-1", 3)
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["msg"] != "worker w-1 drained 3 leases" {
		t.Fatalf("msg = %v", rec["msg"])
	}
	if rec["trace_id"] != span.Context().TraceID.String() {
		t.Fatalf("logf line missing trace: %v", rec)
	}
}
