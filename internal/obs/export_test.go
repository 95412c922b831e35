package obs

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"ahs/internal/trace"
)

// buildTrace records a small three-span trace with an event and an error.
func buildTrace(t *testing.T) (*Tracer, TraceData) {
	t.Helper()
	tr := NewTracer(Config{})
	ctx, root := tr.Start(context.Background(), "evaluate", String("job", "j1"))
	cctx, lease := tr.Start(ctx, "lease", String("chunk", "0"))
	lease.Event("fault", String("mode", "drop-request"))
	lease.End()
	_, merge := tr.Start(cctx, "merge")
	merge.RecordError(errors.New("partial"))
	merge.End()
	root.End()
	td, ok := tr.Trace(root.Context().TraceID.String())
	if !ok {
		t.Fatal("trace missing")
	}
	return tr, td
}

func TestWriteChromeTraceValidates(t *testing.T) {
	_, td := buildTrace(t)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, td); err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateChromeTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("exported trace does not validate: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		`"evaluate"`, `"lease"`, `"merge"`,
		`"attr.job"`, `"event.fault"`, `"error"`,
		td.TraceID,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome export missing %s", want)
		}
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	err := WriteChromeTrace(&buf, TraceData{TraceID: "deadbeef"})
	if err != nil {
		t.Fatal(err)
	}
	// An empty trace still emits the process metadata event and validates.
	if err := trace.ValidateChromeTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("empty export does not validate: %v", err)
	}
}

func TestItoa(t *testing.T) {
	cases := map[int]string{0: "0", 1: "1", 9: "9", 10: "10", 123: "123", 99999: "99999"}
	for n, want := range cases {
		if got := itoa(n); got != want {
			t.Errorf("itoa(%d) = %q, want %q", n, got, want)
		}
	}
}
