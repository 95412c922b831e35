package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
)

// LogHandler wraps a slog.Handler so every record logged with a context
// carries trace_id and span_id from the active span (or remote link).
// Lines logged without trace context pass through untouched.
type LogHandler struct {
	inner slog.Handler
}

// NewLogHandler wraps inner with context-aware trace attribute injection.
func NewLogHandler(inner slog.Handler) *LogHandler {
	return &LogHandler{inner: inner}
}

func (h *LogHandler) Enabled(ctx context.Context, level slog.Level) bool {
	return h.inner.Enabled(ctx, level)
}

func (h *LogHandler) Handle(ctx context.Context, rec slog.Record) error {
	if ctx != nil {
		if sc, ok := ContextSpanContext(ctx); ok {
			rec.AddAttrs(
				slog.String("trace_id", sc.TraceID.String()),
				slog.String("span_id", sc.SpanID.String()),
			)
		}
	}
	return h.inner.Handle(ctx, rec)
}

func (h *LogHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &LogHandler{inner: h.inner.WithAttrs(attrs)}
}

func (h *LogHandler) WithGroup(name string) slog.Handler {
	return &LogHandler{inner: h.inner.WithGroup(name)}
}

// NewLogger builds the binaries' logger for the -log-format flag: "text"
// (default, human-readable) or "json" (one object per line for log
// shippers), both wrapped in the trace-aware LogHandler.
func NewLogger(w io.Writer, format string) (*slog.Logger, error) {
	var inner slog.Handler
	switch format {
	case "", "text":
		inner = slog.NewTextHandler(w, nil)
	case "json":
		inner = slog.NewJSONHandler(w, nil)
	default:
		return nil, fmt.Errorf("obs: unknown log format %q (want text or json)", format)
	}
	return slog.New(NewLogHandler(inner)), nil
}

// Logf adapts a context-bound slog.Logger to the Logf func(format, args...)
// hooks used across the cluster package, preserving the trace fields
// captured in ctx at adaptation time.
func Logf(ctx context.Context, logger *slog.Logger) func(format string, args ...any) {
	return func(format string, args ...any) {
		logger.InfoContext(ctx, fmt.Sprintf(format, args...))
	}
}
