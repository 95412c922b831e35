package obs

import (
	"io"

	"ahs/internal/trace"
)

// WriteChromeTrace exports one recorded trace through the shared
// Chrome-trace/Perfetto writer: every span becomes a complete ("X") event
// on the track of its span name, timestamped in microseconds relative to
// the trace start, with trace/span/parent IDs, attributes, events and the
// error outcome in the Perfetto args pane. The output passes
// trace.ValidateChromeTrace.
func WriteChromeTrace(w io.Writer, td TraceData) error {
	spans := make([]trace.ChromeSpan, 0, len(td.Spans))
	for _, sd := range td.Spans {
		args := map[string]any{
			"traceId": sd.TraceID,
			"spanId":  sd.SpanID,
		}
		if sd.Parent != "" {
			args["parent"] = sd.Parent
		}
		if sd.Error != "" {
			args["error"] = sd.Error
		}
		for _, a := range sd.Attrs {
			args["attr."+a.Key] = a.Value
		}
		for i, ev := range sd.Events {
			key := "event." + ev.Name
			if i > 0 {
				// Perfetto args are a flat map; disambiguate repeats.
				key = key + "#" + itoa(i)
			}
			args[key] = ev.Time.Sub(td.Start).String()
		}
		start := sd.Start.Sub(td.Start).Seconds() * 1e6
		end := sd.End.Sub(td.Start).Seconds() * 1e6
		if start < 0 {
			start = 0
		}
		if end < start {
			end = start
		}
		spans = append(spans, trace.ChromeSpan{
			Name:  sd.Name,
			Track: sd.Name,
			Start: start,
			End:   end,
			Args:  args,
		})
	}
	name := "ahs trace " + td.TraceID
	if td.Root != "" {
		name = td.Root + " " + td.TraceID
	}
	return trace.WriteChromeSpans(w, name, spans)
}

// itoa is strconv.Itoa for the tiny non-negative ints used in event keys,
// saving the strconv import in this hot-ish path.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
