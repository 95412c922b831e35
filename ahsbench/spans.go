package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// wrappers. Start and End are offsets from the recorder's epoch on the
// monotonic clock. Spans of one lookup or job share Key, the scenario hash.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps every span in memory until the run writes them out. A
// span that begins while another span with the same key is open becomes
// its child: that is how a store read inside an HTTP lookup, which the
// store wrapper sees only as a key, finds its parent.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	open  map[string][]int // key -> ids of open spans, innermost last
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), open: make(map[string][]int)}
}

// begin opens a span and returns the function that ends it.
func (r *recorder) begin(name, key string) func() {
	r.mu.Lock()
	id := len(r.spans) + 1
	parent := 0
	if key != "" {
		if stack := r.open[key]; len(stack) > 0 {
			parent = stack[len(stack)-1]
		}
		r.open[key] = append(r.open[key], id)
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Key: key})
	r.spans[id-1].Start = int64(time.Since(r.epoch))
	r.mu.Unlock()
	return func() {
		end := int64(time.Since(r.epoch))
		r.mu.Lock()
		defer r.mu.Unlock()
		r.spans[id-1].End = end
		if key == "" {
			return
		}
		stack := r.open[key]
		for i := len(stack) - 1; i >= 0; i-- {
			if stack[i] == id {
				stack = append(stack[:i], stack[i+1:]...)
				break
			}
		}
		if len(stack) == 0 {
			delete(r.open, key)
		} else {
			r.open[key] = stack
		}
	}
}

// snapshot copies the finished spans; End is zero while a span is open.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

// layerTime sums one span name's calls: their count, total duration and
// self time (duration minus the part its children cover).
type layerTime struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes groups spans by name. A span's self time is its duration minus
// the union of its children's intervals clipped to its own, so overlapping
// children are not subtracted twice.
func selfTimes(spans []span) []layerTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*layerTime)
	for _, s := range spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		lt.Count++
		lt.Total += time.Duration(s.dur())
		lt.Self += time.Duration(s.dur() - covered(s, children[s.ID]))
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the children's intervals within
// the parent's interval.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// layer returns the named entry of a self-time table (zero if absent).
func layer(times []layerTime, name string) layerTime {
	for _, lt := range times {
		if lt.Name == name {
			return lt
		}
	}
	return layerTime{Name: name}
}

// meanMicros is a layer's mean call duration in microseconds.
func (lt layerTime) meanMicros() float64 {
	if lt.Count == 0 {
		return 0
	}
	return float64(lt.Total.Nanoseconds()) / float64(lt.Count) / 1e3
}

// writeSpans writes the run's spans as one JSON document.
func writeSpans(path, workload string, seed uint64, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	doc := struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
