package telemetry

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Kind is the exposition type of a metric family.
type Kind int

// Family kinds, mirroring the Prometheus metric types in use here.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE keyword.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Opts names and documents a metric family. Name must match the Prometheus
// metric-name charset ([a-zA-Z_:][a-zA-Z0-9_:]*); Buckets applies to
// histogram families only.
type Opts struct {
	Name    string
	Help    string
	Buckets []float64
}

// Registry is an isolated collection of metric families. Unlike expvar's
// process-global table, every Registry is independent, so concurrent
// managers and tests never collide on names. All methods are safe for
// concurrent use.
//
// Registration is idempotent: re-registering the same name with the same
// kind, labels and buckets returns the existing family, which lets
// per-evaluation collectors share one registry. Re-registering with a
// different shape panics — that is a programming error on par with
// expvar.Publish duplicates.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelSep joins label values into child keys; it cannot appear in valid
// UTF-8 label values produced by this codebase's enum labels, and a
// collision would only merge two children of the same family.
const labelSep = "\xff"

type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64
	fn      func() float64 // non-nil for GaugeFunc families

	mu       sync.RWMutex
	children map[string]*child
}

type child struct {
	values []string
	metric any // *Counter, *Gauge or *Histogram
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (r *Registry) register(o Opts, kind Kind, labels []string, fn func() float64) *family {
	if !validName(o.Name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", o.Name))
	}
	for _, l := range labels {
		if !validName(l) || strings.Contains(l, ":") {
			panic(fmt.Sprintf("telemetry: invalid label name %q on %q", l, o.Name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[o.Name]; ok {
		if f.kind != kind || !slices.Equal(f.labels, labels) || !slices.Equal(f.buckets, o.Buckets) {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with a different shape", o.Name))
		}
		return f
	}
	f := &family{
		name:     o.Name,
		help:     o.Help,
		kind:     kind,
		labels:   append([]string(nil), labels...),
		buckets:  append([]float64(nil), o.Buckets...),
		fn:       fn,
		children: make(map[string]*child),
	}
	r.families[o.Name] = f
	return f
}

// with returns (creating on first use) the child for the given label values.
func (f *family) with(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c = &child{values: append([]string(nil), values...)}
	switch f.kind {
	case KindCounter:
		c.metric = new(Counter)
	case KindGauge:
		c.metric = new(Gauge)
	case KindHistogram:
		h, err := newHistogram(f.buckets)
		if err != nil {
			panic(err.Error())
		}
		c.metric = h
	}
	f.children[key] = c
	return c
}

// Counter registers (or fetches) an unlabeled counter family and returns
// its single counter.
func (r *Registry) Counter(o Opts) *Counter {
	return r.register(o, KindCounter, nil, nil).with(nil).metric.(*Counter)
}

// Gauge registers (or fetches) an unlabeled gauge family and returns its
// single gauge.
func (r *Registry) Gauge(o Opts) *Gauge {
	return r.register(o, KindGauge, nil, nil).with(nil).metric.(*Gauge)
}

// Histogram registers (or fetches) an unlabeled histogram family (o.Buckets
// required) and returns its single histogram.
func (r *Registry) Histogram(o Opts) *Histogram {
	if len(o.Buckets) == 0 {
		panic(fmt.Sprintf("telemetry: histogram %q registered without buckets", o.Name))
	}
	return r.register(o, KindHistogram, nil, nil).with(nil).metric.(*Histogram)
}

// GaugeFunc registers a gauge whose value is computed at snapshot time by
// fn — for derived readings like utilisation ratios.
func (r *Registry) GaugeFunc(o Opts, fn func() float64) {
	if fn == nil {
		panic(fmt.Sprintf("telemetry: GaugeFunc %q with nil function", o.Name))
	}
	r.register(o, KindGauge, nil, fn)
}

// CounterVec is a counter family with labels.
type CounterVec struct{ fam *family }

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(o Opts, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("telemetry: CounterVec %q without labels; use Counter", o.Name))
	}
	return &CounterVec{fam: r.register(o, KindCounter, labels, nil)}
}

// With returns the counter for the given label values, creating it on
// first use. Resolve children outside hot loops: the lookup takes a read
// lock and builds a map key.
func (v *CounterVec) With(values ...string) *Counter {
	return v.fam.with(values).metric.(*Counter)
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ fam *family }

// GaugeVec registers (or fetches) a labeled gauge family.
func (r *Registry) GaugeVec(o Opts, labels ...string) *GaugeVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("telemetry: GaugeVec %q without labels; use Gauge", o.Name))
	}
	return &GaugeVec{fam: r.register(o, KindGauge, labels, nil)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.fam.with(values).metric.(*Gauge)
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ fam *family }

// HistogramVec registers (or fetches) a labeled histogram family
// (o.Buckets required).
func (r *Registry) HistogramVec(o Opts, labels ...string) *HistogramVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("telemetry: HistogramVec %q without labels; use Histogram", o.Name))
	}
	if len(o.Buckets) == 0 {
		panic(fmt.Sprintf("telemetry: histogram %q registered without buckets", o.Name))
	}
	return &HistogramVec{fam: r.register(o, KindHistogram, labels, nil)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.fam.with(values).metric.(*Histogram)
}

// LabelPair is one label name/value pair of a sample.
type LabelPair struct {
	Name, Value string
}

// Sample is one time series of a family snapshot.
type Sample struct {
	Labels []LabelPair
	// Value holds the counter or gauge reading (counters as exact integral
	// floats); Hist is set for histogram samples instead.
	Value float64
	Hist  *HistogramData
}

// FamilySnapshot is a point-in-time copy of one metric family.
type FamilySnapshot struct {
	Name    string
	Help    string
	Kind    Kind
	Samples []Sample
}

// Gather snapshots every family, sorted by family name with samples sorted
// by label values, so output is deterministic.
func (r *Registry) Gather() []FamilySnapshot {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		snap := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind}
		if f.fn != nil {
			snap.Samples = []Sample{{Value: f.fn()}}
			out = append(out, snap)
			continue
		}
		f.mu.RLock()
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			c := f.children[k]
			s := Sample{}
			for li, name := range f.labels {
				s.Labels = append(s.Labels, LabelPair{Name: name, Value: c.values[li]})
			}
			switch m := c.metric.(type) {
			case *Counter:
				s.Value = float64(m.Value())
			case *Gauge:
				s.Value = float64(m.Value())
			case *Histogram:
				s.Hist = m.snapshot()
			}
			snap.Samples = append(snap.Samples, s)
		}
		f.mu.RUnlock()
		out = append(out, snap)
	}
	return out
}
