package telemetry

import (
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter(Opts{Name: "test_total", Help: "test"})
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	g := reg.Gauge(Opts{Name: "test_gauge", Help: "test"})
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestRegistrationIsIdempotent(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter(Opts{Name: "same_total"})
	b := reg.Counter(Opts{Name: "same_total"})
	if a != b {
		t.Fatal("re-registering the same counter returned a different instance")
	}
	v1 := reg.CounterVec(Opts{Name: "vec_total"}, "l")
	v2 := reg.CounterVec(Opts{Name: "vec_total"}, "l")
	if v1.With("x") != v2.With("x") {
		t.Fatal("re-registered vec does not share children")
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	cases := map[string]func(reg *Registry){
		"kind change":   func(reg *Registry) { reg.Gauge(Opts{Name: "m"}) },
		"label change":  func(reg *Registry) { reg.CounterVec(Opts{Name: "m"}, "l") },
		"invalid name":  func(reg *Registry) { reg.Counter(Opts{Name: "0bad"}) },
		"empty name":    func(reg *Registry) { reg.Counter(Opts{Name: ""}) },
		"no buckets":    func(reg *Registry) { reg.Histogram(Opts{Name: "h"}) },
		"invalid label": func(reg *Registry) { reg.CounterVec(Opts{Name: "v"}, "bad-label") },
	}
	for name, f := range cases {
		t.Run(name, func(t *testing.T) {
			reg := NewRegistry()
			reg.Counter(Opts{Name: "m"})
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f(reg)
		})
	}
}

func TestHistogramBucketing(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram(Opts{Name: "h", Buckets: []float64{1, 2, 4}})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	snap := h.snapshot()
	want := []uint64{2, 1, 1, 1} // le=1: {0.5, 1}; le=2: {1.5}; le=4: {3}; +Inf: {100}
	for i, n := range want {
		if snap.Buckets[i] != n {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, snap.Buckets[i], n, snap.Buckets)
		}
	}
	if snap.Count != 5 {
		t.Fatalf("count = %d, want 5", snap.Count)
	}
	if math.Abs(snap.Sum-106) > 1e-9 {
		t.Fatalf("sum = %v, want 106", snap.Sum)
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExponentialBuckets(1, 2, 5)
	if len(exp) != 5 || exp[4] != 16 {
		t.Fatalf("ExponentialBuckets = %v", exp)
	}
}

func TestConcurrentUpdatesAreLossless(t *testing.T) {
	reg := NewRegistry()
	vec := reg.CounterVec(Opts{Name: "c_total"}, "worker")
	h := reg.Histogram(Opts{Name: "h", Buckets: []float64{0.5}})
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := vec.With("shared")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(1)
			}
		}(w)
	}
	wg.Wait()
	if got := vec.With("shared").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := h.count.Load(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if got := h.sum.Value(); math.Abs(got-workers*perWorker) > 1e-6 {
		t.Fatalf("histogram sum = %v, want %d", got, workers*perWorker)
	}
}

func TestGatherDeterministicOrder(t *testing.T) {
	reg := NewRegistry()
	v := reg.CounterVec(Opts{Name: "b_total"}, "l")
	v.With("z").Inc()
	v.With("a").Add(2)
	reg.Gauge(Opts{Name: "a_gauge"}).Set(1)
	reg.GaugeFunc(Opts{Name: "c_ratio"}, func() float64 { return 0.5 })

	fams := reg.Gather()
	if len(fams) != 3 {
		t.Fatalf("gathered %d families, want 3", len(fams))
	}
	if fams[0].Name != "a_gauge" || fams[1].Name != "b_total" || fams[2].Name != "c_ratio" {
		t.Fatalf("family order %q %q %q", fams[0].Name, fams[1].Name, fams[2].Name)
	}
	samples := fams[1].Samples
	if len(samples) != 2 || samples[0].Labels[0].Value != "a" || samples[1].Labels[0].Value != "z" {
		t.Fatalf("sample order %+v", samples)
	}
	if samples[0].Value != 2 || samples[1].Value != 1 {
		t.Fatalf("sample values %+v", samples)
	}
	if fams[2].Samples[0].Value != 0.5 {
		t.Fatalf("gauge func sample %+v", fams[2].Samples)
	}
}

func TestSimCollectorRouting(t *testing.T) {
	reg := NewRegistry()
	collapse := func(s string) string {
		if i := len(s) - 2; i > 0 && s[i] == '.' {
			return s[i+1:]
		}
		return s
	}
	c := NewSimCollector(reg, "DD", collapse)
	c.Add(MetricActivityFirings, "x.a", 1)
	c.Add(MetricActivityFirings, "y.a", 3) // a per-trajectory batch
	c.Add(MetricManeuverAttempts, "AS", 1)
	c.Add(MetricManeuverFailures, "AS", 1)
	c.Add(MetricCatastrophes, "ST1", 1)
	c.Add(MetricTrajectories, "", 1)
	c.Add("metric_from_the_future", "whatever", 1) // must be ignored
	c.Observe(MetricTrajectorySteps, "", 12)
	c.Observe(MetricTimeToKO, "", 3.5)
	c.Observe("another_future_metric", "", 1)

	if got := c.firings.With("DD", "a").Value(); got != 4 {
		t.Fatalf("collapsed firings = %d, want 4", got)
	}
	if c.attempts.With("DD", "AS").Value() != 1 || c.failures.With("DD", "AS").Value() != 1 {
		t.Fatal("maneuver attempt/failure not recorded")
	}
	if c.catastrophes.With("DD", "ST1").Value() != 1 {
		t.Fatal("catastrophe not recorded")
	}
	if c.trajectories.Value() != 1 {
		t.Fatal("trajectory not recorded")
	}
	if c.steps.count.Load() != 1 || c.timeToKO.count.Load() != 1 {
		t.Fatal("histograms not recorded")
	}

	// A second collector for another strategy shares the registry without
	// re-registration conflicts, and the families stay separated by label.
	c2 := NewSimCollector(reg, "CC", nil)
	c2.Add(MetricTrajectories, "", 1)
	if c.trajectories.Value() != 1 || c2.trajectories.Value() != 1 {
		t.Fatal("strategies not separated")
	}
}
