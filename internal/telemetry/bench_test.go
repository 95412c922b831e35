package telemetry

import "testing"

// BenchmarkHistogramObserve is the ISSUE-mandated histogram-recording
// micro-benchmark: one Observe on a 10-bucket exponential histogram. It
// must stay allocation-free (asserted by -benchmem: 0 allocs/op).
func BenchmarkHistogramObserve(b *testing.B) {
	reg := NewRegistry()
	h := reg.Histogram(Opts{Name: "bench_hist", Buckets: ExponentialBuckets(0.001, 2, 10)})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1024) * 0.001)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	reg := NewRegistry()
	c := reg.Counter(Opts{Name: "bench_total"})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkSimCollectorFiring measures the enabled cost of one Add: an
// activity-firing count, which the runner hands over once per activity and
// trajectory, routed through the collector's lock-free label cache.
func BenchmarkSimCollectorFiring(b *testing.B) {
	reg := NewRegistry()
	c := NewSimCollector(reg, "DD", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(MetricActivityFirings, "one_vehicle[3].L2", 1)
	}
}
