package telemetry

import (
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
)

// RegisterRuntime registers the process self-observation families shared by
// both binaries (ahs-serve and ahs-worker):
//
//	ahs_build_info{version,go_version}  — constant 1, build identification
//	ahs_runtime_goroutines              — live goroutines
//	ahs_runtime_heap_bytes              — live heap objects, bytes
//	ahs_runtime_gc_pause_p99_seconds    — p99 of the GC stop-the-world
//	                                      pause distribution since start
//
// Values are sampled through runtime/metrics at scrape time, so the cost is
// paid per GET /metrics, not continuously. Metrics missing from the running
// toolchain are skipped rather than exported as zeros. Safe to call once per
// registry; a second call on the same registry panics (duplicate family),
// matching every other register-at-startup family.
func RegisterRuntime(reg *Registry) {
	version, goVersion := "unknown", runtime.Version()
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" {
			version = bi.Main.Version
		}
		if bi.GoVersion != "" {
			goVersion = bi.GoVersion
		}
	}
	reg.GaugeVec(Opts{
		Name: "ahs_build_info",
		Help: "Build identification; value is always 1.",
	}, "version", "go_version").
		With(version, goVersion).Set(1) //ahsvet:ignore locklabel one child per process, values fixed at startup

	registerRuntimeSample(reg, Opts{
		Name: "ahs_runtime_goroutines",
		Help: "Goroutines currently live in the process.",
	}, "/sched/goroutines:goroutines", scalarSample)
	registerRuntimeSample(reg, Opts{
		Name: "ahs_runtime_heap_bytes",
		Help: "Bytes of live heap objects (runtime/metrics /memory/classes/heap/objects:bytes).",
	}, "/memory/classes/heap/objects:bytes", scalarSample)
	registerRuntimeSample(reg, Opts{
		Name: "ahs_runtime_gc_pause_p99_seconds",
		Help: "99th percentile of GC stop-the-world pauses since process start.",
	}, "/gc/pauses:seconds", func(v metrics.Value) float64 {
		return histogramQuantile(v.Float64Histogram(), 0.99)
	})
}

// registerRuntimeSample registers a GaugeFunc reading one runtime/metrics
// sample per call, after probing that the metric exists and has a usable
// kind in this toolchain.
func registerRuntimeSample(reg *Registry, o Opts, name string, read func(metrics.Value) float64) {
	probe := []metrics.Sample{{Name: name}}
	metrics.Read(probe)
	switch probe[0].Value.Kind() {
	case metrics.KindUint64, metrics.KindFloat64:
		if read == nil {
			return
		}
	case metrics.KindFloat64Histogram:
		// read must know how to reduce the distribution.
	default:
		return // metric unknown to this toolchain — skip, don't export zeros
	}
	reg.GaugeFunc(o, func() float64 {
		s := []metrics.Sample{{Name: name}}
		metrics.Read(s)
		return read(s[0].Value)
	})
}

// scalarSample reduces a scalar runtime/metrics value to float64.
func scalarSample(v metrics.Value) float64 {
	switch v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64())
	case metrics.KindFloat64:
		return v.Float64()
	default:
		return 0
	}
}

// histogramQuantile returns the q-quantile upper bound of a runtime/metrics
// cumulative-count histogram, clamping the open-ended outer buckets to their
// finite neighbours. Returns 0 for an empty distribution (no GC yet).
func histogramQuantile(h *metrics.Float64Histogram, q float64) float64 {
	if h == nil || len(h.Counts) == 0 {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum > rank {
			// Bucket i spans Buckets[i]..Buckets[i+1]; report the upper
			// bound, falling back to the lower when it is +Inf.
			hi := h.Buckets[i+1]
			if math.IsInf(hi, 0) {
				return h.Buckets[i]
			}
			return hi
		}
	}
	last := h.Buckets[len(h.Buckets)-1]
	if math.IsInf(last, 0) {
		return h.Buckets[len(h.Buckets)-2]
	}
	return last
}
