package telemetry

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Histogram observes a distribution over a fixed set of buckets with
// cumulative "less-than-or-equal" semantics, matching the Prometheus
// histogram model. Observe is atomic and allocation-free; buckets are fixed
// at construction.
type Histogram struct {
	// upper holds the strictly increasing bucket upper bounds; an implicit
	// +Inf bucket always follows.
	upper  []float64
	counts []atomic.Uint64 // len(upper)+1, last is the +Inf bucket
	count  atomic.Uint64
	sum    atomicFloat
}

func newHistogram(buckets []float64) (*Histogram, error) {
	if len(buckets) == 0 {
		return nil, fmt.Errorf("telemetry: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(buckets); i++ {
		if !(buckets[i] > buckets[i-1]) {
			return nil, fmt.Errorf("telemetry: bucket bounds not strictly increasing at index %d (%v <= %v)",
				i, buckets[i], buckets[i-1])
		}
	}
	h := &Histogram{
		upper:  append([]float64(nil), buckets...),
		counts: make([]atomic.Uint64, len(buckets)+1),
	}
	return h, nil
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// SearchFloat64s returns the first bound >= v, which is exactly the
	// le-bucket the sample belongs to; misses land in the +Inf bucket.
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// snapshot returns a point-in-time copy of the histogram state. The bucket
// counts are per-bucket (not cumulative); the exposition layer accumulates.
func (h *Histogram) snapshot() *HistogramData {
	d := &HistogramData{
		Upper:   h.upper, // immutable after construction
		Buckets: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		d.Buckets[i] = h.counts[i].Load()
	}
	d.Count = h.count.Load()
	d.Sum = h.sum.Value()
	return d
}

// HistogramData is an immutable histogram snapshot.
type HistogramData struct {
	// Upper holds the finite bucket upper bounds.
	Upper []float64
	// Buckets holds per-bucket counts; its last entry (one past Upper) is
	// the +Inf bucket.
	Buckets []uint64
	// Count and Sum summarise all observations.
	Count uint64
	Sum   float64
}

// ExponentialBuckets returns n bucket bounds start, start·factor, ...
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if n < 1 || !(start > 0) || !(factor > 1) {
		panic(fmt.Sprintf("telemetry: ExponentialBuckets(%v, %v, %d): need n >= 1, start > 0, factor > 1", start, factor, n))
	}
	out := make([]float64, n)
	b := start
	for i := range out {
		out[i] = b
		b *= factor
	}
	return out
}
