package main

import (
	"fmt"
	"math"
	"sort"
)

// dist is a sorted sample of measurements, kept whole so that every
// percentile is reported with the number of samples behind it.
type dist struct {
	sorted []float64
}

func newDist(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return dist{sorted: s}
}

func (d dist) n() int { return len(d.sorted) }

// quantile is the nearest-rank q-quantile: the smallest sample with at
// least q·n samples at or below it. It is 0 for an empty sample.
func (d dist) quantile(q float64) float64 {
	n := len(d.sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return d.sorted[rank-1]
}

// beyond counts the samples strictly above the q-quantile: a percentile is
// worth reporting only with at least ten of them.
func (d dist) beyond(q float64) int {
	v := d.quantile(q)
	i := sort.Search(len(d.sorted), func(i int) bool { return d.sorted[i] > v })
	return len(d.sorted) - i
}

func (d dist) sum() float64 {
	var s float64
	for _, x := range d.sorted {
		s += x
	}
	return s
}

func (d dist) mean() float64 {
	if len(d.sorted) == 0 {
		return 0
	}
	return d.sum() / float64(len(d.sorted))
}

// percentileNote renders a percentile with its sample count and how many
// samples lie beyond it, e.g. "p99 over 12000 samples (120 beyond)".
func (d dist) percentileNote(q float64) string {
	return fmt.Sprintf("p%g over %d samples (%d beyond)", q*100, d.n(), d.beyond(q))
}
