// Package stats provides streaming estimators and confidence intervals for
// Monte-Carlo output analysis.
//
// The paper (§4.1) stops simulation when each point estimate has converged
// "within 95% probability in a 0.1 relative interval"; RelativeStopRule
// implements exactly that criterion on top of a Welford accumulator.
package stats

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// Welford accumulates mean and variance in a single numerically stable pass.
// The zero value is an empty accumulator ready to use.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// AddN folds n identical observations into the accumulator. This is the
// common case for Bernoulli outputs where most trajectories contribute zero.
func (w *Welford) AddN(x float64, n uint64) {
	if n == 0 {
		return
	}
	other := Welford{n: n, mean: x}
	w.Merge(&other)
}

// Merge folds another accumulator into w (parallel Welford / Chan et al.).
func (w *Welford) Merge(o *Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = *o
		return
	}
	n := w.n + o.n
	delta := o.mean - w.mean
	w.m2 += o.m2 + delta*delta*float64(w.n)*float64(o.n)/float64(n)
	w.mean += delta * float64(o.n) / float64(n)
	w.n = n
}

// welfordJSON is the wire form of a Welford snapshot: the three sufficient
// statistics, spelled out. encoding/json renders float64 values with the
// shortest representation that round-trips exactly, so decode(encode(w)) is
// bit-identical to w and merging a decoded snapshot behaves exactly like
// merging the original — the property the distributed estimator relies on.
type welfordJSON struct {
	N    uint64  `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
}

// MarshalJSON encodes the accumulator as {"n":..,"mean":..,"m2":..}.
func (w Welford) MarshalJSON() ([]byte, error) {
	return json.Marshal(welfordJSON{N: w.n, Mean: w.mean, M2: w.m2})
}

// UnmarshalJSON decodes a snapshot produced by MarshalJSON. It rejects
// snapshots that no accumulation could have produced (negative second
// moment, statistics without observations, non-finite values), so corrupted
// wire data fails loudly instead of poisoning a merged estimate.
func (w *Welford) UnmarshalJSON(b []byte) error {
	var wire welfordJSON
	if err := json.Unmarshal(b, &wire); err != nil {
		return fmt.Errorf("stats: decode welford: %w", err)
	}
	if math.IsNaN(wire.Mean) || math.IsInf(wire.Mean, 0) ||
		math.IsNaN(wire.M2) || math.IsInf(wire.M2, 0) {
		return errors.New("stats: decode welford: non-finite statistic")
	}
	if wire.M2 < 0 {
		return fmt.Errorf("stats: decode welford: negative m2 %v", wire.M2)
	}
	if wire.N == 0 && (wire.Mean != 0 || wire.M2 != 0) {
		return errors.New("stats: decode welford: statistics without observations")
	}
	w.n, w.mean, w.m2 = wire.N, wire.Mean, wire.M2
	return nil
}

// N returns the number of observations.
func (w *Welford) N() uint64 { return w.n }

// Mean returns the sample mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// StdErr returns the standard error of the mean (0 when empty).
func (w *Welford) StdErr() float64 {
	if w.n == 0 {
		return 0
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}

// Interval is a two-sided confidence interval around a point estimate.
type Interval struct {
	Point      float64
	Lo, Hi     float64
	Confidence float64
	N          uint64
}

// HalfWidth returns the half-width of the interval.
func (iv Interval) HalfWidth() float64 { return (iv.Hi - iv.Lo) / 2 }

// RelativeHalfWidth returns half-width / |point|, or +Inf when the point
// estimate is zero (no relative precision can be claimed yet).
func (iv Interval) RelativeHalfWidth() float64 {
	if iv.Point == 0 {
		return math.Inf(1)
	}
	return iv.HalfWidth() / math.Abs(iv.Point)
}

// String renders the interval as "p ∈ [lo, hi] (c% CI, n=N)".
func (iv Interval) String() string {
	return fmt.Sprintf("%.6g in [%.6g, %.6g] (%.0f%% CI, n=%d)",
		iv.Point, iv.Lo, iv.Hi, iv.Confidence*100, iv.N)
}

// CI returns the confidence interval for the mean at the given confidence
// level using the Student-t critical value for n-1 degrees of freedom
// (normal critical value for large n). For n < 2 the interval is the point.
func (w *Welford) CI(confidence float64) Interval {
	iv := Interval{Point: w.mean, Lo: w.mean, Hi: w.mean, Confidence: confidence, N: w.n}
	if w.n < 2 {
		return iv
	}
	t := tCritical(confidence, w.n-1)
	h := t * w.StdErr()
	iv.Lo, iv.Hi = w.mean-h, w.mean+h
	return iv
}

// NormalQuantile returns the p-quantile of the standard normal distribution
// using the Acklam rational approximation (|error| < 1.15e-9).
func NormalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		if p == 0 {
			return math.Inf(-1)
		}
		if p == 1 {
			return math.Inf(1)
		}
		return math.NaN()
	}
	// Coefficients for the central and tail regions.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const pLow, pHigh = 0.02425, 1 - 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > pHigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}

// tCritical returns the two-sided Student-t critical value for the given
// confidence level and degrees of freedom. For df >= 200 it falls back to
// the normal quantile; below that it refines the normal quantile with the
// Cornish-Fisher expansion, which is accurate to ~1e-3 for df >= 3 and
// adequate for stopping rules.
func tCritical(confidence float64, df uint64) float64 {
	alpha := 1 - confidence
	z := NormalQuantile(1 - alpha/2)
	if df >= 200 {
		return z
	}
	if df == 0 {
		return math.Inf(1)
	}
	// Cornish-Fisher expansion of the t quantile in terms of z.
	v := float64(df)
	z3 := z * z * z
	z5 := z3 * z * z
	z7 := z5 * z * z
	g1 := (z3 + z) / 4
	g2 := (5*z5 + 16*z3 + 3*z) / 96
	g3 := (3*z7 + 19*z5 + 17*z3 - 15*z) / 384
	t := z + g1/v + g2/(v*v) + g3/(v*v*v)
	// Small-df guardrails: the expansion under-estimates for df <= 2.
	if df == 1 {
		return math.Tan(math.Pi / 2 * confidence)
	}
	if df == 2 {
		p := 1 - alpha/2
		return (2*p - 1) * math.Sqrt(2/(1-(2*p-1)*(2*p-1)))
	}
	return t
}

// RelativeStopRule is the paper's convergence criterion: stop when the
// confidence interval at the configured level has relative half-width below
// MaxRelHalfWidth, after at least MinSamples observations.
type RelativeStopRule struct {
	Confidence      float64 // e.g. 0.95
	MaxRelHalfWidth float64 // e.g. 0.1
	MinSamples      uint64  // e.g. 10000
}

// PaperStopRule returns the criterion used in §4.1 of the paper: 95%
// confidence, 0.1 relative interval, at least 10000 batches.
func PaperStopRule() RelativeStopRule {
	return RelativeStopRule{Confidence: 0.95, MaxRelHalfWidth: 0.1, MinSamples: 10000}
}

// Satisfied reports whether the accumulator meets the stopping criterion.
func (r RelativeStopRule) Satisfied(w *Welford) bool {
	if w.N() < r.MinSamples || w.N() < 2 {
		return false
	}
	return w.CI(r.Confidence).RelativeHalfWidth() <= r.MaxRelHalfWidth
}
