// Package rng provides deterministic, splittable pseudo-random number
// generation for Monte-Carlo simulation.
//
// The generator is xoshiro256++ seeded via splitmix64, following the
// reference construction by Blackman and Vigna. Each simulation batch runs
// on its own Stream derived from a root seed and a stream index, so results
// are reproducible regardless of scheduling and parallelism.
package rng

import "math"

// Stream is a single xoshiro256++ pseudo-random stream.
//
// A Stream is not safe for concurrent use; give each goroutine its own
// Stream (see Source.Stream).
type Stream struct {
	s [4]uint64
}

// Source derives independent Streams from one root seed.
type Source struct {
	seed uint64
}

// NewSource returns a Source rooted at seed.
func NewSource(seed uint64) *Source {
	return &Source{seed: seed}
}

// Stream returns the stream with the given index. Streams with distinct
// indices are statistically independent: the state is derived by running
// splitmix64 from a combination of the root seed and the index.
func (s *Source) Stream(index uint64) *Stream {
	// golden gamma offsets decorrelate (seed, index) pairs.
	x := s.seed ^ (index * 0x9e3779b97f4a7c15)
	st := &Stream{}
	for i := range st.s {
		x = splitmix64(&x)
		st.s[i] = x
	}
	// Avoid the all-zero state, which is a fixed point of xoshiro.
	if st.s[0]|st.s[1]|st.s[2]|st.s[3] == 0 {
		st.s[0] = 0x9e3779b97f4a7c15
	}
	return st
}

// NewStream returns a standalone stream seeded from seed.
func NewStream(seed uint64) *Stream {
	return NewSource(seed).Stream(0)
}

func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Stream) Uint64() uint64 {
	result := rotl(r.s[0]+r.s[3], 23) + r.s[0]
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) * 0x1p-53
}

// Float64Open returns a uniform float64 in (0, 1), never exactly zero,
// suitable as input to -log(u) style inversions.
func (r *Stream) Float64Open() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return u
		}
	}
}

// Exp returns an exponentially distributed value with the given rate
// (events per unit time). It panics if rate <= 0; sampling a disabled
// activity is a programming error in the simulation layer.
func (r *Stream) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp requires rate > 0")
	}
	return -math.Log(r.Float64Open()) / rate
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn requires n > 0")
	}
	// Lemire's nearly-divisionless bounded generation.
	bound := uint64(n)
	x := r.Uint64()
	hi, lo := mul64(x, bound)
	if lo < bound {
		threshold := (-bound) % bound
		for lo < threshold {
			x = r.Uint64()
			hi, lo = mul64(x, bound)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aLo * bHi
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}

// Uniform returns a uniform float64 in [lo, hi).
func (r *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Choice returns an index in [0, len(weights)) drawn with probability
// proportional to weights[i]. Non-positive weights are treated as zero.
// It panics if the total weight is not positive.
func (r *Stream) Choice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("rng: Choice requires positive total weight")
	}
	u := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if u < acc {
			return i
		}
	}
	// Floating-point slack: return the last positive-weight index.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	panic("rng: unreachable")
}
