package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStreamDeterminism(t *testing.T) {
	a := NewSource(42).Stream(7)
	b := NewSource(42).Stream(7)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d: streams diverged: %d != %d", i, av, bv)
		}
	}
}

func TestStreamIndependenceByIndex(t *testing.T) {
	a := NewSource(42).Stream(0)
	b := NewSource(42).Stream(1)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams 0 and 1 collided on %d of 1000 draws", same)
	}
}

func TestStreamIndependenceBySeed(t *testing.T) {
	a := NewSource(1).Stream(0)
	b := NewSource(2).Stream(0)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided on %d of 1000 draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewStream(1)
	for i := 0; i < 100000; i++ {
		u := r.Float64()
		if u < 0 || u >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", u)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewStream(3)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

func TestExpMeanAndPositivity(t *testing.T) {
	r := NewStream(4)
	const n = 200000
	const rate = 3.0
	sum := 0.0
	for i := 0; i < n; i++ {
		x := r.Exp(rate)
		if x <= 0 {
			t.Fatalf("Exp returned non-positive %v", x)
		}
		sum += x
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.01 {
		t.Fatalf("Exp mean %v too far from %v", mean, 1/rate)
	}
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	NewStream(1).Exp(0)
}

func TestIntnBoundsProperty(t *testing.T) {
	r := NewStream(7)
	f := func(n uint8) bool {
		m := int(n%64) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnUniformity(t *testing.T) {
	r := NewStream(8)
	const n = 120000
	counts := make([]int, 6)
	for i := 0; i < n; i++ {
		counts[r.Intn(6)]++
	}
	for face, c := range counts {
		freq := float64(c) / n
		if math.Abs(freq-1.0/6) > 0.01 {
			t.Fatalf("face %d frequency %v", face, freq)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewStream(1).Intn(0)
}

func TestUniformRange(t *testing.T) {
	r := NewStream(9)
	for i := 0; i < 10000; i++ {
		v := r.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform(2,5) = %v", v)
		}
	}
}

func TestChoiceWeights(t *testing.T) {
	r := NewStream(10)
	weights := []float64{1, 0, 3}
	const n = 200000
	counts := make([]int, 3)
	for i := 0; i < n; i++ {
		counts[r.Choice(weights)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index chosen %d times", counts[1])
	}
	f0 := float64(counts[0]) / n
	if math.Abs(f0-0.25) > 0.01 {
		t.Fatalf("index 0 frequency %v, want ~0.25", f0)
	}
}

func TestChoiceNegativeWeightTreatedAsZero(t *testing.T) {
	r := NewStream(11)
	weights := []float64{-5, 1}
	for i := 0; i < 1000; i++ {
		if got := r.Choice(weights); got != 1 {
			t.Fatalf("Choice picked negative-weight index %d", got)
		}
	}
}

func TestChoicePanicsOnZeroTotal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Choice with zero total did not panic")
		}
	}()
	NewStream(1).Choice([]float64{0, 0})
}

func TestZeroStateAvoided(t *testing.T) {
	// Probe many (seed,index) pairs; none may yield an all-zero state,
	// which would make the generator emit a constant.
	for seed := uint64(0); seed < 64; seed++ {
		src := NewSource(seed)
		for idx := uint64(0); idx < 64; idx++ {
			st := src.Stream(idx)
			if st.s[0]|st.s[1]|st.s[2]|st.s[3] == 0 {
				t.Fatalf("zero state for seed=%d idx=%d", seed, idx)
			}
		}
	}
}

func TestMul64MatchesBigMultiplication(t *testing.T) {
	f := func(a, b uint64) bool {
		hi, lo := mul64(a, b)
		// Verify against the 4-limb schoolbook product.
		const mask = 0xffffffff
		aLo, aHi := a&mask, a>>32
		bLo, bHi := b&mask, b>>32
		ll := aLo * bLo
		lh := aLo * bHi
		hl := aHi * bLo
		hh := aHi * bHi
		carry := (ll>>32 + lh&mask + hl&mask) >> 32
		wantHi := hh + lh>>32 + hl>>32 + carry
		wantLo := a * b
		return hi == wantHi && lo == wantLo
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := NewStream(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkExp(b *testing.B) {
	r := NewStream(1)
	for i := 0; i < b.N; i++ {
		_ = r.Exp(2.5)
	}
}
