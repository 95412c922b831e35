package ctmc

import (
	"errors"
	"math"
	"testing"

	"ahs/internal/core"
	"ahs/internal/san"
)

// buildErlangChain returns a pure-birth chain absorbed at k.
func buildErlangChain(k int, rate float64) (*san.Model, san.PlaceID) {
	b := san.NewBuilder("erlang")
	c := b.Place("count", 0)
	b.Timed(san.TimedActivity{
		Name:    "step",
		Enabled: func(m *san.Marking) bool { return m.Tokens(c) < k },
		Rate:    san.ConstRate(rate),
		Input:   san.Produce(c, 1),
	})
	return b.MustBuild(), c
}

func TestMeanTimeToErlang(t *testing.T) {
	// Mean first-passage of a pure-birth chain to k is k/rate exactly.
	const k, rate = 5, 2.0
	m, c := buildErlangChain(k, rate)
	g, err := Explore(m, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.MeanTimeTo(san.HasTokens(c, k))
	if err != nil {
		t.Fatal(err)
	}
	want := float64(k) / rate
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("MTTA %v, want %v", got, want)
	}
}

func TestMeanTimeToMM1KFullBuffer(t *testing.T) {
	// Busy-cycle first passage 0 -> K of an M/M/1/K queue; verified via
	// the standard recursion m_i = mean passage time from i to i+1:
	// m_0 = 1/λ, m_i = 1/λ + (μ/λ)·m_{i-1}; MTTA = Σ m_i.
	const k = 5
	const lambda, mu = 1.0, 2.0
	m, q := buildMM1K(k, lambda, mu)
	g, err := Explore(m, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.MeanTimeTo(san.HasTokens(q, k))
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	mi := 0.0
	for i := 0; i < k; i++ {
		if i == 0 {
			mi = 1 / lambda
		} else {
			mi = 1/lambda + (mu/lambda)*mi
		}
		want += mi
	}
	if math.Abs(got-want) > 1e-6*want {
		t.Fatalf("MTTA %v, want %v", got, want)
	}
}

func TestMeanTimeToTargetAtStart(t *testing.T) {
	m, c := buildErlangChain(3, 1)
	g, err := Explore(m, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.MeanTimeTo(san.HasTokens(c, 0))
	if err != nil || got != 0 {
		t.Fatalf("MTTA to initial state = %v, %v", got, err)
	}
}

func TestMeanTimeToUnreachable(t *testing.T) {
	m, c := buildErlangChain(3, 1)
	g, err := Explore(m, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.MeanTimeTo(san.HasTokens(c, 99)); !errors.Is(err, ErrUnreachableTarget) {
		t.Fatalf("expected ErrUnreachableTarget, got %v", err)
	}
}

func TestMeanTimeToInfiniteWhenMissable(t *testing.T) {
	// Branching chain: from the start, one case goes to a "good" absorbing
	// state, the other to a "bad" one; mean time to "good" is infinite.
	b := san.NewBuilder("branch")
	good := b.Place("good", 0)
	bad := b.Place("bad", 0)
	start := b.Place("start", 1)
	b.Timed(san.TimedActivity{
		Name:    "go",
		Enabled: san.HasTokens(start, 1),
		Rate:    san.ConstRate(1),
		Input:   san.Consume(start, 1),
		Cases: []san.Case{
			{Weight: san.ConstWeight(0.5), Output: san.Produce(good, 1)},
			{Weight: san.ConstWeight(0.5), Output: san.Produce(bad, 1)},
		},
	})
	m := b.MustBuild()
	g, err := Explore(m, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.MeanTimeTo(san.HasTokens(good, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got, 1) {
		t.Fatalf("MTTA %v, want +Inf", got)
	}
	// And the absorption probability is exactly one half.
	p, err := g.AbsorptionProbability(san.HasTokens(good, 1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.5) > 1e-9 {
		t.Fatalf("absorption probability %v, want 0.5", p)
	}
}

func TestAbsorptionProbabilityCertainEvent(t *testing.T) {
	m, c := buildErlangChain(4, 3)
	g, err := Explore(m, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := g.AbsorptionProbability(san.HasTokens(c, 4))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-1) > 1e-9 {
		t.Fatalf("absorption probability %v, want 1", p)
	}
	// Already satisfied at start.
	p, err = g.AbsorptionProbability(san.HasTokens(c, 0))
	if err != nil || p != 1 {
		t.Fatalf("trivial absorption = %v, %v", p, err)
	}
}

// TestCertainAbsorptionOnStiffChain pins the exact answer on a chain whose
// Gauss-Seidel sweeps barely move: the catastrophe is reached only through
// a state that returns to the start a billion times faster, so the
// iterates approach 1 by about 1e-9 per sweep, far beyond a sweep limit of
// 1000.
func TestCertainAbsorptionOnStiffChain(t *testing.T) {
	b := san.NewBuilder("stiff")
	up := b.Place("up", 0)
	ko := b.Place("ko", 0)
	alive := func(want int) san.Predicate {
		return func(m *san.Marking) bool { return m.Tokens(ko) == 0 && m.Tokens(up) == want }
	}
	b.Timed(san.TimedActivity{Name: "rise", Enabled: alive(0), Rate: san.ConstRate(1), Input: san.Produce(up, 1)})
	b.Timed(san.TimedActivity{Name: "fall", Enabled: alive(1), Rate: san.ConstRate(1e9), Input: san.Consume(up, 1)})
	b.Timed(san.TimedActivity{Name: "fail", Enabled: alive(1), Rate: san.ConstRate(1), Input: san.Produce(ko, 1)})
	g, err := Explore(b.MustBuild(), ExploreOptions{Absorb: san.HasTokens(ko, 1)})
	if err != nil {
		t.Fatal(err)
	}
	const sweeps = 1000
	p, err := g.absorptionProbability(san.HasTokens(ko, 1), 0, sweeps)
	if err != nil || p != 1 {
		t.Fatalf("absorption probability %v, %v; want exactly 1", p, err)
	}
	// The mean time (1e9+2 hours) has no such shortcut: Gauss-Seidel's
	// failure to converge is reported as such, and the direct solve,
	// which MeanTimeTo uses on a chain this small, answers it.
	if _, err := g.meanTimeTo(san.HasTokens(ko, 1), 0, sweeps); !errors.Is(err, ErrNotConverged) {
		t.Fatalf("mean time error %v, want ErrNotConverged", err)
	}
	if mean, err := g.MeanTimeTo(san.HasTokens(ko, 1)); err != nil || math.Abs(mean-(1e9+2)) > 1e-6*(1e9+2) {
		t.Fatalf("mean time %v, %v; want 1e9+2", mean, err)
	}
	// An unreachable target is exactly 0.
	if p, err := g.absorptionProbability(san.HasTokens(up, 2), 0, sweeps); err != nil || p != 0 {
		t.Fatalf("unreachable absorption probability %v, %v; want exactly 0", p, err)
	}
}

// buildLeakyChain returns the chain up=0 ⇄ up=1 (rise at rate 1, fall at
// rate fall) that fails into ko from up=1 at rate 1 and leaks out of up=0
// into gone at rate exit; ko and gone absorb.
func buildLeakyChain(fall, exit float64) (*san.Model, san.PlaceID) {
	b := san.NewBuilder("leaky")
	up := b.Place("up", 0)
	ko := b.Place("ko", 0)
	gone := b.Place("gone", 0)
	alive := func(want int) san.Predicate {
		return func(m *san.Marking) bool {
			return m.Tokens(ko) == 0 && m.Tokens(gone) == 0 && m.Tokens(up) == want
		}
	}
	b.Timed(san.TimedActivity{Name: "rise", Enabled: alive(0), Rate: san.ConstRate(1), Input: san.Produce(up, 1)})
	b.Timed(san.TimedActivity{Name: "fall", Enabled: alive(1), Rate: san.ConstRate(fall), Input: san.Consume(up, 1)})
	b.Timed(san.TimedActivity{Name: "fail", Enabled: alive(1), Rate: san.ConstRate(1), Input: san.Produce(ko, 1)})
	b.Timed(san.TimedActivity{Name: "exit", Enabled: alive(0), Rate: san.ConstRate(exit), Input: san.Produce(gone, 1)})
	return b.MustBuild(), ko
}

// TestAbsorptionProbabilityOnStiffLeakyChain solves an absorption
// probability that neither shortcut answers, on a chain whose
// Gauss-Seidel sweeps barely move (the fall rate is 1e9 and the leak
// 1e-9). The exact answer is p = 1/(1 + 1e-9·(1e9+1)). Partial pivoting
// cancels digits on this chain, so the direct solve is held to 1e-6
// relative.
func TestAbsorptionProbabilityOnStiffLeakyChain(t *testing.T) {
	m, ko := buildLeakyChain(1e9, 1e-9)
	g, err := Explore(m, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.States) != 4 {
		t.Fatalf("%d states, want 4", len(g.States))
	}
	p, err := g.AbsorptionProbability(san.HasTokens(ko, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / (1 + 1e-9*(1e9+1))
	t.Logf("absorption probability %.10g, exact %.11g", p, want)
	if math.Abs(p-want) > 1e-6*want {
		t.Fatalf("absorption probability %v, want %v within 1e-6 relative", p, want)
	}
}

// TestMeanTimeToOnStiffChurnChain solves the n=1 paper model with vehicles
// joining, leaving and changing platoons (815 states, exit rates spread
// over six decades), on which Gauss-Seidel stalls: the direct solve must
// answer, and its solution must satisfy every transient state's equation
// E_s·t_s − Σ_j r_sj·t_j = 1.
func TestMeanTimeToOnStiffChurnChain(t *testing.T) {
	p := core.DefaultParams()
	p.N = 1
	p.Lambda = 1e-5
	p.JoinRate, p.LeaveRate, p.ChangeRate = 12, 4, 6
	p.TrackOutcomes = false
	sys := core.MustBuild(p)
	g, err := Explore(sys.Model, ExploreOptions{Absorb: sys.Unsafe})
	if err != nil {
		t.Fatal(err)
	}
	mean, err := g.MeanTimeTo(sys.Unsafe)
	if err != nil {
		t.Fatal(err)
	}
	if !(mean > 0) || math.IsInf(mean, 1) {
		t.Fatalf("mean time to catastrophe %v, want finite and positive", mean)
	}
	if _, err := g.meanTimeTo(sys.Unsafe, 0, 1000); !errors.Is(err, ErrNotConverged) {
		t.Fatalf("1000 Gauss-Seidel sweeps: %v, want ErrNotConverged", err)
	}
	target := make([]bool, len(g.States))
	for s, mk := range g.States {
		target[s] = sys.Unsafe(mk)
	}
	times, err := g.meanTimes(target, maxDirectUnknowns, 0)
	if err != nil {
		t.Fatal(err)
	}
	if times[g.Initial] != mean {
		t.Fatalf("initial state's mean time %v, MeanTimeTo %v", times[g.Initial], mean)
	}
	worst := 0.0
	for s, row := range g.rows {
		if target[s] {
			continue
		}
		flow := g.exitRate[s] * times[s]
		for _, a := range row {
			flow -= a.Rate * times[a.To]
		}
		worst = max(worst, math.Abs(flow-1)/(g.exitRate[s]*times[s]))
	}
	t.Logf("%d states, mean time %.4g h, largest relative residual %.2g", len(g.States), mean, worst)
	if worst > 1e-9 {
		t.Fatalf("largest relative residual %.3g, want at most 1e-9", worst)
	}
}

// TestMeanTimeToGaussSeidelMatchesDirect solves the mean times of the
// Erlang and M/M/1/K chains and the absorption probability of a leaky
// chain both ways.
func TestMeanTimeToGaussSeidelMatchesDirect(t *testing.T) {
	erlang, c := buildErlangChain(5, 2)
	mm1k, q := buildMM1K(5, 1, 2)
	leaky, ko := buildLeakyChain(2, 0.5)
	for _, tc := range []struct {
		model      *san.Model
		target     san.Predicate
		absorption bool // solve the absorption probability, not the mean time
	}{
		{erlang, san.HasTokens(c, 5), false},
		{mm1k, san.HasTokens(q, 5), false},
		{leaky, san.HasTokens(ko, 1), true},
	} {
		g, err := Explore(tc.model, ExploreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		solve := g.meanTimeTo
		if tc.absorption {
			solve = g.absorptionProbability
		}
		direct, err := solve(tc.target, maxDirectUnknowns, 0)
		if err != nil {
			t.Fatal(err)
		}
		iterated, err := solve(tc.target, 0, maxSweeps)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(direct-iterated) > 1e-9*direct {
			t.Fatalf("%s: direct solve %v, Gauss-Seidel %v", tc.model.Name(), direct, iterated)
		}
	}
}

func TestMeanTimeToAgreesWithTransientTail(t *testing.T) {
	// For a certain absorbing event, MTTA = ∫ (1 - F(t)) dt; approximate
	// the integral from the uniformization CDF and compare.
	const k, rate = 3, 1.5
	m, c := buildErlangChain(k, rate)
	g, err := Explore(m, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	target := san.HasTokens(c, k)
	mtta, err := g.MeanTimeTo(target)
	if err != nil {
		t.Fatal(err)
	}
	integral := 0.0
	const dt = 0.01
	for x := 0.0; x < 40; x += dt {
		cdf, err := g.TransientProbability(x+dt/2, target)
		if err != nil {
			t.Fatal(err)
		}
		integral += (1 - cdf) * dt
	}
	if math.Abs(integral-mtta) > 0.01*mtta {
		t.Fatalf("MTTA %v vs integral of survival %v", mtta, integral)
	}
}
