package ctmc

import (
	"errors"
	"math"
	"strings"
	"testing"

	"ahs/internal/rng"
	"ahs/internal/san"
	"ahs/internal/sim"
	"ahs/internal/stats"
)

func buildMM1K(k int, lambda, mu float64) (*san.Model, san.PlaceID) {
	b := san.NewBuilder("mm1k")
	q := b.Place("queue", 0)
	b.Timed(san.TimedActivity{
		Name:    "arrive",
		Enabled: func(m *san.Marking) bool { return m.Tokens(q) < k },
		Rate:    san.ConstRate(lambda),
		Input:   san.Produce(q, 1),
	})
	b.Timed(san.TimedActivity{
		Name:    "depart",
		Enabled: san.HasTokens(q, 1),
		Rate:    san.ConstRate(mu),
		Input:   san.Consume(q, 1),
	})
	return b.MustBuild(), q
}

func TestExploreMM1K(t *testing.T) {
	m, _ := buildMM1K(4, 1, 2)
	g, err := Explore(m, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumStates() != 5 {
		t.Fatalf("M/M/1/4 has %d states, want 5", g.NumStates())
	}
	// Interior states have 2 transitions, boundary states 1.
	if g.NumTransitions() != 8 {
		t.Fatalf("M/M/1/4 has %d transitions, want 8", g.NumTransitions())
	}
	if err := g.CheckGeneratorConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestSteadyStateMM1K(t *testing.T) {
	const k = 6
	const lambda, mu = 1.0, 2.0
	m, q := buildMM1K(k, lambda, mu)
	g, err := Explore(m, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pi, err := g.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	// Closed form: pi_i = rho^i (1-rho) / (1-rho^{k+1}).
	rho := lambda / mu
	norm := (1 - math.Pow(rho, k+1)) / (1 - rho)
	for i, mk := range g.States {
		level := mk.Tokens(q)
		want := math.Pow(rho, float64(level)) / norm
		if math.Abs(pi[i]-want) > 1e-8 {
			t.Errorf("pi[level %d] = %v, want %v", level, pi[i], want)
		}
	}
}

func TestTransientPureDeathExact(t *testing.T) {
	const rate = 0.7
	b := san.NewBuilder("death")
	alive := b.Place("alive", 1)
	b.Timed(san.TimedActivity{
		Name:    "die",
		Enabled: san.HasTokens(alive, 1),
		Rate:    san.ConstRate(rate),
		Input:   san.Consume(alive, 1),
	})
	m := b.MustBuild()
	g, err := Explore(m, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range []float64{0, 0.5, 1, 2, 5, 10} {
		got, err := g.TransientProbability(tp, san.HasTokens(alive, 1))
		if err != nil {
			t.Fatal(err)
		}
		want := math.Exp(-rate * tp)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("P(alive at %v) = %v, want %v", tp, got, want)
		}
	}
}

func TestFirstPassageErlangViaAbsorbing(t *testing.T) {
	// Poisson counter absorbed at 3: P(absorbed by t) = Erlang(3) CDF.
	const rate = 2.0
	b := san.NewBuilder("erlang")
	c := b.Place("count", 0)
	b.Timed(san.TimedActivity{
		Name:    "arrive",
		Enabled: func(m *san.Marking) bool { return m.Tokens(c) < 3 },
		Rate:    san.ConstRate(rate),
		Input:   san.Produce(c, 1),
	})
	m := b.MustBuild()
	g, err := Explore(m, ExploreOptions{Absorb: san.HasTokens(c, 3)})
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range []float64{0.1, 0.5, 1, 2} {
		got, err := g.TransientProbability(tp, san.HasTokens(c, 3))
		if err != nil {
			t.Fatal(err)
		}
		lt := rate * tp
		want := 1 - math.Exp(-lt)*(1+lt+lt*lt/2)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("P(T<=%v) = %v, want %v", tp, got, want)
		}
	}
}

func TestInstantCaseBranchingProducesSplitArcs(t *testing.T) {
	// A timed activity drops a token into a trigger place; an instantaneous
	// activity routes it 30/70 into two terminal places.
	b := san.NewBuilder("branch")
	trig := b.Place("trig", 0)
	left := b.Place("left", 0)
	right := b.Place("right", 0)
	b.Timed(san.TimedActivity{
		Name:    "go",
		Enabled: san.AllOf(san.Not(san.HasTokens(left, 1)), san.Not(san.HasTokens(right, 1)), san.Not(san.HasTokens(trig, 1))),
		Rate:    san.ConstRate(4),
		Input:   san.Produce(trig, 1),
	})
	b.Instant(san.InstantActivity{
		Name:    "route",
		Enabled: san.HasTokens(trig, 1),
		Input:   san.Consume(trig, 1),
		Cases: []san.Case{
			{Weight: san.ConstWeight(0.3), Output: san.Produce(left, 1)},
			{Weight: san.ConstWeight(0.7), Output: san.Produce(right, 1)},
		},
	})
	m := b.MustBuild()
	g, err := Explore(m, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumStates() != 3 {
		t.Fatalf("expected 3 stable states, got %d", g.NumStates())
	}
	arcs := g.Arcs(g.Initial)
	if len(arcs) != 2 {
		t.Fatalf("expected 2 split arcs, got %d", len(arcs))
	}
	rates := map[int]float64{}
	for _, a := range arcs {
		rates[a.To] = a.Rate
	}
	var leftRate, rightRate float64
	for to, r := range rates {
		if g.States[to].Tokens(left) == 1 {
			leftRate = r
		}
		if g.States[to].Tokens(right) == 1 {
			rightRate = r
		}
	}
	if math.Abs(leftRate-1.2) > 1e-12 || math.Abs(rightRate-2.8) > 1e-12 {
		t.Fatalf("split rates %v / %v, want 1.2 / 2.8", leftRate, rightRate)
	}
	// Terminal states must be deadlocks without arcs.
	for s := range g.States {
		if s != g.Initial && len(g.Arcs(s)) != 0 {
			t.Fatalf("terminal state %d has arcs %v", s, g.Arcs(s))
		}
	}
}

func TestExploreMaxStates(t *testing.T) {
	// Unbounded Poisson counter exceeds any state cap.
	b := san.NewBuilder("unbounded")
	c := b.Place("count", 0)
	b.Timed(san.TimedActivity{Name: "arrive", Rate: san.ConstRate(1), Input: san.Produce(c, 1)})
	m := b.MustBuild()
	_, err := Explore(m, ExploreOptions{MaxStates: 100})
	if !errors.Is(err, ErrStateSpaceTooLarge) {
		t.Fatalf("expected ErrStateSpaceTooLarge, got %v", err)
	}
}

func TestTransientDistributionSumsToOne(t *testing.T) {
	m, _ := buildMM1K(5, 3, 2)
	g, err := Explore(m, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range []float64{0, 0.3, 1, 10, 100} {
		dist, err := g.TransientDistribution(tp)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, p := range dist {
			if p < -1e-15 {
				t.Fatalf("negative probability %v at t=%v", p, tp)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("distribution at t=%v sums to %v", tp, sum)
		}
	}
}

func TestTransientConvergesToSteadyState(t *testing.T) {
	m, q := buildMM1K(4, 1, 2)
	g, err := Explore(m, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := g.TransientDistribution(200)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := g.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	for i := range dist {
		if math.Abs(dist[i]-pi[i]) > 1e-6 {
			t.Errorf("state %d (level %d): transient %v vs steady %v",
				i, g.States[i].Tokens(q), dist[i], pi[i])
		}
	}
}

func TestTransientRejectsNegativeTime(t *testing.T) {
	m, _ := buildMM1K(3, 1, 1)
	g, err := Explore(m, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.TransientDistribution(-1); err == nil {
		t.Fatal("expected error for negative time")
	}
}

func TestStatesWhere(t *testing.T) {
	m, q := buildMM1K(4, 1, 1)
	g, err := Explore(m, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	full := g.StatesWhere(san.HasTokens(q, 4))
	if len(full) != 1 {
		t.Fatalf("expected exactly one full state, got %d", len(full))
	}
	all := g.StatesWhere(func(*san.Marking) bool { return true })
	if len(all) != g.NumStates() {
		t.Fatal("StatesWhere(true) must return all states")
	}
}

// TestSimulatorMatchesCTMCOnMM1K is the cross-validation anchoring the whole
// stack: the race-semantics simulator and the uniformization solver must
// agree on a transient measure.
func TestSimulatorMatchesCTMCOnMM1K(t *testing.T) {
	const k = 5
	const lambda, mu = 2.0, 1.5
	const horizon = 3.0
	m, q := buildMM1K(k, lambda, mu)

	g, err := Explore(m, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantFull, err := g.TransientProbability(horizon, san.HasTokens(q, k))
	if err != nil {
		t.Fatal(err)
	}

	r, err := sim.NewRunner(m, sim.Options{MaxTime: horizon})
	if err != nil {
		t.Fatal(err)
	}
	probe := &sim.Probe{
		Times: []float64{horizon},
		Value: func(mk *san.Marking) float64 {
			if mk.Tokens(q) == k {
				return 1
			}
			return 0
		},
	}
	src := rng.NewSource(42)
	var acc stats.Welford
	const batches = 20000
	for i := 0; i < batches; i++ {
		if _, err := r.Run(src.Stream(uint64(i)), probe); err != nil {
			t.Fatal(err)
		}
		acc.Add(probe.Values[0])
	}
	tol := 5 * acc.StdErr()
	if math.Abs(acc.Mean()-wantFull) > tol {
		t.Fatalf("simulator %v vs ctmc %v (tol %v)", acc.Mean(), wantFull, tol)
	}
}

func TestPoissonPMFNormalisation(t *testing.T) {
	for _, mean := range []float64{0.5, 5, 100, 2000} {
		sum := 0.0
		kmax := int(mean + 12*math.Sqrt(mean) + 30)
		for k := 0; k <= kmax; k++ {
			p := poissonPMF(mean, k)
			if p < 0 {
				t.Fatalf("negative pmf at mean=%v k=%d", mean, k)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("pmf(mean=%v) sums to %v", mean, sum)
		}
	}
	if poissonPMF(0, 0) != 1 || poissonPMF(0, 3) != 0 {
		t.Fatal("degenerate Poisson(0) pmf wrong")
	}
}

func BenchmarkTransientMM1K(b *testing.B) {
	m, _ := buildMM1K(20, 3, 2)
	g, err := Explore(m, ExploreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.TransientDistribution(10); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSteadyStateNonConvergence(t *testing.T) {
	m, _ := buildMM1K(4, 1, 2)
	g, err := Explore(m, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.steadyState(2); err == nil {
		t.Fatal("expected non-convergence error with 2 iterations")
	}
}

func TestSteadyStateFrozenChain(t *testing.T) {
	// A model whose single activity is never enabled has no dynamics: the
	// steady state is the initial state.
	b := san.NewBuilder("frozen")
	p := b.Place("p", 0)
	b.Timed(san.TimedActivity{
		Name:    "never",
		Enabled: san.HasTokens(p, 1),
		Rate:    san.ConstRate(1),
		Input:   san.Consume(p, 1),
	})
	m := b.MustBuild()
	g, err := Explore(m, ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pi, err := g.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	if pi[g.Initial] != 1 {
		t.Fatalf("frozen chain steady state %v", pi)
	}
}

func TestExploreReportsPanickingEffect(t *testing.T) {
	b := san.NewBuilder("drain")
	p := b.Place("p", 1)
	// Unguarded consume: fires again at p=0 and drives the marking negative.
	b.Timed(san.TimedActivity{Name: "drain", Rate: san.ConstRate(1), Input: san.Consume(p, 1)})
	_, err := Explore(b.MustBuild(), ExploreOptions{})
	var f *Fault
	if !errors.As(err, &f) || f.Panic == nil || f.Step.Phase != PhaseEffect || f.Step.Name != "drain" {
		t.Fatalf("want a panic fault in the effect of drain, got %v", err)
	}
	if got := f.Marking.Summary(); got != "{empty}" {
		t.Errorf("witness %s, want the marking the effect was changing", got)
	}
}

func TestExploreRejectsGeneralDelays(t *testing.T) {
	b := san.NewBuilder("general")
	p := b.Place("p", 1)
	b.Timed(san.TimedActivity{Name: "wait", Enabled: san.HasTokens(p, 1), Delay: san.Deterministic{Value: 1}, Input: san.Consume(p, 1)})
	if _, err := Explore(b.MustBuild(), ExploreOptions{}); err == nil || !strings.Contains(err.Error(), "wait") {
		t.Fatalf("want an error naming the non-exponential activity, got %v", err)
	}
}

func TestExploreLivelockIsAnError(t *testing.T) {
	b := san.NewBuilder("livelock")
	p := b.Place("p", 1)
	b.Timed(san.TimedActivity{Name: "t", Rate: san.ConstRate(1)})
	b.Instant(san.InstantActivity{Name: "spin", Enabled: san.HasTokens(p, 1)})
	if _, err := Explore(b.MustBuild(), ExploreOptions{}); !errors.Is(err, ErrLivelock) {
		t.Fatalf("want ErrLivelock, got %v", err)
	}
}

func TestExploreRejectsProbabilisticInitialMarking(t *testing.T) {
	b := san.NewBuilder("coin")
	coin := b.Place("coin", 1)
	heads := b.Place("heads", 0)
	b.Timed(san.TimedActivity{Name: "t", Rate: san.ConstRate(1)})
	b.Instant(san.InstantActivity{
		Name: "toss", Enabled: san.HasTokens(coin, 1), Input: san.Consume(coin, 1),
		Cases: []san.Case{{Output: san.Produce(heads, 1)}, {}},
	})
	if _, err := Explore(b.MustBuild(), ExploreOptions{}); err == nil || !strings.Contains(err.Error(), "2 states") {
		t.Fatalf("want the two-state initial closure rejected, got %v", err)
	}
}
