package sim

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"ahs/internal/rng"
	"ahs/internal/san"
	"ahs/internal/stats"
)

// buildPoisson returns a model with a single always-enabled arrival activity
// incrementing a counter place.
func buildPoisson(rate float64) (*san.Model, san.PlaceID) {
	b := san.NewBuilder("poisson")
	c := b.Place("count", 0)
	b.Timed(san.TimedActivity{
		Name:  "arrive",
		Rate:  san.ConstRate(rate),
		Input: san.Produce(c, 1),
	})
	return b.MustBuild(), c
}

// buildPureDeath returns a model where a single token dies at the given rate.
func buildPureDeath(rate float64) (*san.Model, san.PlaceID) {
	b := san.NewBuilder("death")
	alive := b.Place("alive", 1)
	b.Timed(san.TimedActivity{
		Name:    "die",
		Enabled: san.HasTokens(alive, 1),
		Rate:    san.ConstRate(rate),
		Input:   san.Consume(alive, 1),
	})
	return b.MustBuild(), alive
}

func TestPoissonCountMean(t *testing.T) {
	const rate, horizon = 2.0, 5.0
	m, c := buildPoisson(rate)
	r, err := NewRunner(m, Options{MaxTime: horizon})
	if err != nil {
		t.Fatal(err)
	}
	probe := &Probe{
		Times: []float64{1, 2.5, horizon},
		Value: func(mk *san.Marking) float64 { return float64(mk.Tokens(c)) },
	}
	src := rng.NewSource(1)
	accs := make([]stats.Welford, len(probe.Times))
	const batches = 4000
	for i := 0; i < batches; i++ {
		if _, err := r.Run(src.Stream(uint64(i)), probe); err != nil {
			t.Fatal(err)
		}
		for j, v := range probe.Values {
			if probe.Weights[j] != 1 {
				t.Fatalf("unbiased run has weight %v", probe.Weights[j])
			}
			accs[j].Add(v)
		}
	}
	for j, tp := range probe.Times {
		want := rate * tp
		got := accs[j].Mean()
		// 4 sigma of Poisson mean estimate.
		tol := 4 * math.Sqrt(want/batches)
		if math.Abs(got-want) > tol {
			t.Errorf("E[N(%v)] = %v, want %v ± %v", tp, got, want, tol)
		}
	}
}

func TestPureDeathSurvivalMatchesExponential(t *testing.T) {
	const rate, horizon = 0.7, 3.0
	m, alive := buildPureDeath(rate)
	r, err := NewRunner(m, Options{MaxTime: horizon})
	if err != nil {
		t.Fatal(err)
	}
	probe := &Probe{
		Times: []float64{0.5, 1.5, 3.0},
		Value: func(mk *san.Marking) float64 { return float64(mk.Tokens(alive)) },
	}
	src := rng.NewSource(2)
	accs := make([]stats.Welford, len(probe.Times))
	const batches = 20000
	for i := 0; i < batches; i++ {
		if _, err := r.Run(src.Stream(uint64(i)), probe); err != nil {
			t.Fatal(err)
		}
		for j, v := range probe.Values {
			accs[j].Add(v)
		}
	}
	for j, tp := range probe.Times {
		want := math.Exp(-rate * tp)
		got := accs[j].Mean()
		tol := 4 * math.Sqrt(want*(1-want)/batches)
		if math.Abs(got-want) > tol {
			t.Errorf("P(alive at %v) = %v, want %v ± %v", tp, got, want, tol)
		}
	}
}

func TestImportanceSamplingUnbiasedOnPureDeath(t *testing.T) {
	// Bias the death rate by 10x; the weighted estimator must still
	// recover exp(-rate*t).
	const rate, horizon = 0.05, 4.0
	m, alive := buildPureDeath(rate)
	bias := NewBias()
	if err := bias.SetByName(m, "die", 10); err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(m, Options{MaxTime: horizon, Bias: bias})
	if err != nil {
		t.Fatal(err)
	}
	probe := &Probe{
		Times: []float64{2, 4},
		Value: func(mk *san.Marking) float64 { return 1 - float64(mk.Tokens(alive)) }, // P(dead)
	}
	src := rng.NewSource(3)
	accs := make([]stats.Welford, len(probe.Times))
	const batches = 30000
	for i := 0; i < batches; i++ {
		if _, err := r.Run(src.Stream(uint64(i)), probe); err != nil {
			t.Fatal(err)
		}
		for j := range probe.Values {
			accs[j].Add(probe.Values[j] * probe.Weights[j])
		}
	}
	for j, tp := range probe.Times {
		want := 1 - math.Exp(-rate*tp)
		got := accs[j].Mean()
		tol := 5 * accs[j].StdErr()
		if math.Abs(got-want) > tol {
			t.Errorf("IS P(dead at %v) = %v, want %v ± %v", tp, got, want, tol)
		}
		// The whole point of IS: relative error far below naive MC's.
		if accs[j].Mean() > 0 && accs[j].StdErr()/accs[j].Mean() > 0.05 {
			t.Errorf("IS relative error at %v too large: %v", tp, accs[j].StdErr()/accs[j].Mean())
		}
	}
}

func TestImportanceSamplingAgreesWithNaiveOnStopMeasure(t *testing.T) {
	// First-passage estimate with and without bias must agree.
	const rate, horizon = 0.3, 2.0
	want := 1 - math.Exp(-rate*horizon)

	run := func(bias *Bias, seed uint64) (float64, float64) {
		m, alive := buildPureDeath(rate)
		r, err := NewRunner(m, Options{
			MaxTime: horizon,
			Bias:    bias,
			Stop:    func(mk *san.Marking) bool { return mk.Tokens(alive) == 0 },
		})
		if err != nil {
			t.Fatal(err)
		}
		src := rng.NewSource(seed)
		var acc stats.Welford
		const batches = 30000
		for i := 0; i < batches; i++ {
			res, err := r.Run(src.Stream(uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			if res.Stopped {
				acc.Add(res.StopWeight)
			} else {
				acc.Add(0)
			}
		}
		return acc.Mean(), acc.StdErr()
	}

	naive, naiveSE := run(nil, 4)
	b := NewBias()
	m, _ := buildPureDeath(rate)
	if err := b.SetByName(m, "die", 5); err != nil {
		t.Fatal(err)
	}
	biased, biasedSE := run(b, 5)

	if math.Abs(naive-want) > 5*naiveSE {
		t.Errorf("naive %v, want %v (se %v)", naive, want, naiveSE)
	}
	if math.Abs(biased-want) > 5*biasedSE {
		t.Errorf("biased %v, want %v (se %v)", biased, want, biasedSE)
	}
}

func TestStopPredicateFirstPassage(t *testing.T) {
	// First passage of a Poisson counter to 3 has Erlang(3, rate) law.
	const rate, horizon = 1.0, 100.0
	m, c := buildPoisson(rate)
	r, err := NewRunner(m, Options{
		MaxTime: horizon,
		Stop:    san.HasTokens(c, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.NewSource(6)
	var acc stats.Welford
	const batches = 10000
	for i := 0; i < batches; i++ {
		res, err := r.Run(src.Stream(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stopped {
			t.Fatal("trajectory did not stop before a generous horizon")
		}
		if res.StopWeight != 1 {
			t.Fatalf("unbiased stop weight %v", res.StopWeight)
		}
		if res.End != res.StopTime {
			t.Fatalf("End %v != StopTime %v", res.End, res.StopTime)
		}
		acc.Add(res.StopTime)
	}
	want := 3 / rate
	tol := 5 * acc.StdErr()
	if math.Abs(acc.Mean()-want) > tol {
		t.Errorf("mean first passage %v, want %v ± %v", acc.Mean(), want, tol)
	}
}

func TestStopFillsRemainingProbeTimes(t *testing.T) {
	m, c := buildPoisson(5)
	r, err := NewRunner(m, Options{
		MaxTime: 10,
		Stop:    san.HasTokens(c, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	probe := &Probe{
		Times: []float64{8, 9, 10},
		Value: func(mk *san.Marking) float64 { return float64(mk.Tokens(c)) },
	}
	res, err := r.Run(rng.NewStream(7), probe)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped || res.StopTime > 8 {
		t.Fatalf("expected early stop, got %+v", res)
	}
	for i, v := range probe.Values {
		if v != 1 || probe.Weights[i] != 1 {
			t.Fatalf("probe %d: value %v weight %v, want 1, 1", i, v, probe.Weights[i])
		}
	}
}

func TestDeadlockFillsProbes(t *testing.T) {
	m, alive := buildPureDeath(100) // dies almost immediately
	r, err := NewRunner(m, Options{MaxTime: 10})
	if err != nil {
		t.Fatal(err)
	}
	probe := &Probe{
		Times: []float64{5, 10},
		Value: func(mk *san.Marking) float64 { return float64(mk.Tokens(alive)) },
	}
	res, err := r.Run(rng.NewStream(8), probe)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlocked {
		t.Fatalf("expected deadlock, got %+v", res)
	}
	for i := range probe.Values {
		if probe.Values[i] != 0 {
			t.Fatalf("probe %d: value %v after death", i, probe.Values[i])
		}
	}
}

func TestProbeAtExactMaxTime(t *testing.T) {
	// A probe at exactly MaxTime must be filled even when no event lands
	// there.
	m, c := buildPoisson(0.001) // nearly no events
	r, err := NewRunner(m, Options{MaxTime: 2})
	if err != nil {
		t.Fatal(err)
	}
	probe := &Probe{
		Times: []float64{2},
		Value: func(mk *san.Marking) float64 { return float64(mk.Tokens(c)) + 7 },
	}
	if _, err := r.Run(rng.NewStream(9), probe); err != nil {
		t.Fatal(err)
	}
	if probe.Values[0] < 7 {
		t.Fatalf("probe at MaxTime not filled: %v", probe.Values[0])
	}
}

func TestInstantActivitiesFireInPriorityOrder(t *testing.T) {
	b := san.NewBuilder("inst")
	start := b.Place("start", 1)
	mid := b.Place("mid", 0)
	out := b.Place("done", 0)
	order := []string{}
	// Lower priority value fires first.
	b.Instant(san.InstantActivity{
		Name:     "second",
		Priority: 2,
		Enabled:  san.HasTokens(mid, 1),
		Input: func(m *san.Marking) {
			order = append(order, "second")
			m.Add(mid, -1)
			m.Add(out, 1)
		},
	})
	b.Instant(san.InstantActivity{
		Name:     "first",
		Priority: 1,
		Enabled:  san.HasTokens(start, 1),
		Input: func(m *san.Marking) {
			order = append(order, "first")
			m.Add(start, -1)
			m.Add(mid, 1)
		},
	})
	b.Timed(san.TimedActivity{Name: "tick", Rate: san.ConstRate(1)})
	m := b.MustBuild()
	r, err := NewRunner(m, Options{MaxTime: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(rng.NewStream(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.InstantFirings != 2 {
		t.Fatalf("instant firings %d", res.InstantFirings)
	}
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("firing order %v", order)
	}
}

func TestInstantLivelockDetected(t *testing.T) {
	b := san.NewBuilder("livelock")
	p := b.Place("p", 1)
	b.Instant(san.InstantActivity{
		Name:    "loop",
		Enabled: san.HasTokens(p, 1),
		// No marking change: stays enabled forever.
	})
	b.Timed(san.TimedActivity{Name: "tick", Rate: san.ConstRate(1)})
	m := b.MustBuild()
	r, err := NewRunner(m, Options{MaxTime: 1, MaxInstantFirings: 50})
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Run(rng.NewStream(11))
	if !errors.Is(err, ErrLivelock) {
		t.Fatalf("expected livelock error, got %v", err)
	}
}

func TestStepLimit(t *testing.T) {
	m, _ := buildPoisson(1000)
	r, err := NewRunner(m, Options{MaxTime: 1000, MaxSteps: 10})
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Run(rng.NewStream(12))
	if !errors.Is(err, ErrStepLimit) {
		t.Fatalf("expected step-limit error, got %v", err)
	}
}

func TestCaseProbabilities(t *testing.T) {
	b := san.NewBuilder("cases")
	left := b.Place("left", 0)
	right := b.Place("right", 0)
	b.Timed(san.TimedActivity{
		Name: "branch",
		Rate: san.ConstRate(10),
		Cases: []san.Case{
			{Weight: san.ConstWeight(0.3), Output: san.Produce(left, 1)},
			{Weight: san.ConstWeight(0.7), Output: san.Produce(right, 1)},
		},
	})
	m := b.MustBuild()
	r, err := NewRunner(m, Options{MaxTime: 1000})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(rng.NewStream(13))
	if err != nil {
		t.Fatal(err)
	}
	mk := m.InitialMarking()
	_ = mk
	total := float64(res.Steps)
	// Re-run with probes to read final marking via probe.
	probe := &Probe{
		Times: []float64{1000},
		Value: func(mk *san.Marking) float64 { return float64(mk.Tokens(left)) },
	}
	probe2 := &Probe{
		Times: []float64{1000},
		Value: func(mk *san.Marking) float64 { return float64(mk.Tokens(right)) },
	}
	res, err = r.Run(rng.NewStream(13), probe, probe2)
	if err != nil {
		t.Fatal(err)
	}
	total = probe.Values[0] + probe2.Values[0]
	frac := probe.Values[0] / total
	if math.Abs(frac-0.3) > 0.02 {
		t.Fatalf("case-0 fraction %v, want ~0.3 (n=%v)", frac, total)
	}
}

func TestTraceObserver(t *testing.T) {
	m, _ := buildPoisson(3)
	trace := &Trace{}
	r, err := NewRunner(m, Options{MaxTime: 2, Observer: trace})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(rng.NewStream(14))
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(trace.Events)) != res.Steps {
		t.Fatalf("trace has %d events, result has %d steps", len(trace.Events), res.Steps)
	}
	prev := 0.0
	for _, ev := range trace.Events {
		if ev.Time < prev {
			t.Fatal("trace times not monotone")
		}
		if ev.Activity != "arrive" {
			t.Fatalf("unexpected activity %q", ev.Activity)
		}
		prev = ev.Time
	}
	trace.Reset()
	if len(trace.Events) != 0 {
		t.Fatal("reset did not clear events")
	}
}

func TestRunnerValidation(t *testing.T) {
	m, _ := buildPoisson(1)
	if _, err := NewRunner(m, Options{}); err == nil {
		t.Fatal("expected error for zero MaxTime")
	}
	if _, err := NewRunner(m, Options{MaxTime: -1}); err == nil {
		t.Fatal("expected error for negative MaxTime")
	}
}

func TestProbeValidation(t *testing.T) {
	m, c := buildPoisson(1)
	r, err := NewRunner(m, Options{MaxTime: 5})
	if err != nil {
		t.Fatal(err)
	}
	value := func(mk *san.Marking) float64 { return float64(mk.Tokens(c)) }
	cases := []*Probe{
		{Times: []float64{2, 1}, Value: value},  // unsorted
		{Times: []float64{-1, 1}, Value: value}, // negative
		{Times: []float64{6}, Value: value},     // beyond MaxTime
		{Times: []float64{1}},                   // nil Value
	}
	for i, p := range cases {
		if _, err := r.Run(rng.NewStream(15), p); err == nil {
			t.Errorf("probe case %d: expected validation error", i)
		}
	}
}

func TestBiasValidation(t *testing.T) {
	m, _ := buildPoisson(1)
	b := NewBias()
	if err := b.SetByName(m, "nope", 2); err == nil {
		t.Fatal("expected unknown-activity error")
	}
	if err := b.Set(0, 0); err == nil {
		t.Fatal("expected invalid-factor error for 0")
	}
	if err := b.Set(0, math.Inf(1)); err == nil {
		t.Fatal("expected invalid-factor error for +Inf")
	}
	if !b.IsNeutral() {
		t.Fatal("bias with no successful sets must be neutral")
	}
	if err := b.Set(0, 3); err != nil {
		t.Fatal(err)
	}
	f0, err0 := b.FactorIn(0, nil)
	f5, err5 := b.FactorIn(5, nil)
	if b.IsNeutral() || f0 != 3 || f5 != 1 || err0 != nil || err5 != nil {
		t.Fatal("bias factors wrong")
	}
	var nilBias *Bias
	if f, err := nilBias.FactorIn(0, nil); f != 1 || err != nil || !nilBias.IsNeutral() {
		t.Fatal("nil bias must be neutral")
	}
}

func TestInvalidRateSurfacesError(t *testing.T) {
	b := san.NewBuilder("badrate")
	p := b.Place("p", 1)
	b.Timed(san.TimedActivity{
		Name:    "bad",
		Enabled: san.HasTokens(p, 1),
		Rate:    san.ConstRate(-1),
	})
	m := b.MustBuild()
	r, err := NewRunner(m, Options{MaxTime: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(rng.NewStream(16)); err == nil {
		t.Fatal("expected invalid-rate error at runtime")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	m, c := buildPoisson(2)
	r, err := NewRunner(m, Options{MaxTime: 10})
	if err != nil {
		t.Fatal(err)
	}
	probe := &Probe{
		Times: []float64{10},
		Value: func(mk *san.Marking) float64 { return float64(mk.Tokens(c)) },
	}
	res1, err := r.Run(rng.NewStream(77), probe)
	if err != nil {
		t.Fatal(err)
	}
	v1 := probe.Values[0]
	res2, err := r.Run(rng.NewStream(77), probe)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Steps != res2.Steps || v1 != probe.Values[0] {
		t.Fatal("same seed produced different trajectories")
	}
}

func BenchmarkPoissonTrajectory(b *testing.B) {
	m, _ := buildPoisson(10)
	r, err := NewRunner(m, Options{MaxTime: 10})
	if err != nil {
		b.Fatal(err)
	}
	src := rng.NewSource(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(src.Stream(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func TestAdaptiveBiasUnbiasedOnErlangTarget(t *testing.T) {
	// Force arrivals only while the counter is below 1; the weighted
	// estimate of P(N(t) >= 2) must still match the Erlang(2) CDF.
	const rate, horizon = 0.2, 2.0
	m, c := buildPoisson(rate)
	bias := NewBias()
	err := bias.SetFn(m.TimedIndex("arrive"), func(mk *san.Marking) float64 {
		if mk.Tokens(c) < 1 {
			return 8
		}
		return 1
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(m, Options{MaxTime: horizon, Bias: bias})
	if err != nil {
		t.Fatal(err)
	}
	probe := &Probe{
		Times: []float64{horizon},
		Value: func(mk *san.Marking) float64 {
			if mk.Tokens(c) >= 2 {
				return 1
			}
			return 0
		},
	}
	src := rng.NewSource(21)
	var acc stats.Welford
	const batches = 60000
	for i := 0; i < batches; i++ {
		if _, err := r.Run(src.Stream(uint64(i)), probe); err != nil {
			t.Fatal(err)
		}
		acc.Add(probe.Values[0] * probe.Weights[0])
	}
	lt := rate * horizon
	want := 1 - math.Exp(-lt)*(1+lt)
	if math.Abs(acc.Mean()-want) > 5*acc.StdErr() {
		t.Fatalf("adaptive IS %v, want %v (se %v)", acc.Mean(), want, acc.StdErr())
	}
}

func TestAdaptiveBiasValidation(t *testing.T) {
	m, _ := buildPoisson(1)
	b := NewBias()
	if err := b.SetFn(0, nil); err == nil {
		t.Fatal("expected error for nil factor function")
	}
	if err := b.SetFn(m.TimedIndex("nope"), func(*san.Marking) float64 { return 2 }); err == nil {
		t.Fatal("expected unknown-activity error")
	}
	if err := b.SetFn(m.TimedIndex("arrive"), func(*san.Marking) float64 { return 0 }); err != nil {
		t.Fatal(err)
	}
	if b.IsNeutral() {
		t.Fatal("bias with adaptive factor must not be neutral")
	}
	// The invalid (zero) factor surfaces at run time.
	r, err := NewRunner(m, Options{MaxTime: 1, Bias: b})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(rng.NewStream(1)); err == nil {
		t.Fatal("expected runtime error for zero adaptive factor")
	}
}

func TestSetFnReplacesConstantAndViceVersa(t *testing.T) {
	m, _ := buildPoisson(1)
	b := NewBias()
	if err := b.SetByName(m, "arrive", 3); err != nil {
		t.Fatal(err)
	}
	if err := b.SetFn(0, func(*san.Marking) float64 { return 5 }); err != nil {
		t.Fatal(err)
	}
	mk := m.InitialMarking()
	if f, err := b.FactorIn(0, mk); err != nil || f != 5 {
		t.Fatalf("FactorIn after SetFn = %v, %v", f, err)
	}
	if b.factors[0] != 1 {
		t.Fatal("constant factor must be neutral once an adaptive factor is set")
	}
	if err := b.Set(0, 2); err != nil {
		t.Fatal(err)
	}
	if f, err := b.FactorIn(0, mk); err != nil || f != 2 {
		t.Fatalf("FactorIn after Set = %v, %v", f, err)
	}
}

func TestRunFromValidation(t *testing.T) {
	m, c := buildPoisson(1)
	r, err := NewRunner(m, Options{MaxTime: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunFrom(nil, -1, rng.NewStream(1)); err == nil {
		t.Fatal("expected error for negative start time")
	}
	if _, err := r.RunFrom(nil, 5, rng.NewStream(1)); err == nil {
		t.Fatal("expected error for start time at MaxTime")
	}
	// Starting from a captured mid-trajectory state continues correctly:
	// run to 2, capture, resume from 2 and check the count only grows.
	probe := &Probe{
		Times: []float64{2},
		Value: func(mk *san.Marking) float64 { return float64(mk.Tokens(c)) },
	}
	if _, err := r.Run(rng.NewStream(2), probe); err != nil {
		t.Fatal(err)
	}
	mid := r.Marking().Clone()
	midCount := mid.Tokens(c)
	res, err := r.RunFrom(mid, 2, rng.NewStream(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.End != 5 {
		t.Fatalf("resumed run ended at %v, want MaxTime", res.End)
	}
	if r.Marking().Tokens(c) < midCount {
		t.Fatal("counter decreased after resuming — state not restored")
	}
}

func TestRunFromProbeBeforeStartLeftAtDefault(t *testing.T) {
	m, c := buildPoisson(100)
	r, err := NewRunner(m, Options{MaxTime: 4})
	if err != nil {
		t.Fatal(err)
	}
	probe := &Probe{
		Times: []float64{1, 3},
		Value: func(mk *san.Marking) float64 { return float64(mk.Tokens(c)) + 1 },
	}
	if _, err := r.RunFrom(nil, 2, rng.NewStream(4), probe); err != nil {
		t.Fatal(err)
	}
	if probe.Values[0] != 0 {
		t.Fatalf("probe before start time filled with %v, want default 0", probe.Values[0])
	}
	if probe.Values[1] < 1 {
		t.Fatalf("probe after start time not filled: %v", probe.Values[1])
	}
}

// buildGated returns a birth model whose arrival activity is guarded by an
// always-true test and whose poison activity by a never-true test, both on
// a mode place that no activity writes, and both instrumented to count
// predicate evaluations.
func buildGated(alwaysCalls, neverCalls *int) (*san.Model, san.PlaceID) {
	b := san.NewBuilder("gated")
	c := b.Place("count", 0)
	mode := b.Place("mode", 1)
	b.Timed(san.TimedActivity{
		Name: "arrive",
		Enabled: func(mk *san.Marking) bool {
			*alwaysCalls++
			return mk.Tokens(mode) == 1
		},
		Rate:  san.ConstRate(3),
		Input: san.Produce(c, 1),
	})
	b.Timed(san.TimedActivity{
		Name: "poison",
		Enabled: func(mk *san.Marking) bool {
			*neverCalls++
			return mk.Tokens(mode) == 0
		},
		Rate:  san.ConstRate(1e9),
		Input: san.Produce(c, 1000),
	})
	return b.MustBuild(), c
}

func TestUnchangedGatesEvaluatedOnlyInFirstRun(t *testing.T) {
	var always, never int
	m, c := buildGated(&always, &never)
	r, err := NewRunner(m, Options{MaxTime: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Builder probing during Build may have evaluated the predicates;
	// only calls made while running count.
	always, never = 0, 0
	if _, err := r.Run(rng.NewStream(9)); err != nil {
		t.Fatal(err)
	}
	if always != 1 || never != 1 {
		t.Fatalf("first run evaluated arrive %d and poison %d times, want once each", always, never)
	}
	always, never = 0, 0
	for i := uint64(0); i < 20; i++ {
		res, err := r.Run(rng.NewStream(10 + i))
		if err != nil {
			t.Fatal(err)
		}
		if n := r.Marking().Tokens(c); uint64(n) != res.Steps {
			t.Fatalf("run %d: count %d after %d arrivals", i, n, res.Steps)
		}
	}
	if always != 0 || never != 0 {
		t.Fatalf("gates on an unwritten place re-evaluated: arrive=%d poison=%d", always, never)
	}
}

// componentLog is an Observer recording, at every completion, the completed
// activity's component and how many predicate calls preceded it.
type componentLog struct {
	component map[string]int
	calls     *[]int
	fired     []int
	before    []int
}

func (l *componentLog) OnEvent(_ float64, activity string, _ *san.Marking) {
	l.fired = append(l.fired, l.component[activity])
	l.before = append(l.before, len(*l.calls))
}

func TestCompletionReevaluatesOnlyItsComponent(t *testing.T) {
	// K independent fail/repair components: a completion changes only its
	// own component's place, so only that component's two activities may
	// be re-evaluated before the next draw.
	const K = 8
	var calls []int // component of every predicate call, in call order
	log := &componentLog{component: map[string]int{}, calls: &calls}
	b := san.NewBuilder("components")
	for k := 0; k < K; k++ {
		k := k
		up := b.Place(fmt.Sprintf("up%d", k), 1)
		gate := func(want int) san.Predicate {
			return func(mk *san.Marking) bool {
				calls = append(calls, k)
				return mk.Tokens(up) == want
			}
		}
		for _, a := range []san.TimedActivity{
			{Name: fmt.Sprintf("fail%d", k), Enabled: gate(1), Rate: san.ConstRate(1), Input: san.Consume(up, 1)},
			{Name: fmt.Sprintf("repair%d", k), Enabled: gate(0), Rate: san.ConstRate(2), Input: san.Produce(up, 1)},
		} {
			log.component[a.Name] = k
			b.Timed(a)
		}
	}
	m := b.MustBuild()
	r, err := NewRunner(m, Options{MaxTime: 20, Observer: log})
	if err != nil {
		t.Fatal(err)
	}
	calls = nil
	res, err := r.Run(rng.NewStream(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps < 50 {
		t.Fatalf("only %d completions; the check needs a long trajectory", res.Steps)
	}
	if log.before[0] != 2*K {
		t.Fatalf("first evaluation made %d predicate calls, want %d", log.before[0], 2*K)
	}
	for j, start := range log.before {
		end := len(calls)
		if j+1 < len(log.before) {
			end = log.before[j+1]
		}
		got := calls[start:end]
		if len(got) != 2 || got[0] != log.fired[j] || got[1] != log.fired[j] {
			t.Fatalf("after completion %d (component %d) re-evaluated components %v", j, log.fired[j], got)
		}
	}
}

// callLog is an Observer recording, at every completion, how many calls a
// counter had seen.
type callLog struct {
	calls  *int
	before []int
}

func (l *callLog) OnEvent(float64, string, *san.Marking) { l.before = append(l.before, *l.calls) }

func TestStaleReaderReevaluatesOnce(t *testing.T) {
	// Five activities fire in a fixed order, one per phase: dropA, writeB,
	// writeB, raiseA, writeB. The watched predicate reads B only while
	// A > 0. After dropA it no longer reads B but is still in B's reader
	// set, so the first write to B re-evaluates it once; that evaluation
	// does not read B, so the second write must not. After raiseA it reads
	// B again, and the third write must re-evaluate it.
	var watchCalls int
	b := san.NewBuilder("stale")
	a := b.Place("A", 1)
	bp := b.Place("B", 0)
	phase := b.Place("phase", 0)
	b.Timed(san.TimedActivity{
		Name: "watch",
		Enabled: func(mk *san.Marking) bool {
			watchCalls++
			return mk.Tokens(a) > 0 && mk.Tokens(bp) > 1000
		},
		Rate: san.ConstRate(1),
	})
	writeB := func(mk *san.Marking) { mk.Add(bp, 1) }
	for k, set := range []san.Effect{
		func(mk *san.Marking) { mk.SetTokens(a, 0) },
		writeB,
		writeB,
		func(mk *san.Marking) { mk.SetTokens(a, 1) },
		writeB,
	} {
		b.Timed(san.TimedActivity{
			Name:    fmt.Sprintf("step%d", k),
			Enabled: func(mk *san.Marking) bool { return mk.Tokens(phase) == k },
			Rate:    san.ConstRate(1),
			Input:   san.Seq(set, san.Produce(phase, 1)),
		})
	}
	m := b.MustBuild()
	log := &callLog{calls: &watchCalls}
	r, err := NewRunner(m, Options{MaxTime: 1e6, Observer: log})
	if err != nil {
		t.Fatal(err)
	}
	watchCalls = 0
	res, err := r.Run(rng.NewStream(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 5 || !res.Deadlocked {
		t.Fatalf("run made %d steps (deadlocked %v), want the 5 phases", res.Steps, res.Deadlocked)
	}
	after := append(log.before[1:], watchCalls)
	var got []int
	for j := range after {
		got = append(got, after[j]-log.before[j])
	}
	if want := []int{1, 1, 0, 1, 1}; !slices.Equal(got, want) {
		t.Fatalf("watch re-evaluations after dropA, writeB, writeB, raiseA, writeB = %v, want %v", got, want)
	}
}

func TestRunAfterFailedEvaluationMatchesFreshRunner(t *testing.T) {
	// "bad" turns invalid while poison is set and sits before "grow" in
	// index order, so a run that starts poisoned fails before "grow" is
	// re-evaluated. The next run starts from the same level: only poison
	// differs from where the failed run stopped.
	b := san.NewBuilder("fail")
	poison := b.Place("poison", 0)
	level := b.Place("level", 0)
	b.Timed(san.TimedActivity{
		Name: "bad",
		Rate: func(mk *san.Marking) float64 {
			if mk.Tokens(poison) == 1 {
				return -1
			}
			return 1
		},
	})
	b.Timed(san.TimedActivity{
		Name:  "grow",
		Rate:  func(mk *san.Marking) float64 { return 1 + float64(mk.Tokens(level)) },
		Input: san.Produce(level, 1),
	})
	m := b.MustBuild()
	start := func(p int) *san.Marking {
		mk := m.InitialMarking()
		mk.SetTokens(poison, p)
		mk.SetTokens(level, 100)
		return mk
	}
	trace := func(r *Runner, tr *Trace, stream uint64) (Result, []TraceEvent) {
		tr.Reset()
		res, err := r.RunFrom(start(0), 0, rng.NewStream(stream))
		if err != nil {
			t.Fatal(err)
		}
		return res, slices.Clone(tr.Events)
	}
	for stream := uint64(1); stream <= 5; stream++ {
		used := &Trace{}
		r, err := NewRunner(m, Options{MaxTime: 0.05, Observer: used})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(rng.NewStream(stream)); err != nil {
			t.Fatal(err)
		}
		if n := r.Marking().Tokens(level); n == 100 {
			t.Fatalf("stream %d: warm-up run ended at level %d, the restart level", stream, n)
		}
		if _, err := r.RunFrom(start(1), 0, rng.NewStream(stream)); err == nil {
			t.Fatal("expected an invalid-rate error from the poisoned start")
		}
		gotRes, got := trace(r, used, stream)

		fresh := &Trace{}
		f, err := NewRunner(m, Options{MaxTime: 0.05, Observer: fresh})
		if err != nil {
			t.Fatal(err)
		}
		wantRes, want := trace(f, fresh, stream)
		if gotRes != wantRes || !slices.Equal(got, want) {
			t.Fatalf("stream %d: run after a failed evaluation = %+v %v, fresh runner %+v %v", stream, gotRes, got, wantRes, want)
		}
	}
}
