package ahs_test

import (
	"strconv"
	"testing"

	"ahs"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	params := ahs.DefaultParams()
	params.N = 4
	params.Lambda = 0.01
	sys, err := ahs.New(params)
	if err != nil {
		t.Fatal(err)
	}
	curve, err := sys.UnsafetyCurve(ahs.EvalOptions{
		Times:      []float64{2, 6},
		Seed:       1,
		MaxBatches: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Mean) != 2 || curve.Batches != 2000 {
		t.Fatalf("unexpected curve: %+v", curve)
	}
	if curve.Mean[1] < curve.Mean[0] {
		t.Fatalf("S(t) decreasing: %v", curve.Mean)
	}
}

func TestFacadeRejectsInvalidParams(t *testing.T) {
	params := ahs.DefaultParams()
	params.N = 0
	if _, err := ahs.New(params); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestFacadeStrategyHelpers(t *testing.T) {
	if got := ahs.AllStrategies(); len(got) != 4 {
		t.Fatalf("AllStrategies returned %d entries", len(got))
	}
	s, err := ahs.ParseStrategy("cc")
	if err != nil || s != ahs.CC {
		t.Fatalf("ParseStrategy(cc) = %v, %v", s, err)
	}
	if _, err := ahs.ParseStrategy("zz"); err == nil {
		t.Fatal("expected parse error")
	}
	if ahs.DD.String() != "DD" || ahs.CD.Inter != ahs.CC.Inter {
		t.Fatal("strategy constants wired up incorrectly")
	}
}

func TestFacadePaperStopRule(t *testing.T) {
	rule := ahs.PaperStopRule()
	if rule.Confidence != 0.95 || rule.MaxRelHalfWidth != 0.1 || rule.MinSamples != 10000 {
		t.Fatalf("paper stop rule %+v", rule)
	}
}

func TestFacadeSuggestedBiasAndSingleShot(t *testing.T) {
	sys, err := ahs.New(ahs.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	bias := sys.SuggestedFailureBias(10)
	if bias <= 1 {
		t.Fatalf("expected substantial bias at λ=1e-5, got %v", bias)
	}
	iv, err := sys.Unsafety(4, ahs.EvalOptions{Seed: 2, MaxBatches: 2000, FailureBias: bias})
	if err != nil {
		t.Fatal(err)
	}
	if iv.N != 2000 {
		t.Fatalf("interval batches %d", iv.N)
	}
}

// TestDirectLambda1e7Estimate pins EXPERIMENTS.md's direct λ=1e-7/hr run,
// `go run ./cmd/ahs-sim -lambda 1e-7 -batches 20000`: the n=10 DD
// defaults at times 2…10 h, seed 1, 20000 batches and the suggested
// failure bias print S(10h) = 5.604e-11 with 95% CI [3.509e-11, 7.698e-11]
// (formatted as ahs-sim prints them).
func TestDirectLambda1e7Estimate(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 20000 ten-hour trajectories")
	}
	params := ahs.DefaultParams()
	params.Lambda = 1e-7
	sys, err := ahs.New(params)
	if err != nil {
		t.Fatal(err)
	}
	curve, err := sys.UnsafetyCurve(ahs.EvalOptions{
		Times:       []float64{2, 4, 6, 8, 10},
		Seed:        1,
		MaxBatches:  20000,
		FailureBias: sys.SuggestedFailureBias(10),
	})
	if err != nil {
		t.Fatal(err)
	}
	last := len(curve.Times) - 1
	format := func(v float64) string { return strconv.FormatFloat(v, 'e', 3, 64) }
	got := [3]string{format(curve.Mean[last]), format(curve.Intervals[last].Lo), format(curve.Intervals[last].Hi)}
	if want := [3]string{"5.604e-11", "3.509e-11", "7.698e-11"}; got != want {
		t.Fatalf("S(10h), ci_lo, ci_hi = %v, want %v", got, want)
	}
}
