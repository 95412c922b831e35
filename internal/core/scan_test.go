package core

import (
	"testing"

	"ahs/internal/rng"
	"ahs/internal/san"
	"ahs/internal/sim"
)

// scanCost runs 1000 seeded 10 h trajectories of the n-vehicle DD model
// under the suggested failure bias. With count set, every timed predicate
// is wrapped with a call counter first. It returns the total steps and
// predicate calls.
func scanCost(t *testing.T, n int, count bool) (steps, calls uint64) {
	t.Helper()
	a := MustBuild(DefaultParams().WithPlatoonSize(n))
	if count {
		for i := 0; i < a.Model.NumTimed(); i++ {
			act := a.Model.Timed(i)
			inner := act.Enabled
			act.Enabled = func(mk *san.Marking) bool {
				calls++
				return inner == nil || inner(mk)
			}
		}
	}
	bias, err := a.failureBiasSpec(a.SuggestedFailureBias(10))
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.NewRunner(a.Model, sim.Options{MaxTime: 10, Stop: a.Unsafe, Bias: bias})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.NewSource(1)
	for i := uint64(0); i < 1000; i++ {
		res, err := r.Run(src.Stream(i))
		if err != nil {
			t.Fatal(err)
		}
		steps += res.Steps
	}
	return steps, calls
}

// TestScanEvaluatesFewPredicatesPerStep pins the incremental scan's saving
// on the paper model: a full rescan calls all 165 timed predicates of the
// n=10 model before every draw (167.3 calls per step, counting the scan
// that ends each trajectory); the runner re-evaluates only the activities
// whose latest evaluation read a written place (10.1 calls per step).
func TestScanEvaluatesFewPredicatesPerStep(t *testing.T) {
	for _, n := range []int{2, 10} {
		plain, _ := scanCost(t, n, false)
		steps, calls := scanCost(t, n, true)
		if steps != plain {
			t.Fatalf("n=%d: counting predicates changed the trajectories: %d steps, want %d", n, steps, plain)
		}
		perStep := float64(calls) / float64(steps)
		t.Logf("n=%d: %d steps, %.1f predicate calls per step", n, steps, perStep)
		if n == 10 && perStep > 14 {
			t.Errorf("n=10: %.1f predicate calls per step, want at most 14", perStep)
		}
	}
}
