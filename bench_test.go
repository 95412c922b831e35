// Benchmarks regenerating every figure of the paper's evaluation section.
//
// Each BenchmarkFigNN runs the corresponding experiment end to end (all
// series, all grid points) with a reduced batch budget, and logs the
// resulting series so `go test -bench=.` doubles as a quick reproduction
// harness. For paper-quality numbers use cmd/ahs-experiments with
// -batches 20000 or higher (see EXPERIMENTS.md).
package ahs_test

import (
	"fmt"
	"strings"
	"testing"

	"ahs"
	"ahs/internal/experiments"
)

// benchBatches keeps one benchmark iteration in the seconds range; the
// series shapes are already meaningful at this budget thanks to importance
// sampling.
const benchBatches = 1000

func benchFigure(b *testing.B, runner experiments.Runner) {
	cfg := experiments.Config{Seed: 1, MaxBatches: benchBatches}
	var last *experiments.Result
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := runner(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	logResult(b, last)
}

func logResult(b *testing.B, res *experiments.Result) {
	b.Helper()
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %s\n", res.ID, res.Title)
	for _, s := range res.Series {
		fmt.Fprintf(&sb, "  %-28s", s.Label)
		for i := range s.X {
			fmt.Fprintf(&sb, " S(%g)=%.2e", s.X[i], s.Y[i])
		}
		sb.WriteByte('\n')
	}
	b.Log(sb.String())
}

// BenchmarkFig10 regenerates Figure 10: S(t) vs trip duration for platoon
// sizes n ∈ {8,10,12,14} (λ=1e-5/hr, join=12/hr, leave=4/hr, DD).
func BenchmarkFig10(b *testing.B) { benchFigure(b, experiments.Fig10) }

// BenchmarkFig11 regenerates Figure 11: S(t) vs trip duration for
// λ ∈ {1e-6,1e-5,1e-4}/hr (n=10).
func BenchmarkFig11(b *testing.B) { benchFigure(b, experiments.Fig11) }

// BenchmarkFig12 regenerates Figure 12: S(6h) vs n ∈ {10..18} for
// λ ∈ {1e-6,1e-5,1e-4}/hr.
func BenchmarkFig12(b *testing.B) { benchFigure(b, experiments.Fig12) }

// BenchmarkFig13 regenerates Figure 13: S(t) vs trip duration for loads
// ρ = join/leave ∈ {1,2} with several absolute rate pairs (n=8).
func BenchmarkFig13(b *testing.B) { benchFigure(b, experiments.Fig13) }

// BenchmarkFig14 regenerates Figure 14: S(t) vs trip duration for the four
// coordination strategies DD/DC/CD/CC (n=10).
func BenchmarkFig14(b *testing.B) { benchFigure(b, experiments.Fig14) }

// BenchmarkFig15 regenerates Figure 15: S(6h) vs n for the four
// coordination strategies.
func BenchmarkFig15(b *testing.B) { benchFigure(b, experiments.Fig15) }

// BenchmarkTrajectory measures the cost of one simulated trajectory, the
// unit of work every estimate above is made of. The n=10 cases run each
// strategy over a 10-hour horizon under the suggested failure bias, as the
// paper's figures do; per-op numbers are per trajectory. The n=2 case is
// shaped like one point of ahsbench's sweep-writes workload (λ=0.5/hr, a
// 1-hour trip, 32 batches), so its per-op number is per point and includes
// setting up the runners; it shows a regression on cheap small models.
func BenchmarkTrajectory(b *testing.B) {
	for _, s := range ahs.AllStrategies() {
		b.Run(s.String(), func(b *testing.B) {
			sys, err := ahs.New(ahs.DefaultParams().WithStrategy(s))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			// Reuse the curve machinery with exactly b.N batches so the
			// per-op number is per trajectory.
			_, err = sys.UnsafetyCurve(ahs.EvalOptions{
				Times:       []float64{10},
				Seed:        1,
				MaxBatches:  uint64(b.N),
				FailureBias: sys.SuggestedFailureBias(10),
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
	b.Run("n=2-point", func(b *testing.B) {
		p := ahs.DefaultParams().WithPlatoonSize(2)
		p.Lambda = 0.5
		sys, err := ahs.New(p)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, err := sys.UnsafetyCurve(ahs.EvalOptions{
				Times:       []float64{0.5, 1},
				Seed:        1,
				MaxBatches:  32,
				FailureBias: sys.SuggestedFailureBias(1),
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
