// Package experiments reproduces every figure of the paper's evaluation
// (Section 4): one runner per figure, each encoding the exact workload
// parameters of the corresponding caption and producing the series the
// paper plots. The runners are shared by cmd/ahs-experiments and by the
// repository-level benchmarks (bench_test.go).
//
//	Figure 10 — S(t) vs trip duration for several platoon sizes n
//	Figure 11 — S(t) vs trip duration for several failure rates λ
//	Figure 12 — S(6h) vs n for several failure rates λ
//	Figure 13 — S(t) vs trip duration for several join/leave loads ρ
//	Figure 14 — S(t) vs trip duration for the four coordination strategies
//	Figure 15 — S(6h) vs n for the four coordination strategies
package experiments

import (
	"fmt"
	"sort"

	"ahs/internal/core"
	"ahs/internal/platoon"
	"ahs/internal/stats"
)

// Config tunes the estimation effort of a figure run.
type Config struct {
	// Seed selects the deterministic random stream family.
	Seed uint64
	// MaxBatches caps simulation batches per estimated curve/point;
	// 0 means 4000 (a quick-look setting; the paper used >= 10000).
	MaxBatches uint64
	// StopRule optionally stops each estimation early once converged
	// (stats.PaperStopRule reproduces §4.1). Zero value: fixed batches.
	StopRule stats.RelativeStopRule
	// Workers is the simulation parallelism (0 = GOMAXPROCS).
	Workers int
	// NoBias disables the automatic rare-event forcing. Only sensible for
	// λ ≳ 1e-3/hr; the paper's λ = 1e-5/hr base case is unreachable by
	// naive simulation.
	NoBias bool
}

func (c Config) withDefaults() Config {
	if c.MaxBatches == 0 {
		c.MaxBatches = 4000
	}
	return c
}

// Series is one plotted line: Y[i] estimates the measure at X[i], with the
// confidence interval in CI[i].
type Series struct {
	Label   string
	X       []float64
	Y       []float64
	CI      []stats.Interval
	Batches uint64
}

// Result is one reproduced figure.
type Result struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Runner produces one figure.
type Runner func(Config) (*Result, error)

// Registry maps experiment ids to their runners: "fig10".."fig15" are the
// paper's figures; "lanes" is this library's extension experiment for the
// paper's multi-platoon future work.
func Registry() map[string]Runner {
	return map[string]Runner{
		"fig10": Fig10,
		"fig11": Fig11,
		"fig12": Fig12,
		"fig13": Fig13,
		"fig14": Fig14,
		"fig15": Fig15,
		"lanes": LanesExtension,
	}
}

// IDs returns the registered figure ids in order.
func IDs() []string {
	ids := make([]string, 0, 6)
	for id := range Registry() {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// tripGrid is the 2–10 hour trip-duration grid used by the time-curve
// figures.
var tripGrid = []float64{2, 4, 6, 8, 10}

// estimateCurve runs one S(t) curve for the given parameters. It is the
// single estimation path of this package: every figure — curve or point —
// builds its model through the one audited core.Build and evaluates it with
// identical options, so a bias or seeding fix lands everywhere at once.
func estimateCurve(p core.Params, label string, times []float64, cfg Config) (Series, error) {
	a, err := core.Build(p)
	if err != nil {
		return Series{}, err
	}
	opts := core.EvalOptions{
		Times:      times,
		Seed:       cfg.Seed,
		StopRule:   cfg.StopRule,
		MaxBatches: cfg.MaxBatches,
		Workers:    cfg.Workers,
	}
	if !cfg.NoBias {
		opts.FailureBias = a.SuggestedFailureBias(times[len(times)-1])
	}
	curve, err := a.UnsafetyCurve(opts)
	if err != nil {
		return Series{}, fmt.Errorf("experiments: %s: %w", label, err)
	}
	return Series{
		Label:   label,
		X:       append([]float64(nil), times...),
		Y:       append([]float64(nil), curve.Mean...),
		CI:      append([]stats.Interval(nil), curve.Intervals...),
		Batches: curve.Batches,
	}, nil
}

// estimatePoint runs a single S(t) estimation through estimateCurve.
func estimatePoint(p core.Params, label string, t float64, cfg Config) (stats.Interval, uint64, error) {
	s, err := estimateCurve(p, label, []float64{t}, cfg)
	if err != nil {
		return stats.Interval{}, 0, err
	}
	return s.CI[0], s.Batches, nil
}

// Fig10 reproduces Figure 10: S(t) versus trip duration for platoon sizes
// n ∈ {8, 10, 12, 14}, with λ = 1e-5/hr, join 12/hr, leave 4/hr, DD.
func Fig10(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	res := &Result{
		ID:     "fig10",
		Title:  "S(t) vs trip duration for different n (λ=1e-5/hr, join=12/hr, leave=4/hr)",
		XLabel: "trip duration (h)",
		YLabel: "unsafety S(t)",
	}
	for _, n := range []int{8, 10, 12, 14} {
		p := core.DefaultParams().WithPlatoonSize(n)
		s, err := estimateCurve(p, fmt.Sprintf("n=%d", n), tripGrid, cfg)
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// Fig11 reproduces Figure 11: S(t) versus trip duration for failure rates
// λ ∈ {1e-6, 1e-5, 1e-4}/hr, with n = 10.
func Fig11(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	res := &Result{
		ID:     "fig11",
		Title:  "S(t) vs trip duration for different λ (n=10, join=12/hr, leave=4/hr)",
		XLabel: "trip duration (h)",
		YLabel: "unsafety S(t)",
	}
	for _, lambda := range []float64{1e-6, 1e-5, 1e-4} {
		p := core.DefaultParams()
		p.Lambda = lambda
		s, err := estimateCurve(p, fmt.Sprintf("λ=%.0e/hr", lambda), tripGrid, cfg)
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// Fig12 reproduces Figure 12: S(t) at t = 6 h versus the maximum platoon
// size n ∈ {10, 12, 14, 16, 18} for λ ∈ {1e-6, 1e-5, 1e-4}/hr.
func Fig12(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	res := &Result{
		ID:     "fig12",
		Title:  "S(6h) vs n for different λ (join=12/hr, leave=4/hr)",
		XLabel: "max vehicles per platoon n",
		YLabel: "unsafety S(6h)",
	}
	ns := []int{10, 12, 14, 16, 18}
	for _, lambda := range []float64{1e-6, 1e-5, 1e-4} {
		s := Series{Label: fmt.Sprintf("λ=%.0e/hr", lambda)}
		for _, n := range ns {
			p := core.DefaultParams().WithPlatoonSize(n)
			p.Lambda = lambda
			iv, batches, err := estimatePoint(p, s.Label, 6, cfg)
			if err != nil {
				return nil, err
			}
			s.X = append(s.X, float64(n))
			s.Y = append(s.Y, iv.Point)
			s.CI = append(s.CI, iv)
			s.Batches += batches
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// Fig13 reproduces Figure 13: S(t) versus trip duration for loads
// ρ = join/leave ∈ {1, 2} with several absolute join/leave pairs
// (n = 8, λ = 1e-5/hr).
func Fig13(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	res := &Result{
		ID:     "fig13",
		Title:  "S(t) vs trip duration for different join/leave rates (ρ=join/leave, n=8, λ=1e-5/hr)",
		XLabel: "trip duration (h)",
		YLabel: "unsafety S(t)",
	}
	pairs := []struct{ join, leave float64 }{
		{4, 4}, {8, 8}, {12, 12}, // ρ = 1
		{8, 4}, {16, 8}, {24, 12}, // ρ = 2
	}
	for _, pair := range pairs {
		p := core.DefaultParams().WithPlatoonSize(8)
		p.JoinRate = pair.join
		p.LeaveRate = pair.leave
		label := fmt.Sprintf("ρ=%g (join=%g, leave=%g)", p.Load(), pair.join, pair.leave)
		s, err := estimateCurve(p, label, tripGrid, cfg)
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// Fig14 reproduces Figure 14: S(t) versus trip duration for the four
// coordination strategies of Table 3 (n = 10, λ = 1e-5/hr).
func Fig14(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	res := &Result{
		ID:     "fig14",
		Title:  "S(t) vs trip duration per coordination strategy (n=10, λ=1e-5/hr, join=12/hr, leave=4/hr)",
		XLabel: "trip duration (h)",
		YLabel: "unsafety S(t)",
	}
	for _, strategy := range platoon.AllStrategies() {
		p := core.DefaultParams().WithStrategy(strategy)
		s, err := estimateCurve(p, strategy.String(), tripGrid, cfg)
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// Fig15 reproduces Figure 15: S(t) at t = 6 h versus n for the four
// coordination strategies (λ = 1e-5/hr).
func Fig15(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	res := &Result{
		ID:     "fig15",
		Title:  "S(6h) vs n per coordination strategy (λ=1e-5/hr, join=12/hr, leave=4/hr)",
		XLabel: "max vehicles per platoon n",
		YLabel: "unsafety S(6h)",
	}
	ns := []int{10, 12, 14, 16, 18}
	for _, strategy := range platoon.AllStrategies() {
		s := Series{Label: strategy.String()}
		for _, n := range ns {
			p := core.DefaultParams().WithStrategy(strategy).WithPlatoonSize(n)
			iv, batches, err := estimatePoint(p, s.Label, 6, cfg)
			if err != nil {
				return nil, err
			}
			s.X = append(s.X, float64(n))
			s.Y = append(s.Y, iv.Point)
			s.CI = append(s.CI, iv)
			s.Batches += batches
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// LanesExtension runs the extension experiment for the paper's
// "larger number of platoons" future work: S(t) versus trip duration for
// highways of 2, 3 and 4 lanes (one platoon per lane, n = 8, λ = 1e-5/hr).
// More lanes put more vehicles into one coordination domain, so unsafety
// grows roughly with the vehicle count.
func LanesExtension(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	res := &Result{
		ID:     "lanes",
		Title:  "Extension: S(t) vs trip duration for 2..4 lanes (n=8, λ=1e-5/hr, join=12/hr, leave=4/hr)",
		XLabel: "trip duration (h)",
		YLabel: "unsafety S(t)",
	}
	for _, lanes := range []int{2, 3, 4} {
		p := core.DefaultParams().WithPlatoonSize(8)
		p.Lanes = lanes
		s, err := estimateCurve(p, fmt.Sprintf("lanes=%d", lanes), tripGrid, cfg)
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// All runs every registered figure in id order.
func All(cfg Config) ([]*Result, error) {
	reg := Registry()
	out := make([]*Result, 0, len(reg))
	for _, id := range IDs() {
		res, err := reg[id](cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", id, err)
		}
		out = append(out, res)
	}
	return out, nil
}
