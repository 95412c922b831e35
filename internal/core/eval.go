package core

import (
	"context"
	"fmt"

	"ahs/internal/mc"
	"ahs/internal/platoon"
	"ahs/internal/rng"
	"ahs/internal/san"
	"ahs/internal/sim"
	"ahs/internal/stats"
	"ahs/internal/telemetry"
)

// EvalOptions configures the Monte-Carlo estimation of the unsafety curve.
type EvalOptions struct {
	// Times is the ascending grid of trip durations at which S(t) is
	// estimated (required).
	Times []float64
	// Seed selects the deterministic random stream family.
	Seed uint64
	// StopRule is the convergence criterion (zero value: run exactly
	// MaxBatches). stats.PaperStopRule() reproduces §4.1.
	StopRule stats.RelativeStopRule
	// MaxBatches caps the simulation effort; 0 means 200000.
	MaxBatches uint64
	// Workers is the parallelism (0 = GOMAXPROCS).
	Workers int
	// FailureBias multiplies every failure-mode rate for importance
	// sampling, with trajectories reweighted by the exact likelihood
	// ratio. Values <= 1 mean naive simulation; use SuggestedFailureBias
	// for a horizon-adapted choice. Mandatory in practice for λ below
	// ~1e-4/hr, where the unsafety is too rare for naive estimation.
	FailureBias float64
	// CheckEvery overrides the convergence check round size (0 = 2000).
	CheckEvery uint64
	// Context, when non-nil, cancels the estimation mid-run; the
	// evaluation then returns the context's error. See mc.Job.Context.
	Context context.Context
	// Progress, when non-nil, receives (batchesDone, maxBatches) after
	// every convergence round. See mc.Job.Progress.
	Progress func(batchesDone, maxBatches uint64)
	// Snapshot, when non-nil, receives a partial curve (current Welford
	// means and confidence intervals) after every convergence round, so
	// callers can watch the CI converge live. See mc.Job.Snapshot.
	Snapshot func(partial *mc.Curve)
	// Telemetry, when non-nil, receives the full event stream of the
	// evaluation: activity firings, trajectory counts/lengths,
	// first-passage times to KO_total, catastrophic causes (ST1/ST2/ST3)
	// and maneuver attempts/failures per recovery type. Pass a
	// telemetry.SimCollector (with the strategy label and
	// trace.CollapseName) to expose them as Prometheus families. The sink
	// is installed on the AHS via Instrument for the duration of the
	// process; it must be safe for concurrent use. Nil disables all
	// instrumentation at the cost of one predictable branch per event.
	Telemetry telemetry.Sink
}

// SuggestedFailureBias returns a forcing factor for the failure-mode rates
// such that a trajectory of the given duration sees on average about three
// (biased) failure events — enough to reach the multi-failure catastrophic
// situations of Table 2 regularly while keeping likelihood-ratio variance
// moderate. The factor never goes below 1.
//
// Do not force much harder than this: over-biasing concentrates the rare
// event near t=0 under the sampling measure while the true probability mass
// is spread over the whole horizon, so the estimator becomes erratic and its
// empirical confidence interval over-confident. The calibration here is
// validated against exact CTMC solutions in the package tests.
func (a *AHS) SuggestedFailureBias(horizon float64) float64 {
	totalMult := 0.0
	for _, f := range platoon.AllFailureModes() {
		totalMult += f.RateMultiplier()
	}
	totalRate := float64(a.slots) * totalMult * a.Params.Lambda
	if totalRate <= 0 || horizon <= 0 {
		return 1
	}
	const targetFailures = 3.0
	bias := targetFailures / (totalRate * horizon)
	if bias < 1 {
		return 1
	}
	return bias
}

// failureBiasSpec builds the sim.Bias applying the forcing factor to every
// L1..L6 activity of every vehicle replica.
func (a *AHS) failureBiasSpec(factor float64) (*sim.Bias, error) {
	if factor <= 1 {
		return nil, nil
	}
	bias := sim.NewBias()
	for _, name := range a.failureActivities {
		if err := bias.SetByName(a.Model, name, factor); err != nil {
			return nil, fmt.Errorf("core: bias %q: %w", name, err)
		}
	}
	return bias, nil
}

// UnsafetyJob builds the Monte-Carlo job that UnsafetyCurve and
// UnsafetyBreakdown estimate, without running it. The job always
// classifies catastrophic causes, so every chunk folds ST1/ST2/ST3 counts
// into its sufficient statistics; the full telemetry stream is only
// attached when opts.Telemetry is set. Two calls with equal options return
// jobs that estimate bit-identical curves, on one machine or many.
func (a *AHS) UnsafetyJob(opts EvalOptions) (mc.Job, error) {
	if len(opts.Times) == 0 {
		return mc.Job{}, fmt.Errorf("core: empty time grid")
	}
	maxBatches := opts.MaxBatches
	if maxBatches == 0 {
		maxBatches = 200_000
	}
	bias, err := a.failureBiasSpec(opts.FailureBias)
	if err != nil {
		return mc.Job{}, err
	}
	job := mc.Job{
		Model: a.Model,
		Sim: sim.Options{
			MaxTime: opts.Times[len(opts.Times)-1],
			Stop:    a.Unsafe,
			Bias:    bias,
		},
		Times:      opts.Times,
		Value:      a.UnsafetyIndicator,
		Seed:       opts.Seed,
		StopRule:   opts.StopRule,
		MaxBatches: maxBatches,
		CheckEvery: opts.CheckEvery,
		Workers:    opts.Workers,
		Context:    opts.Context,
		Progress:   opts.Progress,
		Snapshot:   opts.Snapshot,
		Cause:      func(mk *san.Marking) string { return a.Cause(mk).String() },
	}
	if opts.Telemetry != nil {
		// The model records maneuver attempts and failures; the job records
		// trajectory counts, step and first-passage histograms, catastrophe
		// causes and (through mc's Sim.Sink propagation) activity firings.
		a.Instrument(opts.Telemetry)
		job.Telemetry = opts.Telemetry
	}
	return job, nil
}

// UnsafetyCurve estimates S(t) over the option's time grid. KO_total is
// absorbing, so each trajectory is simulated until it becomes unsafe or the
// largest grid time is reached, and one trajectory contributes to every
// grid point.
func (a *AHS) UnsafetyCurve(opts EvalOptions) (*mc.Curve, error) {
	job, err := a.UnsafetyJob(opts)
	if err != nil {
		return nil, err
	}
	return mc.EstimateCurve(job)
}

// RecordTrajectory simulates one trajectory over the given horizon and
// returns its full event stream, for export with trace.Summarize or
// trace.WriteChromeTrace. The trajectory uses stream 0 of the seed's family
// and the same stopping rule as the estimators (absorb on KO_total);
// failureBias > 1 forces failures exactly like EvalOptions.FailureBias, which
// makes single-trajectory visualisations of rare-event regimes non-empty.
func (a *AHS) RecordTrajectory(horizon float64, seed uint64, failureBias float64) ([]sim.TraceEvent, sim.Result, error) {
	bias, err := a.failureBiasSpec(failureBias)
	if err != nil {
		return nil, sim.Result{}, err
	}
	tr := &sim.Trace{}
	r, err := sim.NewRunner(a.Model, sim.Options{
		MaxTime:  horizon,
		Stop:     a.Unsafe,
		Bias:     bias,
		Observer: tr,
	})
	if err != nil {
		return nil, sim.Result{}, err
	}
	res, err := r.Run(rng.NewSource(seed).Stream(0))
	if err != nil {
		return nil, sim.Result{}, err
	}
	return tr.Events, res, nil
}

// Unsafety estimates S(t) at a single trip duration.
func (a *AHS) Unsafety(t float64, opts EvalOptions) (stats.Interval, error) {
	opts.Times = []float64{t}
	curve, err := a.UnsafetyCurve(opts)
	if err != nil {
		return stats.Interval{}, err
	}
	return curve.Intervals[0], nil
}

// Breakdown is the decomposition of the unsafety by the catastrophic
// situation of Table 2 that triggered it.
type Breakdown struct {
	// Total is S(t).
	Total stats.Interval
	// BySituation maps ST1/ST2/ST3 to their contribution to S(t); the
	// three contributions sum to the total (they partition the unsafe
	// event by its cause).
	BySituation map[platoon.Situation]stats.Interval
}

// UnsafetyBreakdown estimates S(t) together with its decomposition by
// triggering catastrophic situation, on shared trajectories.
func (a *AHS) UnsafetyBreakdown(t float64, opts EvalOptions) (*Breakdown, error) {
	opts.Times = []float64{t}
	job, err := a.UnsafetyJob(opts)
	if err != nil {
		return nil, err
	}
	causeIndicator := func(s platoon.Situation) func(mk *san.Marking) float64 {
		return func(mk *san.Marking) float64 {
			if a.Cause(mk) == s {
				return 1
			}
			return 0
		}
	}
	main, extras, err := mc.EstimateCurveMulti(job, map[string]func(mk *san.Marking) float64{
		"ST1": causeIndicator(platoon.ST1),
		"ST2": causeIndicator(platoon.ST2),
		"ST3": causeIndicator(platoon.ST3),
	})
	if err != nil {
		return nil, err
	}
	return &Breakdown{
		Total: main.Intervals[0],
		BySituation: map[platoon.Situation]stats.Interval{
			platoon.ST1: extras["ST1"].Intervals[0],
			platoon.ST2: extras["ST2"].Intervals[0],
			platoon.ST3: extras["ST3"].Intervals[0],
		},
	}, nil
}
