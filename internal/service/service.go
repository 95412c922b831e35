// Package service turns the one-shot unsafety evaluation of internal/core
// into a long-lived, shareable system: a job manager with a bounded worker
// pool over the Monte-Carlo estimator, request deduplication by canonical
// scenario hash (config.Scenario.Hash), an LRU cache of finished results,
// per-job progress tracking and cancellation, and operational metrics in a
// telemetry registry (GET /metrics). cmd/ahs-serve exposes it over an HTTP
// JSON API.
//
// The design leans on two properties of the underlying estimator:
//
//   - Determinism: for a fixed scenario (seed included) the estimate is
//     bit-identical regardless of worker count, so a cached result is
//     indistinguishable from a re-run and caching is semantically free.
//   - Cancellation: mc checks the job context before every trajectory, so
//     cancelling a job or shutting the manager down stops within one batch.
package service

import (
	"context"
	"fmt"

	"ahs/internal/config"
	"ahs/internal/core"
	"ahs/internal/mc"
	"ahs/internal/telemetry"
	"ahs/internal/trace"
)

// Result is the JSON-serializable outcome of one evaluation job: the
// estimated S(t) curve over the scenario's trip-hour grid.
type Result struct {
	// Name echoes the scenario's cosmetic name, if any.
	Name string `json:"name,omitempty"`
	// ScenarioHash is the canonical hash the result is cached under.
	ScenarioHash string `json:"scenarioHash"`
	// Times is the trip-duration grid in hours.
	Times []float64 `json:"times"`
	// Unsafety is the estimated S(t) at each grid point.
	Unsafety []float64 `json:"unsafety"`
	// CILo and CIHi bound the 95% confidence interval at each point.
	CILo []float64 `json:"ciLo"`
	CIHi []float64 `json:"ciHi"`
	// Batches is the number of simulated trajectories.
	Batches uint64 `json:"batches"`
	// Converged reports whether the stop rule was met (always true
	// without a rule).
	Converged bool `json:"converged"`
	// FailureBias records the importance-sampling forcing factor used
	// (1 means naive simulation).
	FailureBias float64 `json:"failureBias"`
}

// EvalFunc runs one scenario to completion (or cancellation). workers
// bounds the simulation parallelism of this single job; progress, when
// non-nil, receives (batchesDone, maxBatches) updates. Manager uses
// Evaluate unless a Config overrides it (tests inject fakes).
type EvalFunc func(ctx context.Context, sc *config.Scenario, workers int, progress func(done, max uint64)) (*Result, error)

// Evaluate is the production EvalFunc: it builds the composed SAN for the
// scenario and estimates the unsafety curve with the scenario's evaluation
// settings (importance-sampling calibration included). It records no
// telemetry; see EvaluateInto.
func Evaluate(ctx context.Context, sc *config.Scenario, workers int, progress func(done, max uint64)) (*Result, error) {
	return evaluate(ctx, sc, workers, progress, nil)
}

// EvaluateInto returns the production EvalFunc with simulation telemetry
// enabled: each evaluation feeds a strategy-labeled SimCollector on reg
// (activity firings collapsed across replicas via trace.CollapseName,
// maneuver attempts/failures, catastrophic causes, trajectory and
// first-passage histograms). A nil registry yields plain Evaluate. This is
// Manager's default Eval, sharing the registry served at GET /metrics.
func EvaluateInto(reg *telemetry.Registry) EvalFunc {
	if reg == nil {
		return Evaluate
	}
	return func(ctx context.Context, sc *config.Scenario, workers int, progress func(done, max uint64)) (*Result, error) {
		var sink telemetry.Sink
		if p, err := sc.Params(); err == nil {
			// Family registration is idempotent and the collector's label
			// caches are cheap, so a fresh collector per job is fine.
			sink = telemetry.NewSimCollector(reg, p.Strategy.String(), trace.CollapseName)
		}
		return evaluate(ctx, sc, workers, progress, sink)
	}
}

func evaluate(ctx context.Context, sc *config.Scenario, workers int, progress func(done, max uint64), sink telemetry.Sink) (*Result, error) {
	hash, err := sc.Hash()
	if err != nil {
		return nil, err
	}
	p, err := sc.Params()
	if err != nil {
		return nil, err
	}
	sys, err := core.Build(p)
	if err != nil {
		return nil, fmt.Errorf("service: build model: %w", err)
	}
	opts := sc.EvalOptions(sys)
	opts.Context = ctx
	opts.Workers = workers
	opts.Progress = progress
	opts.Telemetry = sink
	bias := opts.FailureBias
	if bias < 1 {
		bias = 1
	}
	if snap := snapshotSinkFrom(ctx); snap != nil {
		// Stream partial Welford state as Result snapshots for the SSE
		// endpoints; each snapshot is a self-contained curve, so a client
		// disconnecting mid-run has a usable (if wide-CI) estimate.
		opts.Snapshot = func(c *mc.Curve) { snap(curveResult(sc.Name, hash, c, bias)) }
	}
	curve, err := sys.UnsafetyCurve(opts)
	if err != nil {
		return nil, err
	}
	return curveResult(sc.Name, hash, curve, bias), nil
}

// curveResult converts an estimated (possibly partial) curve into the
// API's Result shape.
func curveResult(name, hash string, curve *mc.Curve, failureBias float64) *Result {
	res := &Result{
		Name:         name,
		ScenarioHash: hash,
		Times:        curve.Times,
		Unsafety:     curve.Mean,
		CILo:         make([]float64, len(curve.Intervals)),
		CIHi:         make([]float64, len(curve.Intervals)),
		Batches:      curve.Batches,
		Converged:    curve.Converged,
		FailureBias:  failureBias,
	}
	for i, iv := range curve.Intervals {
		res.CILo[i] = iv.Lo
		res.CIHi[i] = iv.Hi
	}
	return res
}
