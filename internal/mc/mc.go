// Package mc runs batched Monte-Carlo estimation of transient SAN measures.
//
// It reproduces the evaluation procedure of §4.1 of the paper: every plotted
// point is the mean over simulation batches, stopped when the 95% confidence
// interval has relative half-width 0.1 (with a minimum batch count), and the
// batch budget grows as the measure gets rarer. Batches are deterministic —
// batch i always uses random stream i of the job's seed — so results do not
// depend on the number of workers.
//
// Every estimate goes through one chunk step and one fold. A Chunker
// simulates a chunk of the batch sequence and returns its sufficient
// statistics: one Welford accumulator per grid point for every round of
// CheckEvery batches, each folded in ascending batch order. A Merger folds
// chunk states round by round in ascending batch order, checks the stop
// rule at every round boundary of the contiguous prefix, and renders the
// curve. EstimateCurve is that pair run in-process over one-round chunks;
// internal/cluster runs the same pair with chunks simulated by remote
// workers. So for a fixed seed the estimate is bit-identical regardless of
// worker count, chunking, or which machine simulated which stripe.
//
// Importance sampling is expressed through sim.Options.Bias: each batch
// contributes Value·LikelihoodRatio, which reduces to plain Value for
// unbiased runs, so naive and rare-event estimation share one code path.
package mc

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"ahs/internal/rng"
	"ahs/internal/san"
	"ahs/internal/sim"
	"ahs/internal/stats"
	"ahs/internal/telemetry"
)

// Job describes one curve estimation.
type Job struct {
	// Model is the SAN to simulate.
	Model *san.Model
	// Sim configures trajectory execution (MaxTime must cover Times).
	Sim sim.Options
	// Times is the ascending measurement grid.
	Times []float64
	// Value is the measured quantity (e.g. the unsafety indicator).
	Value func(mk *san.Marking) float64
	// Seed selects the random stream family.
	Seed uint64
	// StopRule is the convergence criterion, applied to the estimate at
	// the last time point (the paper's per-point criterion applied to the
	// point that converges slowest for monotone measures). Zero value
	// means "run exactly MaxBatches".
	StopRule stats.RelativeStopRule
	// MaxBatches caps the effort; 0 means 1 million.
	MaxBatches uint64
	// CheckEvery is the round size between convergence checks; 0 means
	// 2000. It is also the canonical accumulation round (see the package
	// comment): jobs that must merge bit-identically — e.g. the chunked
	// estimation behind internal/cluster — have to agree on it. The round
	// buffer costs CheckEvery·len(Times)·8 bytes per measure.
	CheckEvery uint64
	// Workers is the parallelism; 0 means GOMAXPROCS.
	Workers int
	// Context, when non-nil, cancels the estimation: every worker checks
	// it before each batch, so a cancelled job stops within one
	// trajectory and the estimation returns ctx.Err(). Nil means run to
	// completion.
	Context context.Context
	// Progress, when non-nil, is invoked after every convergence round
	// with the number of completed batches and the batch cap. It is
	// called from the coordinating goroutine only (never concurrently)
	// and must be cheap; it exists so long-running estimations can report
	// liveness to a job manager.
	Progress func(batchesDone, maxBatches uint64)
	// Snapshot, when non-nil, receives a freshly built partial Curve after
	// every convergence round: the Welford state accumulated so far,
	// rendered exactly as the final curve will be (same grid, same CI
	// confidence). Like Progress it runs on the coordinating goroutine only
	// and must be cheap; the curve it receives is the callback's to keep.
	// It exists so a job manager can stream the CI converging live (see
	// the service layer's SSE endpoints) without touching the estimator's
	// hot path — the snapshot costs one CI computation per grid point per
	// round, nothing per trajectory.
	Snapshot func(partial *Curve)
	// Telemetry, when non-nil, receives per-trajectory events: a
	// trajectories count, a trajectory-steps observation, and — for
	// trajectories ended by the stop predicate — a time-to-absorption
	// observation plus a catastrophic-cause count classified by Cause.
	// It also becomes Sim.Sink (activity firings) unless one is already
	// set. Implementations must be safe for concurrent use; workers
	// record from their own goroutines.
	Telemetry telemetry.Sink
	// Cause classifies the final marking of a stopped trajectory (e.g.
	// core's ST1/ST2/ST3 catastrophic situations). Every chunk folds the
	// counts into its sufficient statistics, so a merge reconstructs them
	// wherever the chunks ran, and the Telemetry catastrophe counter uses
	// the same classification. When Cause is nil no cause counts are
	// recorded.
	Cause func(mk *san.Marking) string
}

// Curve is the estimated measure over the time grid.
type Curve struct {
	Times     []float64
	Mean      []float64
	Intervals []stats.Interval
	// Batches is the number of simulated trajectories.
	Batches uint64
	// Converged reports whether StopRule was met (always true when no
	// rule was set).
	Converged bool
}

// Final returns the estimate at the last grid point.
func (c *Curve) Final() float64 { return c.Mean[len(c.Mean)-1] }

func (j *Job) validate() error {
	if j.Model == nil {
		return errors.New("mc: nil model")
	}
	if j.Value == nil {
		return errors.New("mc: nil value function")
	}
	if len(j.Times) == 0 {
		return errors.New("mc: empty time grid")
	}
	for i := 1; i < len(j.Times); i++ {
		if j.Times[i] <= j.Times[i-1] {
			return fmt.Errorf("mc: time grid not strictly increasing at index %d", i)
		}
	}
	if j.Sim.MaxTime < j.Times[len(j.Times)-1] {
		return fmt.Errorf("mc: MaxTime %v does not cover last measurement %v",
			j.Sim.MaxTime, j.Times[len(j.Times)-1])
	}
	return nil
}

// EstimateCurve runs the job and returns the estimated curve.
func EstimateCurve(job Job) (*Curve, error) {
	curve, _, err := EstimateCurveMulti(job, nil)
	return curve, err
}

// EstimateCurveMulti runs the job and simultaneously estimates additional
// measures over the same trajectories (e.g. a breakdown of the unsafety by
// catastrophic situation). The convergence rule still applies to the main
// Value; the extra curves simply ride along, sharing every batch.
//
// The job is simulated as one-round chunks on one Chunker and folded by a
// Merger, the path a distributed merge takes; Progress and Snapshot fire
// after every fold.
func EstimateCurveMulti(job Job, extras map[string]func(mk *san.Marking) float64) (*Curve, map[string]*Curve, error) {
	names := make([]string, 0, len(extras))
	for name, value := range extras {
		if value == nil {
			return nil, nil, fmt.Errorf("mc: nil extra value %q", name)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	values := make([]func(*san.Marking) float64, len(names))
	for i, name := range names {
		values[i] = extras[name]
	}
	chunker, err := newChunker(job, values)
	if err != nil {
		return nil, nil, err
	}
	m := newMerger(job, len(values)+1)
	for !m.Complete() {
		spec := ChunkSpec{Start: m.Done(), Count: min(m.roundSize, m.target-m.Done())}
		state, err := chunker.Estimate(spec)
		if err != nil {
			return nil, nil, err
		}
		if err := m.Add(state); err != nil {
			return nil, nil, err
		}
		if job.Progress != nil {
			job.Progress(m.Done(), m.Target())
		}
		if job.Snapshot != nil {
			job.Snapshot(m.curve(0))
		}
	}
	var extraCurves map[string]*Curve
	if len(names) > 0 {
		extraCurves = make(map[string]*Curve, len(names))
		for i, name := range names {
			extraCurves[name] = m.curve(i + 1)
		}
	}
	return m.curve(0), extraCurves, nil
}

// runnerPool is the simulation engine behind Chunker: a set of
// per-goroutine runners that simulate a round of batches striped across
// workers, buffering each batch's weighted contribution so the fold into
// Welford accumulators can happen in canonical (ascending batch) order
// afterwards, independent of scheduling.
type runnerPool struct {
	job      *Job
	points   int
	measures int
	states   []*poolWorker
	src      *rng.Source
	// vals[mi][b*points+i] is the weighted contribution of the round's
	// b-th batch to measure mi at grid point i. Workers write disjoint
	// stripes; foldRound reads after the round barrier.
	vals [][]float64
}

type poolWorker struct {
	runner *sim.Runner
	probes []*sim.Probe
	// causes counts stopped trajectories by classified cause; nil unless
	// the job sets Cause.
	causes map[string]uint64
}

// newRunnerPool builds the engine for one job with defaults applied:
// job.Workers runners, each probing Value and then the extra measures.
func newRunnerPool(job *Job, extras []func(mk *san.Marking) float64) (*runnerPool, error) {
	p := &runnerPool{
		job:      job,
		points:   len(job.Times),
		measures: len(extras) + 1,
		states:   make([]*poolWorker, job.Workers),
		vals:     make([][]float64, len(extras)+1),
		src:      rng.NewSource(job.Seed),
	}
	for w := range p.states {
		runner, err := sim.NewRunner(job.Model, job.Sim)
		if err != nil {
			return nil, err
		}
		pw := &poolWorker{runner: runner, probes: make([]*sim.Probe, p.measures)}
		pw.probes[0] = &sim.Probe{Times: job.Times, Value: job.Value}
		for ei, value := range extras {
			pw.probes[ei+1] = &sim.Probe{Times: job.Times, Value: value}
		}
		if job.Cause != nil {
			pw.causes = make(map[string]uint64)
		}
		p.states[w] = pw
	}
	return p, nil
}

// runRound simulates batches [start, start+n) striped across the pool's
// workers: worker w runs start+w, start+w+workers, ... — deterministic
// regardless of scheduling. Contributions land in the round buffer.
func (p *runnerPool) runRound(ctx context.Context, start, n uint64) error {
	if need := int(n) * p.points; len(p.vals[0]) < need {
		for mi := range p.vals {
			p.vals[mi] = make([]float64, need)
		}
	}
	workers := len(p.states)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pw := p.states[w]
			for b := uint64(w); b < n; b += uint64(workers) {
				if err := ctx.Err(); err != nil {
					errs[w] = err
					return
				}
				stream := p.src.Stream(start + b)
				res, err := pw.runner.Run(stream, pw.probes...)
				if err != nil {
					errs[w] = err
					return
				}
				var cause string
				if res.Stopped && pw.causes != nil {
					// The runner's marking still holds the absorbing
					// state here; it is reused only by the next batch.
					cause = p.job.Cause(pw.runner.Marking())
					pw.causes[cause]++
				}
				if p.job.Telemetry != nil {
					recordTrajectory(p.job, res, cause)
				}
				base := b * uint64(p.points)
				for mi, probe := range pw.probes {
					for i := range probe.Values {
						p.vals[mi][base+uint64(i)] = probe.Values[i] * probe.Weights[i]
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// A context error outranks nothing but is outranked by simulation
	// errors, which are more specific.
	var ctxErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			ctxErr = err
			continue
		}
		return err
	}
	return ctxErr
}

// foldRound folds the buffered round into one fresh accumulator per measure
// and grid point, measure-major (see ChunkState.Rounds), adding
// contributions in ascending batch order. This is the canonical
// accumulation order of every estimate (see the package comment), which is
// what makes estimates bit-identical across worker counts and chunkings.
func (p *runnerPool) foldRound(n uint64) []stats.Welford {
	row := make([]stats.Welford, p.measures*p.points)
	for mi, vals := range p.vals {
		accs := row[mi*p.points : (mi+1)*p.points]
		for b := uint64(0); b < n; b++ {
			base := b * uint64(p.points)
			for i := range accs {
				accs[i].Add(vals[base+uint64(i)])
			}
		}
	}
	return row
}

// takeCauses returns the cause counts since the last call, merged across
// workers, and resets them; nil when no trajectory was classified.
func (p *runnerPool) takeCauses() map[string]uint64 {
	var out map[string]uint64
	for _, pw := range p.states {
		for k, v := range pw.causes {
			if out == nil {
				out = make(map[string]uint64)
			}
			out[k] += v
		}
		clear(pw.causes)
	}
	return out
}

// recordTrajectory publishes one finished trajectory, and the cause it was
// classified under, to the job's telemetry sink. Called from worker
// goroutines; the sink contract requires concurrency safety.
func recordTrajectory(job *Job, res sim.Result, cause string) {
	t := job.Telemetry
	t.Add(telemetry.MetricTrajectories, "", 1)
	t.Observe(telemetry.MetricTrajectorySteps, "", float64(res.Steps))
	if !res.Stopped {
		return
	}
	t.Observe(telemetry.MetricTimeToKO, "", res.StopTime)
	if job.Cause != nil {
		t.Add(telemetry.MetricCatastrophes, cause, 1) //ahsvet:ignore locklabel Cause classifies into the model's fixed catastrophe-cause set
	}
}
