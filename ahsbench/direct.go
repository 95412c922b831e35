package main

import (
	"context"
	"fmt"
	"math/rand/v2"

	"ahs/internal/config"
	"ahs/internal/core"
	"ahs/internal/mc"
	"ahs/internal/rng"
	"ahs/internal/sim"
	"ahs/internal/sweep"
	"ahs/internal/telemetry"
	"ahs/internal/trace"
)

// Direct-call budget: how many of the workload's scenarios are measured,
// and how many batches of each are simulated (per pass) — capped so the
// three simulation passes stay a few seconds on the paper model.
const (
	directScenarios = 8
	directBatches   = 256
	hashRepeats     = 64
)

// directCalls records spans around calls into each layer's public
// functions on the workload's own scenarios and random streams, one
// goroutine at a time: Spec.Expand, Scenario.Hash, core.Build,
// sim.NewRunner, Runner.Run over the estimator's batch streams, and
// mc.EstimateCurve (Workers=1) over the same batches with and without the
// SimCollector that the service's default evaluation installs. It returns
// the timed steps of the trajectories it ran.
func directCalls(ctx context.Context, rec *recorder, w *workloadSpec, designs []*sweep.Design) (uint64, error) {
	var steps uint64
	for _, sp := range w.sweeps {
		end := rec.begin("sweep.expand", "")
		_, err := sp.Expand()
		end()
		if err != nil {
			return steps, err
		}
	}
	var pts []*config.Scenario
	for _, d := range designs {
		for _, p := range d.Points {
			pts = append(pts, p.Scenario)
		}
	}
	r := rand.New(rand.NewPCG(w.seed, 0x646972656374)) // "direct"
	r.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	pts = pts[:min(directScenarios, len(pts))]
	for _, sc := range pts {
		if err := ctx.Err(); err != nil {
			return steps, err
		}
		key, err := sc.Hash()
		if err != nil {
			return steps, err
		}
		for i := 0; i < hashRepeats; i++ {
			end := rec.begin("config.hash", key)
			_, _ = sc.Hash()
			end()
		}
		if err := directScenario(rec, key, sc, &steps); err != nil {
			return steps, fmt.Errorf("%s: %w", sc.Name, err)
		}
	}
	return steps, nil
}

// directScenario measures one scenario's model build, runner set-up,
// trajectories and estimator passes.
func directScenario(rec *recorder, key string, sc *config.Scenario, steps *uint64) error {
	p, err := sc.Params()
	if err != nil {
		return err
	}
	end := rec.begin("core.build", key)
	sys, err := core.Build(p)
	end()
	if err != nil {
		return err
	}
	opts := sc.EvalOptions(sys)
	opts.Workers = 1
	opts.MaxBatches = min(opts.MaxBatches, directBatches)
	job, err := sys.UnsafetyJob(opts)
	if err != nil {
		return err
	}
	end = rec.begin("sim.new_runner", key)
	runner, err := sim.NewRunner(job.Model, job.Sim)
	end()
	if err != nil {
		return err
	}
	// Batch b uses stream b of the job's seed, exactly as mc does.
	src := rng.NewSource(job.Seed)
	probe := &sim.Probe{Times: job.Times, Value: job.Value}
	for b := uint64(0); b < job.MaxBatches; b++ {
		stream := src.Stream(b)
		end := rec.begin("sim.run", key)
		res, err := runner.Run(stream, probe)
		end()
		if err != nil {
			return err
		}
		*steps += res.Steps
	}
	end = rec.begin("mc.estimate", key)
	_, err = mc.EstimateCurve(job)
	end()
	if err != nil {
		return err
	}
	// The collector is installed on the model for good (AHS.Instrument),
	// so the instrumented pass gets a model of its own.
	sysT, err := core.Build(p)
	if err != nil {
		return err
	}
	optsT := sc.EvalOptions(sysT)
	optsT.Workers = 1
	optsT.MaxBatches = opts.MaxBatches
	optsT.Telemetry = telemetry.NewSimCollector(telemetry.NewRegistry(), p.Strategy.String(), trace.CollapseName)
	jobT, err := sysT.UnsafetyJob(optsT)
	if err != nil {
		return err
	}
	end = rec.begin("mc.estimate_telemetry", key)
	_, err = mc.EstimateCurve(jobT)
	end()
	return err
}
