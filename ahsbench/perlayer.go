package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"ahs/internal/service"
	"ahs/internal/sweep"
)

// runTracedPass runs the workload again against the in-process stack with
// the benchmark's span wrappers, then the direct calls, writes the spans
// and fills the per-layer metrics.
func runTracedPass(ctx context.Context, o *options, w *workloadSpec, runDir, image string, ls *lookupSet, designs []*sweep.Design, u *untraced, res *result) error {
	rec := newRecorder()
	storeDir := ""
	if w.store {
		storeDir = filepath.Join(runDir, "traced-store")
		if err := freshStore(image, storeDir); err != nil {
			return err
		}
	}
	ts, err := startTraced(rec, storeDir)
	if err != nil {
		return err
	}
	tw := w.traced()
	c := newClient(ctx, ts.base, true)
	var win window
	if ls != nil {
		if err = warmLookups(c, tw, ls); err == nil {
			win, err = driveLookups(ctx, c, tw, ls)
		}
	} else {
		win, err = driveSweeps(ctx, c, tw)
	}
	c.close()
	closeErr := ts.close()
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	res.add(win.outcome)
	for _, v := range win.views {
		res.attempted++
		if v.Status != sweep.StatusDone {
			res.fail("traced sweep %s ended %s (%d failed, %d cancelled)", v.ID, v.Status, v.Failed, v.Cancelled)
		}
	}
	res.attempted++
	if closeErr != nil {
		res.fail("traced stack drain: %v", closeErr)
	}
	steps, err := directCalls(ctx, rec, w, designs)
	if err != nil {
		return fmt.Errorf("direct calls: %w", err)
	}
	spans := rec.snapshot()
	res.layers = selfTimes(spans)
	dir := filepath.Join(o.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	res.spansPath = filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.name, w.seed))
	if err := writeSpans(res.spansPath, w.name, w.seed, spans); err != nil {
		return err
	}
	res.traced = tracedEndToEnd(w, win, ts.setup)
	res.perLayer = perLayerMetrics(u, res.layers, steps, ls)
	if w.name == "sweep-writes" {
		eval, put := layer(res.layers, "service.eval"), layer(res.layers, "resultstore.put")
		total := eval.Total + put.Total
		res.shares = append(res.shares, fmt.Sprintf("traced run: evaluation %.1f%%, persist %.1f%% of eval+persist time (%d evals %.3f s, %d puts %.3f s)",
			100*eval.Total.Seconds()/total.Seconds(), 100*put.Total.Seconds()/total.Seconds(), eval.Count, eval.Total.Seconds(), put.Count, put.Total.Seconds()))
	}
	return nil
}

// tracedEndToEnd is the traced run's own throughput and set-up, printed
// next to the untraced numbers so the harness overhead shows.
func tracedEndToEnd(w *workloadSpec, win window, setup time.Duration) []metric {
	wall := win.wall.Seconds()
	var units float64
	switch w.name {
	case "hot-reads":
		units = float64(win.lookups.n())
	case "paper-figure":
		for _, v := range win.views {
			units += float64(v.Progress.BatchesDone)
		}
	default:
		for _, v := range win.views {
			units += float64(v.Completed)
		}
	}
	out := []metric{
		{rateName[w.name], units / wall, "1/s", fmt.Sprintf("%.0f %s in %.3f s (the traced share of the inputs)", units, opName[w.name], wall)},
		{"setup_s", setup.Seconds(), "s", "in-process stack construction"},
	}
	if w.name == "hot-reads" {
		out = append(out, metric{"req_p50_ms", win.lookups.quantile(0.5), "ms", win.lookups.percentileNote(0.5)})
	}
	return out
}

// perLayerMetrics assembles the BENCHMARK.json per-layer set: T from the
// traced run's spans (simSteps are the timed steps of the trajectories the
// direct calls ran), C from the untraced run's /metrics delta and views.
// A metric whose layer the workload does not exercise reads 0 with the
// empty base named in its note.
func perLayerMetrics(u *untraced, layers []layerTime, simSteps uint64, ls *lookupSet) []metric {
	d := u.d
	run := layer(layers, "sim.run")
	est := layer(layers, "mc.estimate")
	estT := layer(layers, "mc.estimate_telemetry")
	var results []*service.Result
	if ls != nil {
		results = ls.results
	}
	for _, so := range u.out {
		for _, pr := range so.results {
			if pr.Result != nil {
				results = append(results, pr.Result)
			}
		}
	}
	var rs []float64
	var toAcc float64
	for _, r := range results {
		if x := relHalfWidth(r); !math.IsNaN(x) {
			rs = append(rs, x)
		}
		toAcc += batchesToAccuracy(r)
	}
	jt := newJobTimes(u.out)
	busy := jt.busy(u.win.wall)
	var lags []float64
	for i, v := range u.win.views {
		if t, err := time.Parse(time.RFC3339Nano, v.FinishedAt); err == nil {
			lags = append(lags, float64(u.win.terminals[i].Sub(t).Nanoseconds())/1e6)
		}
	}
	sub := d.sum("ahs_service_submitted_total")
	entries := u.after.sum("ahs_store_entries")
	route := func(endpoint string) ratio {
		sel := `{endpoint="` + endpoint + `"}`
		return ratio{d["ahs_http_request_duration_seconds_sum"+sel] * 1e6, d["ahs_http_request_duration_seconds_count"+sel]}
	}
	steps := ratio{d.sum("ahs_sim_trajectory_steps_sum"), d.sum("ahs_sim_trajectory_steps_count")}
	hits := ratio{d.sum("ahs_sim_catastrophes_total"), d.sum("ahs_sim_trajectories_total")}
	mem := ratio{d.sum("ahs_service_cache_hits_total"), sub}
	store := ratio{d.sum("ahs_service_store_hits_total"), sub}
	rec := ratio{u.after.sum("ahs_store_segment_bytes"), entries}
	spans := ratio{d.sum("ahs_trace_spans_total"), float64(u.win.requests)}
	eval, result := route("POST /v1/evaluate"), route("GET /v1/results/{id}")
	open := layer(layers, "resultstore.open")
	get, put := layer(layers, "resultstore.get"), layer(layers, "resultstore.put")
	build, nr := layer(layers, "core.build"), layer(layers, "sim.new_runner")
	hash, expand := layer(layers, "config.hash"), layer(layers, "sweep.expand")
	return []metric{
		{"sim.trajectory_us", run.meanMicros(), "us", fmt.Sprintf("T Runner.Run mean over %d trajectories", run.Count)},
		{"sim.step_ns", ratio{float64(run.Total.Nanoseconds()), float64(simSteps)}.value(), "ns", fmt.Sprintf("T %.4g s over %d steps", run.Total.Seconds(), simSteps)},
		{"sim.steps_per_trajectory", steps.value(), "count", "C " + steps.String()},
		{"sim.runner_setup_us", nr.meanMicros(), "us", fmt.Sprintf("T sim.NewRunner mean over %d calls", nr.Count)},
		{"core.build_ms", build.meanMicros() / 1e3, "ms", fmt.Sprintf("T core.Build mean over %d calls", build.Count)},
		{"mc.self_share", ratio{float64(est.Total - run.Total), float64(est.Total)}.value(), "ratio", fmt.Sprintf("T (EstimateCurve %.4g s − Runner.Run %.4g s) ÷ EstimateCurve, same batches", est.Total.Seconds(), run.Total.Seconds())},
		{"mc.hit_fraction", hits.value(), "ratio", "C catastrophes/trajectories " + hits.String()},
		{"mc.rel_halfwidth", newDist(rs).quantile(0.5), "ratio", fmt.Sprintf("C median r at the last duration over %d results", len(rs))},
		{"mc.batches_to_accuracy", toAcc, "count", fmt.Sprintf("C Σ B·(r/0.1)² over %d results", len(results))},
		{"telemetry.sim_overhead", ratio{float64(estT.Total), float64(est.Total)}.value(), "ratio", fmt.Sprintf("T EstimateCurve with SimCollector %.4g s ÷ without %.4g s", estT.Total.Seconds(), est.Total.Seconds())},
		{"config.hash_us", hash.meanMicros(), "us", fmt.Sprintf("T Scenario.Hash mean over %d calls", hash.Count)},
		{"sweep.expand_ms", expand.meanMicros() / 1e3, "ms", fmt.Sprintf("T Spec.Expand mean over %d designs", expand.Count)},
		{"service.queue_wait_ms", jt.wait.quantile(0.5), "ms", fmt.Sprintf("C job startedAt−submittedAt p50 over %d job views", jt.wait.n())},
		{"service.eval_ms", jt.run.quantile(0.5), "ms", fmt.Sprintf("C job finishedAt−startedAt p50 over %d job views", jt.run.n())},
		{"service.worker_busy_share", busy.value(), "ratio", "C mean run × points ÷ (workers × wall) " + busy.String()},
		{"service.result_lag_ms", newDist(lags).quantile(0.5), "ms", fmt.Sprintf("C terminal stream event − sweep finishedAt, median over %d sweeps", len(lags))},
		{"service.memory_hit_share", mem.value(), "ratio", "C cache hits/submissions " + mem.String()},
		{"service.store_hit_share", store.value(), "ratio", "C store hits/submissions " + store.String()},
		{"resultstore.open_ms", open.meanMicros() / 1e3, "ms", fmt.Sprintf("T resultstore.Open over %d calls", open.Count)},
		{"resultstore.get_us", get.meanMicros(), "us", fmt.Sprintf("T Store.Get mean over %d calls", get.Count)},
		{"resultstore.put_us", put.meanMicros(), "us", fmt.Sprintf("T Store.Put (fsync included) mean over %d calls", put.Count)},
		{"resultstore.record_bytes", rec.value(), "bytes", "C segment bytes/entries " + rec.String()},
		{"obs.spans_per_request", spans.value(), "count", "C trace spans/API requests " + spans.String()},
		{"http.evaluate_us", eval.value(), "us", "C POST /v1/evaluate server time " + eval.String()},
		{"http.result_us", result.value(), "us", "C GET /v1/results/{id} server time " + result.String()},
	}
}
