package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"ahs/internal/service"
	"ahs/internal/sweep"
)

// setupStarts is how many times a run starts the server; set-up time is
// the median over all of them, and the last start serves the workload.
const setupStarts = 9

// metric is one printed measurement with its unit and the samples or base
// behind it.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// result is one workload run, ready to print.
type result struct {
	w *workloadSpec
	outcome
	named     []metric // every end-to-end metric of the workload
	endToEnd  []metric // the subset BENCHMARK.json gates
	perLayer  []metric // the BENCHMARK.json per-layer set (traced runs)
	shares    []string // measured shares that justify the workload
	flags     []string // exact counts that differ from an earlier run of this seed
	layers    []layerTime
	traced    []metric // the traced run's own end-to-end numbers
	spansPath string
}

// untraced is the run against the ahs-serve subprocess.
type untraced struct {
	setups []float64 // seconds, one per server start
	rssMB  float64
	cpu    float64 // server CPU seconds in the window
	win    window
	d      scrape // /metrics after the window minus before
	after  scrape
	out    []sweepOutput
	check  outcome
}

// runWorkload runs one workload: the untraced run against the subprocess
// for end-to-end numbers and exact counts, then, with trace, the traced
// in-process run and the direct calls for per-layer timings.
func runWorkload(ctx context.Context, o *options, name string) (*result, error) {
	w, err := newWorkload(name, o.seed, o.seconds)
	if err != nil {
		return nil, err
	}
	designs := make([]*sweep.Design, len(w.sweeps))
	for i, sp := range w.sweeps {
		if designs[i], err = sp.Expand(); err != nil {
			return nil, err
		}
	}
	runDir := filepath.Join(o.root, ".bench_build", "runs", fmt.Sprintf("%d-%s", os.Getpid(), name))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	var ls *lookupSet
	image := ""
	if name == "hot-reads" {
		image = filepath.Join(runDir, "image")
		results, err := prefill(ctx, designs[0], image)
		if err != nil {
			return nil, err
		}
		if ls, err = newLookupSet(designs[0].Points, results); err != nil {
			return nil, err
		}
	}

	u, err := runUntraced(ctx, o, w, runDir, image, ls, designs)
	if err != nil {
		return nil, err
	}
	res := &result{w: w}
	res.add(u.win.outcome)
	res.add(u.check)
	summarize(res, u, ls)
	flags, err := compareCounts(o, w, u)
	if err != nil {
		return nil, err
	}
	for _, f := range flags {
		res.fail("exact count differs from an earlier run of this seed: %s", f)
	}
	res.flags = flags
	if !o.trace {
		res.perLayer = perLayerMetrics(u, nil, 0, ls)
		return res, nil
	}
	if err := runTracedPass(ctx, o, w, runDir, image, ls, designs, u, res); err != nil {
		return nil, err
	}
	return res, nil
}

// runUntraced starts the server setupStarts times, each on a fresh store
// (an empty directory, or a fresh copy of the hot-reads image), and drives
// the timed window against the last start.
func runUntraced(ctx context.Context, o *options, w *workloadSpec, runDir, image string, ls *lookupSet, designs []*sweep.Design) (*untraced, error) {
	u := &untraced{}
	for i := 0; i < setupStarts; i++ {
		var args []string
		if w.store {
			dir := filepath.Join(runDir, "store-"+strconv.Itoa(i))
			if err := freshStore(image, dir); err != nil {
				return nil, err
			}
			args = append(args, "-store-dir", dir)
		}
		srv, err := startServer(o.serve, filepath.Join(runDir, "serve-"+strconv.Itoa(i)+".log"), args)
		if err != nil {
			return nil, err
		}
		u.setups = append(u.setups, srv.setup.Seconds())
		if i == setupStarts-1 {
			if err := driveServer(ctx, srv, w, ls, designs, u); err != nil {
				srv.kill()
				return nil, err
			}
		}
		u.check.attempted++
		if err := srv.stop(); err != nil {
			u.check.fail("drain: %v", err)
		}
	}
	return u, nil
}

// freshStore prepares a store directory: a copy of image, or empty.
func freshStore(image, dir string) error {
	if image == "" {
		return os.MkdirAll(dir, 0o755)
	}
	return copyDir(image, dir)
}

// driveServer scrapes /metrics, runs the timed window, reads the server's
// CPU time and peak RSS, scrapes again, then collects the views and checks
// the outputs — all outside the window.
func driveServer(ctx context.Context, srv *serverProc, w *workloadSpec, ls *lookupSet, designs []*sweep.Design, u *untraced) error {
	c := newClient(ctx, srv.base, false)
	defer c.close()
	if ls != nil {
		if err := warmLookups(c, w, ls); err != nil {
			return err
		}
	}
	before, err := c.metrics()
	if err != nil {
		return err
	}
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return err
	}
	if ls != nil {
		u.win, err = driveLookups(ctx, c, w, ls)
	} else {
		u.win, err = driveSweeps(ctx, c, w)
	}
	if err != nil {
		return err
	}
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return err
	}
	u.cpu = cpu1 - cpu0
	// The high-water mark is read before the checks fetch every result,
	// so their transient allocations in the server do not count.
	if u.rssMB, err = srv.peakRSSMB(); err != nil {
		return err
	}
	if u.after, err = c.metrics(); err != nil {
		return err
	}
	u.d = delta(before, u.after)
	if ls == nil {
		if u.out, err = collectSweeps(c, u.win); err != nil {
			return err
		}
		u.check.add(checkSweeps(ctx, w, designs, u.out))
	}
	return nil
}

// summarize derives the end-to-end metrics, exact counts and workload
// shares of the untraced run.
func summarize(res *result, u *untraced, ls *lookupSet) {
	wall := u.win.wall.Seconds()
	setup := metric{"setup_s", newDist(u.setups).quantile(0.5), "s", fmt.Sprintf("median of %d server starts, exec to first 200 from /healthz", len(u.setups))}
	rss := metric{"peak_rss_mb", u.rssMB, "MB", "server VmHWM at the end of the window"}
	var units float64
	switch res.w.name {
	case "hot-reads":
		lat := u.win.lookups
		units = float64(lat.n())
		res.named = []metric{
			{"lookups_per_s", units / wall, "1/s", fmt.Sprintf("%d cached lookups in %.3f s", lat.n(), wall)},
			{"req_p50_ms", lat.quantile(0.5), "ms", lat.percentileNote(0.5)},
			{"req_p99_ms", lat.quantile(0.99), "ms", lat.percentileNote(0.99)},
		}
	case "paper-figure":
		pts, batches, toAcc := pointTotals(u.out)
		units = float64(batches)
		tps := units / wall
		res.named = []metric{
			{"trajectories_per_s", tps, "1/s", fmt.Sprintf("%d trajectories over %d points in %.3f s", batches, pts, wall)},
			{"time_to_accuracy_s", toAcc / tps, "s", fmt.Sprintf("Σ B·(r/0.1)² = %.4g batches over %d points ÷ trajectories_per_s", toAcc, pts)},
		}
	default:
		pts, _, _ := pointTotals(u.out)
		units = float64(pts)
		res.named = []metric{{"points_per_s", units / wall, "1/s", fmt.Sprintf("%d unique points over %d sweeps in %.3f s", pts, len(u.out), wall)}}
	}
	if u.out != nil {
		jobs := newJobTimes(u.out).total
		res.named = append(res.named, metric{"job_p50_ms", jobs.quantile(0.5), "ms", "point job submitted→finished, " + jobs.percentileNote(0.5) + " of the retained job views"})
	}
	cpu := metric{"cpu_us_per_op", ratio{u.cpu * 1e6, units}.value(), "us", fmt.Sprintf("server CPU %.2f s over %.0f %s", u.cpu, units, opName[res.w.name])}
	res.named = append(res.named, setup, rss, cpu)
	res.endToEnd = []metric{setup, rss, cpu}

	d := u.d
	switch res.w.name {
	case "paper-figure":
		evalS := d.sum("ahs_service_eval_milliseconds_total") / 1e3
		serveS := httpSeconds(d)
		res.shares = append(res.shares,
			fmt.Sprintf("evaluation %.1f%% of worker time (%.2f s of %d workers × %.2f s wall); serving requests %.3f%% of wall (%.4f s over %d requests, streams excluded)",
				100*evalS/(serveWorkers*wall), evalS, serveWorkers, wall, 100*serveS/wall, serveS, u.win.requests))
	case "sweep-writes":
		jt := newJobTimes(u.out)
		res.shares = append(res.shares,
			fmt.Sprintf("job views: p50 wait %.3f ms, p50 run %.3f ms (evaluation plus persist) over %d retained jobs; workers busy %s of the wall time",
				jt.wait.quantile(0.5), jt.run.quantile(0.5), jt.run.n(), jt.busy(u.win.wall)))
	case "hot-reads":
		sub := d.sum("ahs_service_submitted_total")
		res.shares = append(res.shares,
			fmt.Sprintf("memory tier %s, store tier %s of submissions; K=%d keys vs LRU capacity %d",
				ratio{d.sum("ahs_service_cache_hits_total"), sub}, ratio{d.sum("ahs_service_store_hits_total"), sub}, len(ls.hashes), serveLRU))
	}
}

// opName names the unit of work cpu_us_per_op divides by on each workload,
// and rateName the workload's own throughput metric.
var (
	opName = map[string]string{
		"paper-figure": "trajectories",
		"sweep-writes": "points",
		"hot-reads":    "cached lookups",
	}
	rateName = map[string]string{
		"paper-figure": "trajectories_per_s",
		"sweep-writes": "points_per_s",
		"hot-reads":    "lookups_per_s",
	}
)

// httpSeconds sums the server-side request time of the window from the
// latency histogram, leaving out the SSE streams, which mostly wait.
func httpSeconds(d scrape) float64 {
	var s float64
	for k, v := range d {
		if metricName(k) == "ahs_http_request_duration_seconds_sum" && !strings.Contains(k, "/stream") {
			s += v
		}
	}
	return s
}

// pointTotals counts completed unique points and their batches, and sums
// each point's projected batches to the §4.1 accuracy, B·(r/0.1)², where r
// is the achieved relative 95% half-width at the last trip duration.
func pointTotals(out []sweepOutput) (points int, batches uint64, toAccuracy float64) {
	for _, so := range out {
		for _, pr := range so.results {
			if pr.Status != sweep.PointDone || pr.Result == nil {
				continue
			}
			points++
			batches += pr.Result.Batches
			toAccuracy += batchesToAccuracy(pr.Result)
		}
	}
	return points, batches, toAccuracy
}

// relHalfWidth is r at the last trip duration (NaN for a zero estimate).
func relHalfWidth(res *service.Result) float64 {
	n := len(res.Unsafety)
	if n == 0 || res.Unsafety[n-1] == 0 {
		return math.NaN()
	}
	return (res.CIHi[n-1] - res.CILo[n-1]) / 2 / res.Unsafety[n-1]
}

// batchesToAccuracy projects the batches a point needs to reach r = 0.1:
// the half-width shrinks as 1/√B, so B·(r/0.1)².
func batchesToAccuracy(res *service.Result) float64 {
	r := relHalfWidth(res)
	if math.IsNaN(r) {
		return 0
	}
	return float64(res.Batches) * (r / 0.1) * (r / 0.1)
}

// jobTimes are the retained job views' phases in ms: wait is
// submitted→started, run is started→finished (evaluation plus persist)
// and total is submitted→finished.
type jobTimes struct {
	wait, run, total dist
	points           int // unique points of the sweeps, retained or not
}

func newJobTimes(out []sweepOutput) jobTimes {
	var wait, run, total []float64
	var jt jobTimes
	for _, so := range out {
		jt.points += len(so.results)
		for _, jv := range so.jobs {
			w, ok1 := between(jv.SubmittedAt, jv.StartedAt)
			r, ok2 := between(jv.StartedAt, jv.FinishedAt)
			if ok1 && ok2 {
				wait, run, total = append(wait, w), append(run, r), append(total, w+r)
			}
		}
	}
	jt.wait, jt.run, jt.total = newDist(wait), newDist(run), newDist(total)
	return jt
}

// busy is the workers' busy share of the window: the mean retained run
// time times the number of points over workers × wall.
func (jt jobTimes) busy(wall time.Duration) ratio {
	if jt.run.n() == 0 {
		return ratio{}
	}
	return ratio{jt.run.mean() / 1e3 * float64(jt.points), serveWorkers * wall.Seconds()}
}

// between is b − a in ms for two RFC 3339 timestamps of a job view.
func between(a, b string) (float64, bool) {
	ta, err1 := time.Parse(time.RFC3339Nano, a)
	tb, err2 := time.Parse(time.RFC3339Nano, b)
	if err1 != nil || err2 != nil {
		return 0, false
	}
	return float64(tb.Sub(ta).Nanoseconds()) / 1e6, true
}

// exactCounts are the counts that must repeat exactly for one seed.
type exactCounts struct {
	Trajectories float64 `json:"trajectories"`
	Steps        float64 `json:"steps"`
	Catastrophes float64 `json:"catastrophes"`
	StoreEntries float64 `json:"storeEntries"`
}

// compareCounts records this run's exact counts under the workload, seed,
// run length and server binary, and reports any that differ from an
// earlier run with the same key.
func compareCounts(o *options, w *workloadSpec, u *untraced) ([]string, error) {
	now := exactCounts{
		Trajectories: u.d.sum("ahs_sim_trajectories_total"),
		Steps:        u.d.sum("ahs_sim_trajectory_steps_sum"),
		Catastrophes: u.d.sum("ahs_sim_catastrophes_total"),
		StoreEntries: u.after.sum("ahs_store_entries"),
	}
	bin, err := fileDigest(o.serve)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(o.root, ".bench_build", "counts")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%ds-%s.json", w.name, w.seed, w.seconds, bin))
	if b, err := os.ReadFile(path); err == nil {
		var was exactCounts
		if err := json.Unmarshal(b, &was); err != nil {
			return nil, fmt.Errorf("read %s: %w", path, err)
		}
		var flags []string
		for _, f := range []struct {
			name     string
			was, now float64
		}{
			{"trajectories", was.Trajectories, now.Trajectories},
			{"steps", was.Steps, now.Steps},
			{"catastrophes", was.Catastrophes, now.Catastrophes},
			{"store entries", was.StoreEntries, now.StoreEntries},
		} {
			if f.was != f.now {
				flags = append(flags, fmt.Sprintf("%s %.0f, earlier run %.0f", f.name, f.now, f.was))
			}
		}
		return flags, nil
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	b, err := json.Marshal(now)
	if err != nil {
		return nil, err
	}
	return nil, os.WriteFile(path, b, 0o644)
}

// fileDigest is a short SHA-256 of a file, naming the server build.
func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:12], nil
}
