package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"ahs/internal/config"
	"ahs/internal/sweep"
)

// Work per second of --seconds, measured on a 2-vCPU x86-64 VM (see
// README.md): each workload's input is sized from these rates so a run
// lasts about --seconds there, while the work itself — and so every exact
// count — depends only on the seed and --seconds.
const (
	paperTrajectoriesPerSecond = 4400 // paper-figure trajectories per second
	writePointsPerSecond       = 1000 // sweep-writes design points per second
	lookupsPerSecond           = 2500 // hot-reads cached lookups per second
)

// paperPointBatches is the batch budget of every paper-figure point. Under
// the automatic importance sampling 0.3-0.9% of these trajectories reach
// KO_total, so a point needs thousands of batches before a zero estimate at
// 10 h stops being a real risk: 5000 batches expect 15-45 hits.
const paperPointBatches = 5000

// Server defaults the benchmark mirrors (cmd/ahs-serve flags and the
// service's job history).
const (
	serveWorkers    = 2
	serveLRU        = 256
	serveInFlight   = 4
	maxSweepSize    = 4096
	serveJobHistory = 1024
)

// paperTrips is the Figure 14 trip-duration grid in hours.
var paperTrips = []float64{2, 4, 6, 8, 10}

// workloadSpec is everything a run hands the server, generated from the
// seed: sweep specs to submit, or the prefilled keys and their lookup
// order.
type workloadSpec struct {
	name    string
	why     string
	seed    uint64
	seconds int

	// sweeps are submitted in order (paper-figure, sweep-writes); for
	// hot-reads the single sweep is the design of the prefilled keys.
	sweeps []*sweep.Spec
	// store runs the server with -store-dir.
	store bool
	// checks are the (sweep, point index) pairs re-evaluated in-process
	// after the window.
	checks [][2]int

	// hot-reads: lookup order and the untimed warm-up, as indexes into
	// the prefilled design's points.
	keys, warm []int
}

// newWorkload generates the named workload's inputs.
func newWorkload(name string, seed uint64, seconds int) (*workloadSpec, error) {
	r := rand.New(rand.NewPCG(seed, 0x61687362656e6368)) // "ahsbench"
	w := &workloadSpec{name: name, seed: seed, seconds: seconds}
	switch name {
	case "paper-figure":
		w.why = "the paper's own computation: sim, san, rng and mc do almost all the work, so a simulator change shows here and a serving change must not"
		// Each simulation seed adds the 8-point grid once more.
		grid := []sweep.Axis{
			{Param: "strategy", Strings: []string{"DD", "DC", "CD", "CC"}},
			{Param: "n", Values: []float64{10, 12}},
		}
		seeds := max(1, int(math.Round(float64(paperTrajectoriesPerSecond*seconds)/(8*paperPointBatches))))
		seedAxis := sweep.Axis{Param: "seed"}
		for i := 0; i < seeds; i++ {
			seedAxis.Values = append(seedAxis.Values, float64(1+r.Uint64N(1<<40)))
		}
		w.sweeps = []*sweep.Spec{{
			Name: "paper-figure",
			Base: config.Scenario{
				LambdaPerHour: 1e-5,
				TripHours:     paperTrips,
				Batches:       paperPointBatches,
			},
			Axes: append(grid, seedAxis),
		}}
		w.checks = pickChecks(r, w.sweeps, 1)
	case "sweep-writes":
		w.why = "thousands of cold cheap points: model build, runner set-up, dispatch, queueing and the fsync'd store append do about half the work"
		w.store = true
		// Points are split into as few sweeps as the server's 4096-point
		// cap allows; each sweep crosses the four strategies with its own
		// λ levels, and every sweep has its own seed.
		total := writePointsPerSecond * seconds
		n := (total + maxSweepSize - 1) / maxSweepSize
		levels := max(1, total/(4*n))
		for i := 0; i < n; i++ {
			w.sweeps = append(w.sweeps, &sweep.Spec{
				Name: fmt.Sprintf("sweep-writes-%d", i),
				Base: config.Scenario{
					N:         2,
					TripHours: []float64{0.5, 1},
					Batches:   32,
					Seed:      1 + r.Uint64N(1<<40),
				},
				Axes: []sweep.Axis{
					{Param: "strategy", Strings: []string{"DD", "DC", "CD", "CC"}},
					{Param: "lambdaPerHour", Values: distinctLevels(r, levels, 0.3, 0.8, false)},
				},
			})
		}
		w.checks = pickChecks(r, w.sweeps, 16)
	case "hot-reads":
		w.why = "no simulation: HTTP, config hashing, service lookup, resultstore.Get, tracing and JSON, with set-up scanning the prefilled store"
		w.store = true
		const keys = 8 * serveLRU // K, several times the LRU capacity
		w.sweeps = []*sweep.Spec{{
			Name: "hot-reads",
			Base: config.Scenario{
				N:         2,
				TripHours: paperTrips,
				Batches:   8,
				Seed:      1 + r.Uint64N(1<<40),
			},
			Axes: []sweep.Axis{
				{Param: "strategy", Strings: []string{"DD", "DC", "CD", "CC"}},
				{Param: "lambdaPerHour", Values: distinctLevels(r, keys/4, 0.02, 0.1, true)},
			},
		}}
		// Half the lookups go to a hot set that stays in the LRU, half are
		// uniform over all K keys and mostly fall through to the store.
		hot := r.Perm(keys)[:serveLRU/4]
		w.warm = hot
		w.keys = make([]int, lookupsPerSecond*seconds)
		for i := range w.keys {
			if r.IntN(2) == 0 {
				w.keys[i] = hot[r.IntN(len(hot))]
			} else {
				w.keys[i] = r.IntN(keys)
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want paper-figure, sweep-writes or hot-reads)", name)
	}
	for _, sp := range w.sweeps {
		if err := sp.Validate(); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// traced returns the share of the workload the traced in-process run
// repeats: per-layer timings need far less volume than the end-to-end
// numbers, so it runs the first simulation seed of paper-figure (half the
// points at 15 s) and the first quarter of the sweep-writes sweeps or of
// the hot-reads lookups.
func (w *workloadSpec) traced() *workloadSpec {
	t := *w
	switch w.name {
	case "paper-figure":
		sp := *w.sweeps[0]
		sp.Axes = append([]sweep.Axis(nil), sp.Axes...)
		last := &sp.Axes[len(sp.Axes)-1]
		last.Values = last.Values[:1]
		t.sweeps = []*sweep.Spec{&sp}
	case "sweep-writes":
		t.sweeps = w.sweeps[:max(1, len(w.sweeps)/4)]
	case "hot-reads":
		t.keys = w.keys[:max(1, len(w.keys)/4)]
	}
	return &t
}

// distinctLevels draws n distinct values in [lo, hi), uniform or
// log-uniform, so every design point is a distinct scenario.
func distinctLevels(r *rand.Rand, n int, lo, hi float64, logScale bool) []float64 {
	seen := make(map[float64]bool, n)
	out := make([]float64, 0, n)
	for len(out) < n {
		u := r.Float64()
		v := lo + u*(hi-lo)
		if logScale {
			v = lo * math.Pow(hi/lo, u)
		}
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// pickChecks chooses k (sweep, point) pairs uniformly without repeats.
func pickChecks(r *rand.Rand, specs []*sweep.Spec, k int) [][2]int {
	var all [][2]int
	for si, sp := range specs {
		for pi := 0; pi < designSize(sp); pi++ {
			all = append(all, [2]int{si, pi})
		}
	}
	r.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:min(k, len(all))]
}

// designSize is the number of points a grid spec expands to.
func designSize(sp *sweep.Spec) int {
	n := 1
	for _, a := range sp.Axes {
		n *= max(len(a.Values), len(a.Strings))
	}
	return n
}
