package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"ahs/internal/service"
	"ahs/internal/sweep"
)

// window is what one timed window measured from the client side.
type window struct {
	wall      time.Duration
	lookups   dist        // hot-reads: per-lookup latency in ms, both round trips
	requests  int         // API requests sent in the window
	sweepIDs  []string    // sweeps submitted, in order
	terminals []time.Time // when each sweep's terminal stream event was read
	views     []sweep.View
	outcome
}

// outcome counts operations attempted and failed, keeping the first few
// failure reasons for the report.
type outcome struct {
	attempted, failed int
	reasons           []string
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.reasons) < 8 {
		o.reasons = append(o.reasons, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) add(other outcome) {
	o.attempted += other.attempted
	o.failed += other.failed
	for _, r := range other.reasons {
		if len(o.reasons) < 8 {
			o.reasons = append(o.reasons, r)
		}
	}
}

// sweepAck is the part of the POST /v1/sweeps answer the client needs.
type sweepAck struct {
	ID        string `json:"id"`
	StatusURL string `json:"statusUrl"`
}

// driveSweeps submits the workload's sweeps one after another, each time
// following the sweep's SSE stream to its terminal event before the next
// POST: a closed loop over one connection, as ahs-sweep -server drives it.
func driveSweeps(ctx context.Context, c *client, w *workloadSpec) (window, error) {
	var win window
	start := time.Now()
	for _, sp := range w.sweeps {
		if err := ctx.Err(); err != nil {
			return win, err
		}
		var ack sweepAck
		err := c.postJSON("/v1/sweeps", sp, &ack)
		var refused *httpError
		if errors.As(err, &refused) {
			// A refused sweep is one failed operation; its points never
			// ran, so they are not checked.
			win.attempted++
			win.fail("submit %s: %v", sp.Name, err)
			continue
		}
		if err != nil {
			return win, fmt.Errorf("submit %s: %w", sp.Name, err)
		}
		data, at, err := c.awaitEvent(ack.StatusURL+"/stream", "sweep")
		if err != nil {
			return win, err
		}
		var view sweep.View
		if err := json.Unmarshal(data, &view); err != nil {
			return win, fmt.Errorf("decode terminal sweep view: %w", err)
		}
		win.requests += 2
		win.sweepIDs = append(win.sweepIDs, ack.ID)
		win.terminals = append(win.terminals, at)
		win.views = append(win.views, view)
	}
	win.wall = time.Since(start)
	return win, nil
}

// lookupSet holds the prefilled hot-reads results: each key's scenario
// body for POST /v1/evaluate and the exact bytes GET /v1/results/{id}
// must serve for it.
type lookupSet struct {
	hashes  []string
	bodies  [][]byte
	want    [][]byte
	results []*service.Result
}

// newLookupSet renders the request bodies and expected answers; want is
// encoded exactly as the server's JSON writer encodes a Result.
func newLookupSet(points []sweep.Point, results []*service.Result) (*lookupSet, error) {
	ls := &lookupSet{results: results}
	for i, p := range points {
		body, err := json.Marshal(p.Scenario)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results[i]); err != nil {
			return nil, err
		}
		ls.hashes = append(ls.hashes, p.Hash)
		ls.bodies = append(ls.bodies, body)
		ls.want = append(ls.want, buf.Bytes())
	}
	return ls, nil
}

// evaluateAck is the part of the POST /v1/evaluate answer the client needs.
type evaluateAck struct {
	Cached    bool   `json:"cached"`
	ResultURL string `json:"resultUrl"`
}

// lookup is the documented cached lookup: POST the scenario, expect a
// cached answer, GET the result and compare it byte for byte.
func (ls *lookupSet) lookup(c *client, k int) error {
	b, _, err := c.do(http.MethodPost, "/v1/evaluate", ls.hashes[k], ls.bodies[k])
	if err != nil {
		return err
	}
	var ack evaluateAck
	if err := json.Unmarshal(b, &ack); err != nil {
		return fmt.Errorf("decode evaluate answer: %w", err)
	}
	if !ack.Cached {
		return fmt.Errorf("key %d answered uncached", k)
	}
	got, _, err := c.do(http.MethodGet, ack.ResultURL, ls.hashes[k], nil)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, ls.want[k]) {
		return fmt.Errorf("key %d: served result differs from the prefilled one", k)
	}
	return nil
}

// warmLookups looks the hot set up once, before the window: it fills the
// LRU with the keys users repeat and warms the connection and code paths.
func warmLookups(c *client, w *workloadSpec, ls *lookupSet) error {
	for _, k := range w.warm {
		if err := ls.lookup(c, k); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// driveLookups times every lookup of the seeded key order in a closed loop.
func driveLookups(ctx context.Context, c *client, w *workloadSpec, ls *lookupSet) (window, error) {
	var win window
	lat := make([]float64, 0, len(w.keys))
	start := time.Now()
	for i, k := range w.keys {
		if i%256 == 0 && ctx.Err() != nil {
			return win, ctx.Err()
		}
		t0 := time.Now()
		err := ls.lookup(c, k)
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e6)
		win.attempted++
		if err != nil {
			win.fail("lookup %d: %v", i, err)
		}
	}
	win.wall = time.Since(start)
	win.requests = 2 * len(w.keys)
	win.lookups = newDist(lat)
	return win, nil
}

// sweepOutput is what the server reported for one sweep after the window.
type sweepOutput struct {
	results []sweep.PointResult
	jobs    []service.JobView // the job views still retained, in point order
}

// collectSweeps fetches every sweep's per-point results and the job views
// the server still retains (its history keeps the newest jobs only).
func collectSweeps(c *client, win window) ([]sweepOutput, error) {
	out := make([]sweepOutput, len(win.sweepIDs))
	for i, id := range win.sweepIDs {
		if err := c.getJSON("/v1/sweeps/"+id+"/results", &out[i].results); err != nil {
			return nil, err
		}
	}
	budget := serveJobHistory
	for i := len(win.sweepIDs) - 1; i >= 0 && budget > 0; i-- {
		var view sweep.View
		if err := c.getJSON("/v1/sweeps/"+win.sweepIDs[i], &view); err != nil {
			return nil, err
		}
		for j := len(view.PointViews) - 1; j >= 0 && budget > 0; j-- {
			pv := view.PointViews[j]
			if pv.DedupOf >= 0 || pv.JobID == "" {
				continue
			}
			budget--
			var jv service.JobView
			if err := c.getJSON("/v1/jobs/"+pv.JobID, &jv); err != nil {
				continue // pruned from the job history
			}
			out[i].jobs = append(out[i].jobs, jv)
		}
	}
	return out, nil
}

// checkSweeps validates every point and re-evaluates the seed-chosen
// subset in-process: the curve must be bit-identical (%b) and the batch
// count equal to the budget. A failed or cancelled point, a zero estimate
// at the last duration, a wrong batch count or a mismatch each fail the
// point once.
func checkSweeps(ctx context.Context, w *workloadSpec, designs []*sweep.Design, out []sweepOutput) outcome {
	var o outcome
	bad := make(map[[2]int]bool)
	for si, so := range out {
		o.attempted += len(designs[si].Points)
		if len(so.results) != len(designs[si].Points) {
			o.fail("sweep %d: %d results for %d points", si, len(so.results), len(designs[si].Points))
			continue
		}
		for pi, pr := range so.results {
			sc := designs[si].Points[pi].Scenario
			if err := checkPoint(pr, sc.Batches); err != nil {
				bad[[2]int{si, pi}] = true
				o.fail("%s: %v", pr.Label, err)
			}
		}
	}
	for _, ck := range w.checks {
		si, pi := ck[0], ck[1]
		if bad[ck] || si >= len(out) || pi >= len(out[si].results) {
			continue
		}
		sc := designs[si].Points[pi].Scenario
		want, err := service.Evaluate(ctx, sc, runtime.GOMAXPROCS(0), nil)
		if err != nil {
			o.fail("re-evaluate %s: %v", sc.Name, err)
			continue
		}
		if err := sameCurve(out[si].results[pi].Result, want); err != nil {
			o.fail("%s: %v", sc.Name, err)
		}
	}
	return o
}

func checkPoint(pr sweep.PointResult, budget uint64) error {
	if pr.Status != sweep.PointDone || pr.Result == nil {
		return fmt.Errorf("status %s: %s", pr.Status, pr.Error)
	}
	res := pr.Result
	if res.Batches != budget {
		return fmt.Errorf("%d batches, budget %d", res.Batches, budget)
	}
	if n := len(res.Unsafety); n == 0 || res.Unsafety[n-1] == 0 {
		return fmt.Errorf("zero estimate at the last duration")
	}
	return nil
}

// sameCurve requires bit-identical estimates and interval bounds.
func sameCurve(got, want *service.Result) error {
	if got.Batches != want.Batches {
		return fmt.Errorf("batches %d, re-evaluation %d", got.Batches, want.Batches)
	}
	for _, f := range []struct {
		name      string
		got, want []float64
	}{
		{"unsafety", got.Unsafety, want.Unsafety},
		{"ciLo", got.CILo, want.CILo},
		{"ciHi", got.CIHi, want.CIHi},
	} {
		if len(f.got) != len(f.want) {
			return fmt.Errorf("%s has %d values, re-evaluation %d", f.name, len(f.got), len(f.want))
		}
		for i := range f.got {
			if g, w := fmt.Sprintf("%b", f.got[i]), fmt.Sprintf("%b", f.want[i]); g != w {
				return fmt.Errorf("%s[%d] = %s, re-evaluation %s", f.name, i, g, w)
			}
		}
	}
	return nil
}
