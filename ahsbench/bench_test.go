package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"ahs/internal/service"
	"ahs/internal/sweep"
)

const exposition = `# HELP ahs_service_submitted_total Accepted evaluation requests.
# TYPE ahs_service_submitted_total counter
ahs_service_submitted_total 10
# TYPE ahs_sim_trajectories_total counter
ahs_sim_trajectories_total{strategy="DD"} 400
ahs_sim_trajectories_total{strategy="CC"} 600
# TYPE ahs_http_request_duration_seconds histogram
ahs_http_request_duration_seconds_bucket{endpoint="GET /v1/results/{id}",le="0.0005"} 3
ahs_http_request_duration_seconds_bucket{endpoint="GET /v1/results/{id}",le="+Inf"} 4
ahs_http_request_duration_seconds_sum{endpoint="GET /v1/results/{id}"} 0.002
ahs_http_request_duration_seconds_count{endpoint="GET /v1/results/{id}"} 4
ahs_odd_label{v="a \"quoted\" } brace"} 1.5e-3
`

func TestParseScrape(t *testing.T) {
	s, err := parseScrape(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"ahs_service_submitted_total":                                                         10,
		`ahs_sim_trajectories_total{strategy="DD"}`:                                           400,
		`ahs_http_request_duration_seconds_sum{endpoint="GET /v1/results/{id}"}`:              0.002,
		`ahs_http_request_duration_seconds_bucket{endpoint="GET /v1/results/{id}",le="+Inf"}`: 4,
		`ahs_odd_label{v="a \"quoted\" } brace"}`:                                             1.5e-3,
	}
	for k, v := range want {
		if got, ok := s[k]; !ok || got != v {
			t.Errorf("%s = %v (present %v), want %v", k, got, ok, v)
		}
	}
	if got := s.sum("ahs_sim_trajectories_total"); got != 1000 {
		t.Errorf("sum over labels = %v, want 1000", got)
	}
	if _, err := parseScrape(strings.NewReader(`broken{a="b" 1`)); err == nil {
		t.Error("unterminated label set parsed")
	}
	if _, err := parseScrape(strings.NewReader("novalue\n")); err == nil {
		t.Error("sample without a value parsed")
	}
}

func TestDelta(t *testing.T) {
	before := scrape{"a": 5, `b{x="1"}`: 2, "gone": 7}
	after := scrape{"a": 12, `b{x="1"}`: 2, `b{x="2"}`: 3}
	d := delta(before, after)
	want := scrape{"a": 7, `b{x="1"}`: 0, `b{x="2"}`: 3}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("delta = %v, want %v", d, want)
	}
	if got := d.sum("b"); got != 3 {
		t.Errorf("sum(b) = %v, want 3", got)
	}
}

func TestRatioCarriesItsBase(t *testing.T) {
	r := ratio{3, 12}
	if r.value() != 0.25 || r.String() != "0.25 (3 / 12)" {
		t.Errorf("ratio = %v %q", r.value(), r.String())
	}
	empty := ratio{5, 0}
	if empty.value() != 0 || !strings.Contains(empty.String(), "base 0") {
		t.Errorf("empty base = %v %q", empty.value(), empty.String())
	}
}

func TestPercentilesWithSampleCounts(t *testing.T) {
	xs := make([]float64, 0, 1000)
	for i := 1000; i >= 1; i-- { // unsorted input
		xs = append(xs, float64(i))
	}
	d := newDist(xs)
	cases := []struct {
		q      float64
		want   float64
		beyond int
	}{
		{0.5, 500, 500},
		{0.99, 990, 10},
		{0.999, 999, 1},
		{1, 1000, 0},
		{0, 1, 999},
	}
	for _, c := range cases {
		if got := d.quantile(c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
		if got := d.beyond(c.q); got != c.beyond {
			t.Errorf("beyond(%v) = %d, want %d", c.q, got, c.beyond)
		}
	}
	if got := d.percentileNote(0.99); got != "p99 over 1000 samples (10 beyond)" {
		t.Errorf("note = %q", got)
	}
	ties := newDist([]float64{1, 2, 2, 2, 3})
	if ties.quantile(0.5) != 2 || ties.beyond(0.5) != 1 {
		t.Errorf("ties: p50 %v beyond %d", ties.quantile(0.5), ties.beyond(0.5))
	}
	if (dist{}).quantile(0.5) != 0 || (dist{}).n() != 0 {
		t.Error("empty sample")
	}
}

func TestTimeToAccuracy(t *testing.T) {
	// r = (hi-lo)/2/mean at the last duration: (1.4-0.6)/2/1 = 0.4, so
	// reaching r = 0.1 needs (0.4/0.1)² = 16 times the 1000 batches.
	a := &service.Result{Batches: 1000, Unsafety: []float64{0.5, 1}, CILo: []float64{0, 0.6}, CIHi: []float64{1, 1.4}}
	if got := relHalfWidth(a); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("r = %v, want 0.4", got)
	}
	if got := batchesToAccuracy(a); math.Abs(got-16000) > 1e-6 {
		t.Fatalf("batches to accuracy = %v, want 16000", got)
	}
	// Already at r = 0.05: a quarter of the budget would have done.
	b := &service.Result{Batches: 400, Unsafety: []float64{2}, CILo: []float64{1.9}, CIHi: []float64{2.1}}
	zero := &service.Result{Batches: 400, Unsafety: []float64{0}, CILo: []float64{0}, CIHi: []float64{0}}
	if !math.IsNaN(relHalfWidth(zero)) || batchesToAccuracy(zero) != 0 {
		t.Error("a zero estimate has no relative half-width")
	}
	out := []sweepOutput{{results: []sweep.PointResult{
		{Status: sweep.PointDone, Result: a},
		{Status: sweep.PointDone, Result: b},
		{Status: sweep.PointFailed},
	}}}
	points, batches, toAcc := pointTotals(out)
	if points != 2 || batches != 1400 || math.Abs(toAcc-16100) > 1e-6 {
		t.Fatalf("totals = %d points, %d batches, %v to accuracy", points, batches, toAcc)
	}
	// At 700 trajectories/s the projected time is 16100/700 = 23 s.
	if got := toAcc / (float64(batches) / 2.0); math.Abs(got-23) > 1e-9 {
		t.Errorf("time to accuracy = %v s, want 23", got)
	}
}

func TestSelfTimeOnHandBuiltTree(t *testing.T) {
	// root [0,100) has children a [10,40) and b [30,60) that overlap, and
	// c [90,120) that runs past it; a has a grandchild [15,25).
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "leaf", Start: 15, End: 25},
		{ID: 6, Name: "leaf", Start: 200, End: 230},
	}
	got := map[string]layerTime{}
	for _, lt := range selfTimes(spans) {
		got[lt.Name] = lt
	}
	want := map[string]layerTime{
		"root": {Name: "root", Count: 1, Total: 100, Self: 100 - 50 - 10}, // union [10,60) ∪ [90,100)
		"a":    {Name: "a", Count: 1, Total: 30, Self: 20},
		"b":    {Name: "b", Count: 1, Total: 30, Self: 30},
		"c":    {Name: "c", Count: 1, Total: 30, Self: 30},
		"leaf": {Name: "leaf", Count: 2, Total: 40, Self: 40},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times\n got %v\nwant %v", got, want)
	}
	if m := got["leaf"].meanMicros(); m != 0.02 {
		t.Errorf("mean = %v µs, want 0.02", m)
	}
}

func TestRecorderParentsByKey(t *testing.T) {
	rec := newRecorder()
	endReq := rec.begin("http.evaluate", "k1")
	endGet := rec.begin("resultstore.get", "k1")
	endOther := rec.begin("resultstore.get", "k2")
	endGet()
	endOther()
	endReq()
	endAfter := rec.begin("resultstore.put", "k1")
	endAfter()
	spans := rec.snapshot()
	if len(spans) != 4 {
		t.Fatalf("%d spans", len(spans))
	}
	parents := []int{spans[0].Parent, spans[1].Parent, spans[2].Parent, spans[3].Parent}
	if !reflect.DeepEqual(parents, []int{0, 1, 0, 0}) {
		t.Errorf("parents = %v, want [0 1 0 0]", parents)
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", s.ID)
		}
	}
	if open := rec.begin("open", ""); len(rec.snapshot()) != 4 {
		t.Error("an open span was exported")
	} else {
		open()
	}
}

func TestCheckerRejectsOneULP(t *testing.T) {
	want := &service.Result{
		Batches:  5000,
		Unsafety: []float64{1.2345e-7, 3.5e-7},
		CILo:     []float64{1e-7, 2e-7},
		CIHi:     []float64{1.5e-7, 5e-7},
	}
	clone := func() *service.Result {
		c := *want
		c.Unsafety = append([]float64(nil), want.Unsafety...)
		c.CILo = append([]float64(nil), want.CILo...)
		c.CIHi = append([]float64(nil), want.CIHi...)
		return &c
	}
	if err := sameCurve(clone(), want); err != nil {
		t.Fatalf("identical curves rejected: %v", err)
	}
	for _, field := range []string{"unsafety", "ciLo", "ciHi"} {
		got := clone()
		xs := map[string][]float64{"unsafety": got.Unsafety, "ciLo": got.CILo, "ciHi": got.CIHi}[field]
		xs[1] = math.Nextafter(xs[1], math.Inf(1))
		err := sameCurve(got, want)
		if err == nil || !strings.Contains(err.Error(), field+"[1]") {
			t.Errorf("one-ULP change in %s: err = %v", field, err)
		}
	}
	short := clone()
	short.Batches = 4999
	if err := sameCurve(short, want); err == nil {
		t.Error("batch count mismatch accepted")
	}
}

func TestCheckPoint(t *testing.T) {
	ok := &service.Result{Batches: 32, Unsafety: []float64{0.1, 0.2}}
	if err := checkPoint(sweep.PointResult{Status: sweep.PointDone, Result: ok}, 32); err != nil {
		t.Errorf("good point rejected: %v", err)
	}
	for name, pr := range map[string]sweep.PointResult{
		"failed":       {Status: sweep.PointFailed, Error: "boom"},
		"cancelled":    {Status: sweep.PointCancelled},
		"zero at last": {Status: sweep.PointDone, Result: &service.Result{Batches: 32, Unsafety: []float64{0.1, 0}}},
		"short budget": {Status: sweep.PointDone, Result: &service.Result{Batches: 31, Unsafety: []float64{0.1, 0.2}}},
	} {
		if err := checkPoint(pr, 32); err == nil {
			t.Errorf("%s point accepted", name)
		}
	}
}

func TestWorkloadsAreSeeded(t *testing.T) {
	for _, name := range workloads {
		a, err := newWorkload(name, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newWorkload(name, 7, 2)
		c, _ := newWorkload(name, 8, 2)
		ja, _ := json.Marshal(a.sweeps)
		jb, _ := json.Marshal(b.sweeps)
		jc, _ := json.Marshal(c.sweeps)
		if string(ja) != string(jb) || !reflect.DeepEqual(a.keys, b.keys) || !reflect.DeepEqual(a.checks, b.checks) {
			t.Errorf("%s: same seed, different inputs", name)
		}
		if string(ja) == string(jc) {
			t.Errorf("%s: seeds 7 and 8 generate the same sweeps", name)
		}
		for _, sp := range a.sweeps {
			d, err := sp.Expand()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if d.Deduped() != 0 || len(d.Points) > maxSweepSize {
				t.Errorf("%s: %d points, %d deduplicated", name, len(d.Points), d.Deduped())
			}
		}
		if tr := a.traced(); len(tr.sweeps) == 0 || len(tr.keys) > len(a.keys) {
			t.Errorf("%s: traced share is not a subset", name)
		}
	}
	if _, err := newWorkload("nope", 1, 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestHotReadsSkewCoversBothTiers(t *testing.T) {
	w, err := newWorkload("hot-reads", 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	hot := make(map[int]bool)
	for _, k := range w.warm {
		hot[k] = true
	}
	if len(hot) > serveLRU/2 {
		t.Fatalf("hot set of %d keys does not leave the LRU room", len(hot))
	}
	inHot := 0
	for _, k := range w.keys {
		if hot[k] {
			inHot++
		}
	}
	// Half the lookups are drawn from the hot set and half uniformly, so
	// between a quarter and three quarters must land on each side.
	share := float64(inHot) / float64(len(w.keys))
	if share < 0.25 || share > 0.75 {
		t.Errorf("hot share %.3f of %d lookups", share, len(w.keys))
	}
	if got := designSize(w.sweeps[0]); got < 4*serveLRU {
		t.Errorf("K = %d keys is not several times the LRU capacity %d", got, serveLRU)
	}
}

func TestSummaryLine(t *testing.T) {
	w := &workloadSpec{name: "hot-reads"}
	res := &result{w: w, outcome: outcome{attempted: 10},
		endToEnd: []metric{{name: "setup_s", value: 0.02, unit: "s"}},
		perLayer: []metric{{name: "config.hash_us", value: 9, unit: "us"}},
	}
	line, ok := summaryLine([]*result{res}, false, false)
	if !ok {
		t.Fatal("clean run reported incorrect")
	}
	var got struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]jsonMetric
	}
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatal(err)
	}
	if !got.Correct || got.Attempted != 10 || got.Failed != 0 || len(got.Metrics) != 1 || got.Metrics["setup_s"].Unit != "s" {
		t.Errorf("summary %s", line)
	}
	res.fail("mismatch")
	line, ok = summaryLine([]*result{res}, true, true)
	if ok || !strings.Contains(line, `"hot-reads/config.hash_us"`) || !strings.Contains(line, `"failed":1`) {
		t.Errorf("failed traced summary %s", line)
	}
}

func TestBetween(t *testing.T) {
	a := time.Date(2026, 1, 2, 3, 4, 5, 6000, time.UTC)
	b := a.Add(1500 * time.Microsecond)
	ms, ok := between(a.Format(time.RFC3339Nano), b.Format(time.RFC3339Nano))
	if !ok || math.Abs(ms-1.5) > 1e-9 {
		t.Errorf("between = %v %v", ms, ok)
	}
	if _, ok := between("", b.Format(time.RFC3339Nano)); ok {
		t.Error("missing timestamp accepted")
	}
}

func TestMetricSetsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var doc struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	entries := func(ms []metric) []entry {
		out := make([]entry, len(ms))
		for i, m := range ms {
			out[i] = entry{m.name, m.unit}
		}
		return out
	}
	for _, name := range workloads {
		w, err := newWorkload(name, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		var ls *lookupSet
		if name == "hot-reads" {
			ls = &lookupSet{}
		}
		res := &result{w: w}
		summarize(res, &untraced{win: window{wall: time.Second}}, ls)
		if got := entries(res.endToEnd); !reflect.DeepEqual(got, doc.EndToEnd) {
			t.Errorf("%s end-to-end %v, BENCHMARK.json %v", name, got, doc.EndToEnd)
		}
		if got := entries(perLayerMetrics(&untraced{}, nil, 0, ls)); !reflect.DeepEqual(got, doc.PerLayer) {
			t.Errorf("%s per-layer %v, BENCHMARK.json %v", name, got, doc.PerLayer)
		}
	}
}
