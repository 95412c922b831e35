package mc

import (
	"encoding/json"
	"strings"
	"testing"

	"ahs/internal/sim"
	"ahs/internal/stats"
)

// mergeChunks estimates every spec and folds the states through a fresh
// merger, shipping each state through its JSON wire format on the way — the
// exact round trip a remote worker's result takes.
func mergeChunks(t *testing.T, job Job, specs []ChunkSpec) *Curve {
	t.Helper()
	m, err := NewMerger(job)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		state, err := EstimateChunk(job, spec)
		if err != nil {
			t.Fatalf("chunk %s: %v", spec, err)
		}
		b, err := json.Marshal(state)
		if err != nil {
			t.Fatalf("chunk %s marshal: %v", spec, err)
		}
		var wire ChunkState
		if err := json.Unmarshal(b, &wire); err != nil {
			t.Fatalf("chunk %s unmarshal: %v", spec, err)
		}
		if err := m.Add(&wire); err != nil {
			t.Fatalf("chunk %s add: %v", spec, err)
		}
	}
	if !m.Complete() {
		t.Fatalf("merge incomplete: %d of %d batches", m.Done(), m.Target())
	}
	curve, err := m.Curve()
	if err != nil {
		t.Fatal(err)
	}
	return curve
}

func curvesBitIdentical(t *testing.T, got, want *Curve) {
	t.Helper()
	if got.Batches != want.Batches {
		t.Fatalf("Batches = %d, want %d", got.Batches, want.Batches)
	}
	if got.Converged != want.Converged {
		t.Fatalf("Converged = %v, want %v", got.Converged, want.Converged)
	}
	for i := range want.Times {
		if got.Times[i] != want.Times[i] {
			t.Fatalf("Times[%d] = %v, want %v", i, got.Times[i], want.Times[i])
		}
		if got.Mean[i] != want.Mean[i] {
			t.Fatalf("Mean[%d] = %b, want %b (not bit-identical)", i, got.Mean[i], want.Mean[i])
		}
		if got.Intervals[i] != want.Intervals[i] {
			t.Fatalf("Intervals[%d] = %+v, want %+v", i, got.Intervals[i], want.Intervals[i])
		}
	}
}

func TestChunkMergeMatchesSingleProcess(t *testing.T) {
	const rate = 1.0
	m, alive := buildPureDeath(rate)
	job := Job{
		Model:      m,
		Sim:        sim.Options{MaxTime: 2},
		Times:      []float64{1, 2},
		Value:      deadIndicator(alive),
		Seed:       7,
		MaxBatches: 4000,
		CheckEvery: 500,
	}
	want, err := EstimateCurve(job)
	if err != nil {
		t.Fatal(err)
	}

	// Several split layouts: [0,k)+[k,N) for round-aligned k, a ragged
	// final chunk, single-chunk, and per-round chunks delivered in
	// reverse order.
	splits := [][]ChunkSpec{
		{{0, 500}, {500, 3500}},
		{{0, 2000}, {2000, 2000}},
		{{0, 3500}, {3500, 500}},
		{{0, 1000}, {1000, 1000}, {2000, 1000}, {3000, 1000}},
		{{0, 4000}},
		{{3500, 500}, {3000, 500}, {2500, 500}, {2000, 500}, {1500, 500}, {1000, 500}, {500, 500}, {0, 500}},
	}
	for _, specs := range splits {
		got := mergeChunks(t, job, specs)
		curvesBitIdentical(t, got, want)
	}
}

func TestChunkMergeMatchesSingleProcessWithImportanceSampling(t *testing.T) {
	const rate = 1e-4
	m, alive := buildPureDeath(rate)
	bias := sim.NewBias()
	if err := bias.SetByName(m, "die", 2000); err != nil {
		t.Fatal(err)
	}
	job := Job{
		Model:      m,
		Sim:        sim.Options{MaxTime: 1, Bias: bias},
		Times:      []float64{0.5, 1},
		Value:      deadIndicator(alive),
		Seed:       4,
		MaxBatches: 3000,
		CheckEvery: 600,
	}
	want, err := EstimateCurve(job)
	if err != nil {
		t.Fatal(err)
	}
	for _, specs := range [][]ChunkSpec{
		{{0, 600}, {600, 2400}},
		{{0, 1200}, {1200, 1800}},
		{{0, 1800}, {1800, 600}, {2400, 600}},
	} {
		got := mergeChunks(t, job, specs)
		curvesBitIdentical(t, got, want)
	}
}

func TestChunkMergeReproducesStopRuleDecision(t *testing.T) {
	const rate = 2.0 // common event: converges before the budget
	m, alive := buildPureDeath(rate)
	job := Job{
		Model:      m,
		Sim:        sim.Options{MaxTime: 2},
		Times:      []float64{2},
		Value:      deadIndicator(alive),
		Seed:       2,
		StopRule:   stats.RelativeStopRule{Confidence: 0.95, MaxRelHalfWidth: 0.1, MinSamples: 1000},
		MaxBatches: 100000,
		CheckEvery: 1000,
	}
	want, err := EstimateCurve(job)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Converged || want.Batches == job.MaxBatches {
		t.Fatalf("fixture must converge early, got %d/%d", want.Batches, job.MaxBatches)
	}

	// Chunk the full budget; the merger must stop folding at the same
	// boundary and discard the speculative tail.
	merger, err := NewMerger(job)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range job.Shard(2000) {
		state, err := EstimateChunk(job, spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := merger.Add(state); err != nil {
			t.Fatal(err)
		}
		if merger.Complete() {
			break
		}
	}
	got, err := merger.Curve()
	if err != nil {
		t.Fatal(err)
	}
	curvesBitIdentical(t, got, want)
}

func TestChunkWorkerCountDoesNotChangeState(t *testing.T) {
	const rate = 1.0
	m, alive := buildPureDeath(rate)
	base := Job{
		Model:      m,
		Sim:        sim.Options{MaxTime: 1},
		Times:      []float64{0.5, 1},
		Value:      deadIndicator(alive),
		Seed:       9,
		MaxBatches: 2000,
		CheckEvery: 500,
	}
	var want *ChunkState
	for _, workers := range []int{1, 2, 4} {
		job := base
		job.Workers = workers
		state, err := EstimateChunk(job, ChunkSpec{Start: 500, Count: 1500})
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = state
			continue
		}
		for ri := range want.Rounds {
			for pi := range want.Rounds[ri] {
				if state.Rounds[ri][pi] != want.Rounds[ri][pi] {
					t.Fatalf("workers=%d round %d point %d differs from workers=1", workers, ri, pi)
				}
			}
		}
	}
}

func TestShardAlignsChunksToRounds(t *testing.T) {
	job := Job{CheckEvery: 500, MaxBatches: 4200}
	cases := []struct {
		chunk uint64
		want  []ChunkSpec
	}{
		// 1200 rounds up to 1500 (next multiple of 500).
		{1200, []ChunkSpec{{0, 1500}, {1500, 1500}, {3000, 1200}}},
		{4200, []ChunkSpec{{0, 4200}}},
		{100000, []ChunkSpec{{0, 4200}}},
		// 0 means four rounds per chunk.
		{0, []ChunkSpec{{0, 2000}, {2000, 2000}, {4000, 200}}},
	}
	for _, tc := range cases {
		got := job.Shard(tc.chunk)
		if len(got) != len(tc.want) {
			t.Fatalf("Shard(%d) = %v, want %v", tc.chunk, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("Shard(%d) = %v, want %v", tc.chunk, got, tc.want)
			}
		}
	}
}

func TestMergerRejectsMalformedChunks(t *testing.T) {
	const rate = 1.0
	m, alive := buildPureDeath(rate)
	job := Job{
		Model:      m,
		Sim:        sim.Options{MaxTime: 1},
		Times:      []float64{1},
		Value:      deadIndicator(alive),
		Seed:       11,
		MaxBatches: 2000,
		CheckEvery: 500,
	}
	good, err := EstimateChunk(job, ChunkSpec{Start: 0, Count: 1000})
	if err != nil {
		t.Fatal(err)
	}

	newMerger := func() *Merger {
		mg, err := NewMerger(job)
		if err != nil {
			t.Fatal(err)
		}
		return mg
	}
	mutate := func(f func(*ChunkState)) *ChunkState {
		c := *good
		c.Rounds = make([][]stats.Welford, len(good.Rounds))
		for i := range good.Rounds {
			c.Rounds[i] = append([]stats.Welford(nil), good.Rounds[i]...)
		}
		f(&c)
		return &c
	}

	cases := map[string]struct {
		state *ChunkState
		want  string
	}{
		"nil state":        {nil, "nil chunk state"},
		"wrong round size": {mutate(func(c *ChunkState) { c.RoundSize = 250 }), "round size"},
		"misaligned start": {mutate(func(c *ChunkState) { c.Spec.Start = 250 }), "not aligned"},
		"past budget":      {mutate(func(c *ChunkState) { c.Spec.Start = 1500; c.Spec.Count = 1000 }), "exceeds batch budget"},
		"ragged non-final": {mutate(func(c *ChunkState) { c.Spec.Count = 750 }), "whole number of rounds"},
		"missing rounds":   {mutate(func(c *ChunkState) { c.Rounds = c.Rounds[:1] }), "carries 1 rounds"},
		"wrong grid width": {mutate(func(c *ChunkState) { c.Rounds[0] = c.Rounds[0][:0] }), "grid points"},
		"short round": {mutate(func(c *ChunkState) {
			var w stats.Welford
			w.Add(1)
			c.Rounds[1][0] = w
		}), "observations"},
	}
	for name, tc := range cases {
		err := newMerger().Add(tc.state)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Add() error = %v, want containing %q", name, err, tc.want)
		}
	}

	// Duplicate and overlapping chunks are rejected only once a valid
	// copy is in.
	mg := newMerger()
	if err := mg.Add(good); err != nil {
		t.Fatal(err)
	}
	if err := mg.Add(good); err == nil || !strings.Contains(err.Error(), "overlaps") {
		t.Errorf("duplicate chunk: Add() error = %v", err)
	}
	overlap := mutate(func(c *ChunkState) { c.Spec.Start = 500 })
	if err := mg.Add(overlap); err == nil || !strings.Contains(err.Error(), "overlaps") {
		t.Errorf("overlapping chunk: Add() error = %v", err)
	}

	// An incomplete merge refuses to produce a curve.
	if _, err := mg.Curve(); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Errorf("incomplete Curve() error = %v", err)
	}
}
