package mc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"

	"ahs/internal/san"
	"ahs/internal/stats"
)

// ChunkSpec selects the contiguous stripe of batches
// [Start, Start+Count) of a job's deterministic batch sequence. Because
// batch i always uses random stream i of the job seed, a chunk is fully
// determined by the job and the spec — whichever machine simulates it.
type ChunkSpec struct {
	Start uint64 `json:"start"`
	Count uint64 `json:"count"`
}

// End returns the first batch index past the chunk.
func (s ChunkSpec) End() uint64 { return s.Start + s.Count }

// String renders the spec as the half-open interval it covers.
func (s ChunkSpec) String() string { return fmt.Sprintf("[%d,%d)", s.Start, s.End()) }

// ChunkState is the sufficient statistic of one simulated chunk: the
// per-grid-point Welford accumulators of every accumulation round the chunk
// covers, in ascending round order, plus the catastrophic-cause counts of
// its stopped trajectories. States serialize to JSON losslessly (see
// stats.Welford's wire format), so a remote worker can ship one back to a
// coordinator whose Merger reconstructs the exact single-process curve.
//
// Each round is measure-major: len(Times) accumulators for the job's
// Value, then len(Times) for each extra measure EstimateCurveMulti adds, in
// name order. A state without extras is exactly one accumulator per grid
// point per round, the form that travels on the wire and in the journal.
type ChunkState struct {
	Spec      ChunkSpec         `json:"spec"`
	RoundSize uint64            `json:"roundSize"`
	Rounds    [][]stats.Welford `json:"rounds"`
	Causes    map[string]uint64 `json:"causes,omitempty"`
}

// RoundSize returns the job's canonical accumulation round size
// (CheckEvery with the default applied). Chunks of one logical job must all
// be estimated with this round size for their merge to be bit-identical to
// the single-process run.
func (j *Job) RoundSize() uint64 {
	if j.CheckEvery == 0 {
		return 2000
	}
	return j.CheckEvery
}

// maxBatches returns the job's effective batch budget.
func (j *Job) maxBatches() uint64 {
	if j.MaxBatches == 0 {
		return 1_000_000
	}
	return j.MaxBatches
}

// Shard splits the job's batch budget [0, MaxBatches) into contiguous
// chunks of at most chunkBatches batches each, rounded up to a whole number
// of accumulation rounds so every chunk starts on a round boundary (the
// alignment EstimateChunk and Merger require). chunkBatches 0 means four
// rounds per chunk. The final chunk absorbs the remainder.
func (j *Job) Shard(chunkBatches uint64) []ChunkSpec {
	r := j.RoundSize()
	total := j.maxBatches()
	if chunkBatches == 0 {
		chunkBatches = 4 * r
	}
	if rem := chunkBatches % r; rem != 0 {
		chunkBatches += r - rem
	}
	specs := make([]ChunkSpec, 0, (total+chunkBatches-1)/chunkBatches)
	for start := uint64(0); start < total; start += chunkBatches {
		n := chunkBatches
		if rem := total - start; n > rem {
			n = rem
		}
		specs = append(specs, ChunkSpec{Start: start, Count: n})
	}
	return specs
}

// Chunker simulates chunks of one job on a runner pool it builds once, so
// estimating many chunks of a job pays the runner set-up once. It is not
// safe for concurrent use.
type Chunker struct {
	job  Job
	ctx  context.Context
	pool *runnerPool
}

// NewChunker validates the job, applies its defaults (GOMAXPROCS workers,
// Telemetry as Sim.Sink, a background context) and builds the runner pool
// that Estimate reuses.
func NewChunker(job Job) (*Chunker, error) { return newChunker(job, nil) }

// newChunker is NewChunker with extra measures probed after Value (see
// ChunkState.Rounds).
func newChunker(job Job, extras []func(mk *san.Marking) float64) (*Chunker, error) {
	if err := job.validate(); err != nil {
		return nil, err
	}
	if job.Workers <= 0 {
		job.Workers = runtime.GOMAXPROCS(0)
	}
	if job.Telemetry != nil && job.Sim.Sink == nil {
		job.Sim.Sink = job.Telemetry
	}
	c := &Chunker{job: job, ctx: job.Context}
	if c.ctx == nil {
		c.ctx = context.Background()
	}
	pool, err := newRunnerPool(&c.job, extras)
	if err != nil {
		return nil, err
	}
	c.pool = pool
	return c, nil
}

// Estimate simulates exactly the batches [spec.Start, spec.End()) of the
// job and returns their sufficient statistics. The job's StopRule and
// MaxBatches are ignored — convergence is the merger's decision — while
// CheckEvery fixes the accumulation round size, which must match across
// every chunk of one logical job for the merged curve to be bit-identical.
// spec.Start must lie on a round boundary for the same reason. Workers
// parallelises within the chunk, Context cancels it, and Cause (when set)
// is folded into the returned state's cause counters.
func (c *Chunker) Estimate(spec ChunkSpec) (*ChunkState, error) {
	if spec.Count == 0 {
		return nil, errors.New("mc: empty chunk")
	}
	roundSize := c.job.RoundSize()
	if spec.Start%roundSize != 0 {
		return nil, fmt.Errorf("mc: chunk start %d not aligned to round size %d", spec.Start, roundSize)
	}
	state := &ChunkState{
		Spec:      spec,
		RoundSize: roundSize,
		Rounds:    make([][]stats.Welford, 0, (spec.Count+roundSize-1)/roundSize),
	}
	for off := uint64(0); off < spec.Count; off += roundSize {
		n := min(roundSize, spec.Count-off)
		if err := c.pool.runRound(c.ctx, spec.Start+off, n); err != nil {
			c.pool.takeCauses() // a failed chunk's counts must not leak into the next
			return nil, err
		}
		state.Rounds = append(state.Rounds, c.pool.foldRound(n))
	}
	state.Causes = c.pool.takeCauses()
	return state, nil
}

// EstimateChunk simulates one chunk of the job, the unit a cluster worker
// leases: Chunker.Estimate on a Chunker built for this call alone.
func EstimateChunk(job Job, spec ChunkSpec) (*ChunkState, error) {
	c, err := NewChunker(job)
	if err != nil {
		return nil, err
	}
	return c.Estimate(spec)
}

// Merger folds chunk states into the job's curve. It is the only fold: the
// in-process estimator and the cluster coordinator both feed it. Chunks may
// be added in any order; rounds are folded in ascending batch order as the
// contiguous prefix extends, and — when the job has a stop rule —
// convergence is evaluated at every round boundary, so the merged curve
// (mean, intervals, batch count and convergence flag) depends only on the
// job, never on the chunk layout or arrival order. Chunks past the
// convergence boundary are discarded.
//
// Merger is not safe for concurrent use; callers serialize Add.
type Merger struct {
	times     []float64
	roundSize uint64
	target    uint64
	rule      stats.RelativeStopRule
	hasRule   bool

	// accs is one round row: measure-major accumulators (see
	// ChunkState.Rounds), measure 0 being the job's Value.
	accs      []stats.Welford
	pending   map[uint64]*ChunkState // keyed by chunk start, not yet folded
	next      uint64                 // batches folded so far (contiguous prefix)
	converged bool
	causes    map[string]uint64
}

// NewMerger prepares a merger for the given job; the job must be the one
// the chunks were (or will be) estimated from.
func NewMerger(job Job) (*Merger, error) {
	if err := job.validate(); err != nil {
		return nil, err
	}
	return newMerger(job, 1), nil
}

// newMerger is NewMerger for a validated job whose chunks carry measures
// measures per grid point.
func newMerger(job Job, measures int) *Merger {
	return &Merger{
		times:     append([]float64(nil), job.Times...),
		roundSize: job.RoundSize(),
		target:    job.maxBatches(),
		rule:      job.StopRule,
		hasRule:   job.StopRule != (stats.RelativeStopRule{}),
		accs:      make([]stats.Welford, measures*len(job.Times)),
		pending:   make(map[uint64]*ChunkState),
		causes:    make(map[string]uint64),
	}
}

// Add folds one chunk state. It validates the state's shape against the
// job — round size, alignment, row width, per-round batch counts — and
// rejects duplicate or overlapping chunks, so a buggy or malicious worker
// cannot double-count a stripe. Adding after convergence is a no-op: the
// chunk is speculative work past the stopping boundary.
func (m *Merger) Add(state *ChunkState) error {
	if state == nil {
		return errors.New("mc: nil chunk state")
	}
	if m.converged {
		return nil
	}
	sp := state.Spec
	if state.RoundSize != m.roundSize {
		return fmt.Errorf("mc: chunk %s round size %d, merger expects %d", sp, state.RoundSize, m.roundSize)
	}
	if sp.Count == 0 {
		return fmt.Errorf("mc: empty chunk %s", sp)
	}
	if sp.Start%m.roundSize != 0 {
		return fmt.Errorf("mc: chunk start %d not aligned to round size %d", sp.Start, m.roundSize)
	}
	if sp.End() > m.target {
		return fmt.Errorf("mc: chunk %s exceeds batch budget %d", sp, m.target)
	}
	if sp.End() != m.target && sp.Count%m.roundSize != 0 {
		return fmt.Errorf("mc: non-final chunk %s is not a whole number of rounds of %d", sp, m.roundSize)
	}
	// Before convergence the folded chunks tile [0, next) exactly, so a
	// chunk overlaps an added one iff it starts inside the prefix or
	// overlaps a pending chunk.
	if sp.Start < m.next {
		return fmt.Errorf("mc: chunk %s overlaps the folded prefix [0,%d)", sp, m.next)
	}
	for _, p := range m.pending {
		if sp.Start < p.Spec.End() && p.Spec.Start < sp.End() {
			return fmt.Errorf("mc: chunk %s overlaps already-added chunk %s", sp, p.Spec)
		}
	}
	wantRounds := int((sp.Count + m.roundSize - 1) / m.roundSize)
	if len(state.Rounds) != wantRounds {
		return fmt.Errorf("mc: chunk %s carries %d rounds, want %d", sp, len(state.Rounds), wantRounds)
	}
	for ri, round := range state.Rounds {
		if len(round) != len(m.accs) {
			return fmt.Errorf("mc: chunk %s round %d has %d grid points, want %d", sp, ri, len(round), len(m.accs))
		}
		n := min(m.roundSize, sp.Count-uint64(ri)*m.roundSize)
		for pi := range round {
			if round[pi].N() != n {
				return fmt.Errorf("mc: chunk %s round %d point %d holds %d observations, want %d", sp, ri, pi, round[pi].N(), n)
			}
		}
	}

	m.pending[sp.Start] = state
	m.fold()
	return nil
}

// fold advances the contiguous prefix over any pending chunks, checking the
// stop rule on the main measure's last grid point at every round boundary.
func (m *Merger) fold() {
	for !m.converged {
		state, ok := m.pending[m.next]
		if !ok {
			return
		}
		delete(m.pending, m.next)
		for k, v := range state.Causes {
			m.causes[k] += v
		}
		for _, round := range state.Rounds {
			for i := range m.accs {
				m.accs[i].Merge(&round[i])
			}
			m.next += min(m.roundSize, state.Spec.End()-m.next)
			if m.hasRule && m.rule.Satisfied(&m.accs[len(m.times)-1]) {
				m.converged = true
				break
			}
		}
	}
}

// Added returns the batch ranges the merger holds, in ascending order: the
// folded prefix as one range, then every chunk still pending (added but not
// yet contiguous with the prefix). Restores use it to compute which
// batches still need simulating.
func (m *Merger) Added() []ChunkSpec {
	var specs []ChunkSpec
	if m.next > 0 {
		specs = append(specs, ChunkSpec{Count: m.next})
	}
	for _, p := range m.pending {
		specs = append(specs, p.Spec)
	}
	sort.Slice(specs, func(a, b int) bool { return specs[a].Start < specs[b].Start })
	return specs
}

// Done returns the number of batches folded into the contiguous prefix.
func (m *Merger) Done() uint64 { return m.next }

// Target returns the job's batch budget.
func (m *Merger) Target() uint64 { return m.target }

// Complete reports whether the merge can produce the final curve: either
// the whole budget folded, or the stop rule ended the job early.
func (m *Merger) Complete() bool { return m.converged || m.next == m.target }

// Causes returns the merged catastrophic-cause counts of the folded chunks.
// The map is live; callers must not mutate it while adding chunks.
func (m *Merger) Causes() map[string]uint64 { return m.causes }

// Curve builds the final curve. It fails unless the merge is complete.
func (m *Merger) Curve() (*Curve, error) {
	if !m.Complete() {
		return nil, fmt.Errorf("mc: merge incomplete: %d of %d batches folded", m.next, m.target)
	}
	return m.curve(0), nil
}

// curve renders measure mi (0 is the job's Value) from the folded prefix:
// the final curve once the merge is complete, a partial one before. It is
// converged once the run is: the rule met, or — without a rule — the whole
// budget folded.
func (m *Merger) curve(mi int) *Curve {
	conf := m.rule.Confidence
	if conf == 0 {
		conf = 0.95
	}
	points := len(m.times)
	accs := m.accs[mi*points : (mi+1)*points]
	curve := &Curve{
		Times:     append([]float64(nil), m.times...),
		Mean:      make([]float64, points),
		Intervals: make([]stats.Interval, points),
		Batches:   m.next,
		Converged: m.converged || (!m.hasRule && m.next == m.target),
	}
	for i := range accs {
		curve.Mean[i] = accs[i].Mean()
		curve.Intervals[i] = accs[i].CI(conf)
	}
	return curve
}
