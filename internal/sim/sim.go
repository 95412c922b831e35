// Package sim executes Stochastic Activity Network trajectories.
//
// All timed activities in the paper's models are exponentially distributed
// (§4.1), so the executor uses race semantics with memoryless resampling:
// in each marking it computes the enabled activities' rates, samples the
// holding time from the total rate and picks the completing activity
// proportionally to its rate. This is stochastically identical to
// maintaining per-activity residual clocks for exponential activities, and
// it makes importance sampling exact: biasing an activity's rate by a
// constant factor yields a per-step likelihood ratio
//
//	(λ_k/λ'_k) · exp((Λ' − Λ)·τ)
//
// where λ_k is the completing activity's rate, Λ the total enabled rate,
// primes denote biased quantities and τ the sampled holding time. The
// executor accumulates the log likelihood ratio along the trajectory so
// rare-event measures (the paper's unsafety at λ = 1e-6/hr and below) can
// be estimated without the astronomically many batches naive simulation
// would need.
//
// The scan is incremental. The Runner caches every timed activity's rate
// and biased rate (0 while disabled) and keeps a san.AccessObserver on its
// marking for the whole run. The observer queues every place a completion
// or its instantaneous closure writes, and while the Runner evaluates an
// activity it adds that activity to the reader set of each place its
// predicate, rate and bias factor read. Before each draw the Runner moves
// the whole reader set of every written place into the set of activities to
// re-evaluate, empties it, and re-evaluates those activities in ascending
// index order: a reader set is consumed by the write it answers, and the
// re-evaluations refill it. Predicates, rates and factors are deterministic
// functions of the marking read through its accessors (see san.Predicate):
// an evaluation whose read places all hold their old values takes the same
// path and returns the same value, and a first read of a new place can only
// follow a change to a place already read, which triggers the evaluation
// that records it. An activity that stopped reading a place stays in its
// reader set until that place's next write, which costs it one evaluation
// more. Each run starts from the previous run's cache and queues the places
// where its start marking differs from that run's end. The cached rates are
// summed in activity-index order, which keeps every trajectory and
// likelihood ratio bit-identical to a full rescan of all activities in
// every marking — the dependency graph of Gibson & Bruck's next-reaction
// method, without its clocks.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"ahs/internal/rng"
	"ahs/internal/san"
	"ahs/internal/telemetry"
)

// ErrLivelock is returned when instantaneous activities keep firing without
// reaching a stable marking.
var ErrLivelock = errors.New("sim: instantaneous activity livelock")

// ErrStepLimit is returned when a trajectory exceeds Options.MaxSteps.
var ErrStepLimit = errors.New("sim: step limit exceeded")

// Observer receives trajectory events. Implementations must not modify the
// marking or retain it across calls.
type Observer interface {
	// OnEvent is called after each activity completion with the simulation
	// time, the completed activity's name and the resulting marking.
	OnEvent(t float64, activity string, mk *san.Marking)
}

// FactorFn returns a marking-dependent bias multiplier. It must return
// strictly positive finite values; returning 1 leaves the rate unchanged.
// Like a san.Predicate, it must be a deterministic function of the marking,
// read only through its accessor methods: the Runner re-evaluates it only
// when a place it has read changes.
type FactorFn func(mk *san.Marking) float64

// Bias specifies importance-sampling rate multipliers per timed activity,
// either constant or marking-dependent (adaptive forcing, e.g. "force
// failures only while fewer than two are active"). The zero value (or nil
// pointer) means no biasing. A Bias must not change while a Runner uses it.
//
// Marking-dependent factors are sound because the executor holds both the
// original and the biased rate of every activity up to date in every
// visited marking and accumulates the per-step likelihood ratio
// accordingly.
type Bias struct {
	factors []float64  // by timed activity index; 1 where unset
	fns     []FactorFn // by timed activity index; nil where unset
}

// NewBias returns an empty bias specification.
func NewBias() *Bias { return &Bias{} }

// grow extends the dense slices to cover activity index.
func (b *Bias) grow(index int) {
	for len(b.factors) <= index {
		b.factors = append(b.factors, 1)
		b.fns = append(b.fns, nil)
	}
}

// SetByName sets the multiplier for the named timed activity. It returns an
// error if the activity does not exist in the model or the factor is not
// strictly positive and finite.
func (b *Bias) SetByName(m *san.Model, name string, factor float64) error {
	idx := m.TimedIndex(name)
	if idx < 0 {
		return fmt.Errorf("sim: no timed activity %q", name)
	}
	return b.Set(idx, factor)
}

// Set sets the multiplier for the timed activity with the given index.
func (b *Bias) Set(index int, factor float64) error {
	if !(factor > 0) || math.IsInf(factor, 1) {
		return fmt.Errorf("sim: invalid bias factor %v", factor)
	}
	if index < 0 {
		return fmt.Errorf("sim: invalid activity index %d", index)
	}
	b.grow(index)
	b.factors[index] = factor
	b.fns[index] = nil
	return nil
}

// SetFn installs a marking-dependent multiplier for the timed activity with
// the given index, replacing any constant factor.
func (b *Bias) SetFn(index int, fn FactorFn) error {
	if fn == nil {
		return fmt.Errorf("sim: nil bias factor function")
	}
	if index < 0 {
		return fmt.Errorf("sim: invalid activity index %d", index)
	}
	b.grow(index)
	b.fns[index] = fn
	b.factors[index] = 1
	return nil
}

// FactorIn returns the multiplier for a timed activity in a marking.
func (b *Bias) FactorIn(index int, mk *san.Marking) (float64, error) {
	if b == nil || uint(index) >= uint(len(b.factors)) {
		return 1, nil
	}
	if fn := b.fns[index]; fn != nil {
		f := fn(mk)
		if !(f > 0) || math.IsInf(f, 1) {
			return 0, fmt.Errorf("sim: adaptive bias factor %v for activity %d", f, index)
		}
		return f, nil
	}
	return b.factors[index], nil
}

// IsNeutral reports whether the bias can be statically proven to change no
// rates (adaptive factors are conservatively treated as non-neutral).
func (b *Bias) IsNeutral() bool {
	if b == nil {
		return true
	}
	for i, f := range b.factors {
		if f != 1 || b.fns[i] != nil {
			return false
		}
	}
	return true
}

// Probe samples a marking-valued function at fixed time points along a
// trajectory. After Run, Values[i] holds the sampled value at Times[i] and
// Weights[i] the trajectory's likelihood ratio there (1 without biasing).
type Probe struct {
	// Times are the sampling instants; they must be sorted ascending and
	// non-negative.
	Times []float64
	// Value evaluates the measured quantity in a marking.
	Value func(mk *san.Marking) float64
	// Values and Weights are outputs, (re)allocated by Run.
	Values  []float64
	Weights []float64
}

// Options configures trajectory execution.
type Options struct {
	// MaxTime ends the trajectory (required, > 0).
	MaxTime float64
	// MaxSteps guards against runaway models; 0 means 50 million.
	MaxSteps uint64
	// MaxInstantFirings guards against instantaneous livelock per event
	// epoch; 0 means 100000.
	MaxInstantFirings int
	// Stop, when non-nil, ends the trajectory as soon as the predicate
	// holds (checked after initialisation and after every completion).
	// Probe times not yet reached are then filled with the value of the
	// stopped marking and the likelihood ratio frozen at the stopping
	// time; this is the standard unbiased first-passage estimator for
	// absorbing measures.
	Stop san.Predicate
	// Bias applies importance sampling to timed-activity rates.
	Bias *Bias
	// Observer, when non-nil, receives every completion event.
	Observer Observer
	// Sink, when non-nil, receives each timed activity's completion count
	// under telemetry.MetricActivityFirings once per trajectory, when the
	// trajectory ends (on error paths too). Unlike Observer it sees only
	// the activity name, which keeps the per-step cost to one increment and
	// the enabled path allocation-free.
	Sink telemetry.Sink
}

// Result summarises one executed trajectory.
type Result struct {
	// End is the time at which execution stopped (MaxTime, the stop
	// predicate instant, or the deadlock instant).
	End float64
	// Steps counts timed-activity completions.
	Steps uint64
	// InstantFirings counts instantaneous-activity completions.
	InstantFirings uint64
	// Stopped reports whether the stop predicate ended the run.
	Stopped bool
	// StopTime is the first-passage time (valid when Stopped).
	StopTime float64
	// StopWeight is the likelihood ratio at StopTime (1 without biasing).
	StopWeight float64
	// Deadlocked reports that no timed activity was enabled before MaxTime.
	Deadlocked bool
}

// instantEngine fires enabled instantaneous activities in priority order,
// shared by the race-semantics Runner and the event-queue GeneralRunner.
type instantEngine struct {
	model      *san.Model
	order      []int // instantaneous activity indices sorted by priority
	maxFirings int
	weights    []float64
}

func newInstantEngine(model *san.Model, maxFirings int) *instantEngine {
	e := &instantEngine{model: model, maxFirings: maxFirings}
	e.order = make([]int, model.NumInstant())
	for i := range e.order {
		e.order[i] = i
	}
	sort.SliceStable(e.order, func(a, b int) bool {
		return model.Instant(e.order[a]).Priority < model.Instant(e.order[b]).Priority
	})
	return e
}

// fireAll fires enabled instantaneous activities until none is enabled.
func (e *instantEngine) fireAll(mk *san.Marking, stream *rng.Stream, res *Result) error {
	firings := 0
	for {
		fired := false
		for _, idx := range e.order {
			act := e.model.Instant(idx)
			if !act.EnabledIn(mk) {
				continue
			}
			caseIdx, err := e.chooseCase(act.Name, act.Cases, mk, stream)
			if err != nil {
				return err
			}
			san.FireInstant(act, caseIdx, mk)
			res.InstantFirings++
			firings++
			if firings > e.maxFirings {
				return fmt.Errorf("%w after %d firings (last %q)", ErrLivelock, firings, act.Name)
			}
			fired = true
			break // restart the priority scan from the top
		}
		if !fired {
			return nil
		}
	}
}

func (e *instantEngine) chooseCase(activity string, cases []san.Case, mk *san.Marking, stream *rng.Stream) (int, error) {
	ws, err := san.CaseWeightsFor(activity, cases, mk, e.weights)
	if err != nil {
		return 0, err
	}
	e.weights = ws
	if len(ws) == 1 {
		return 0, nil
	}
	return stream.Choice(ws), nil
}

// Runner executes trajectories of one model. A Runner is not safe for
// concurrent use; create one per goroutine.
type Runner struct {
	model    *san.Model
	opts     Options
	instants *instantEngine

	marking *san.Marking
	initial *san.Marking

	// rates[i] and biased[i] are timed activity i's rate and biased rate
	// as of its latest evaluation, or 0 while it is disabled. cumRates[i]
	// and cumBiased[i] are their running sums over the activities below i,
	// valid up to index stale.
	rates, biased       []float64
	cumRates, cumBiased []float64
	stale               int
	// dirty is the bitset of activities to re-evaluate before the next
	// draw, over activity indices: refresh moves the reader set of every
	// written place into it, consuming that set.
	dirty []uint64
	track tracker
	// changedPlaces and changedExts are RunFrom's buffers for the places
	// where its start marking differs from the previous run's end.
	changedPlaces []san.PlaceID
	changedExts   []san.ExtPlaceID
	// firings counts each timed activity's completions in the current
	// trajectory; it is nil without Options.Sink.
	firings []uint64
	// next is RunFrom's index of each probe's next unfilled time.
	next []int
}

// tracker is the san.AccessObserver a Runner keeps attached to its marking
// during a run. It numbers places as slots, simple places first and then
// extended places from slot exts. Every write queues the written slot for
// the next refresh; a read adds the activity being evaluated to the slot's
// reader set.
type tracker struct {
	// readers holds one bitset of words uint64s per slot: the activities
	// evaluated since the slot was last written whose evaluation read it.
	// refresh empties a written slot's set into the dirty activities.
	readers []uint64
	words   int
	exts    int
	// word and bit locate the activity being evaluated; bit is 0 outside
	// evaluations, so other reads add nothing.
	word int
	bit  uint64
	// pending lists the slots written since the last refresh, each once;
	// queued marks them.
	pending []int32
	queued  []bool
}

func (t *tracker) ReadPlace(p san.PlaceID)        { t.read(int(p)) }
func (t *tracker) ReadExtPlace(p san.ExtPlaceID)  { t.read(t.exts + int(p)) }
func (t *tracker) WritePlace(p san.PlaceID)       { t.write(int(p)) }
func (t *tracker) WriteExtPlace(p san.ExtPlaceID) { t.write(t.exts + int(p)) }

func (t *tracker) read(s int) { t.readers[s*t.words+t.word] |= t.bit }

func (t *tracker) write(s int) {
	if !t.queued[s] {
		t.queued[s] = true
		t.pending = append(t.pending, int32(s))
	}
}

// NewRunner validates options and returns a Runner for the model.
func NewRunner(model *san.Model, opts Options) (*Runner, error) {
	if !(opts.MaxTime > 0) {
		return nil, fmt.Errorf("sim: MaxTime must be positive, got %v", opts.MaxTime)
	}
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 50_000_000
	}
	if opts.MaxInstantFirings == 0 {
		opts.MaxInstantFirings = 100_000
	}
	n := model.NumTimed()
	for i := 0; i < n; i++ {
		if act := model.Timed(i); !act.Exponential() {
			return nil, fmt.Errorf("sim: activity %q has a general delay distribution; use NewGeneralRunner", act.Name)
		}
	}
	r := &Runner{
		model:    model,
		opts:     opts,
		initial:  model.InitialMarking(),
		instants: newInstantEngine(model, opts.MaxInstantFirings),
	}
	r.marking = r.initial.Clone()
	f := make([]float64, 4*n+2) // one allocation for the four arrays
	take := func(k int) []float64 {
		s := f[:k:k]
		f = f[k:]
		return s
	}
	r.rates, r.biased = take(n), take(n)
	r.cumRates, r.cumBiased = take(n+1), take(n+1)
	words := (n + 63) / 64
	slots := model.NumPlaces() + model.NumExtPlaces()
	sets := make([]uint64, (slots+1)*words)
	r.dirty = sets[:words:words]
	r.track = tracker{
		readers: sets[words:],
		words:   words,
		exts:    model.NumPlaces(),
		pending: make([]int32, 0, slots),
		queued:  make([]bool, slots),
	}
	r.dirtyAll()
	if opts.Sink != nil {
		r.firings = make([]uint64, n)
	}
	return r, nil
}

// dirtyAll marks every activity for re-evaluation.
func (r *Runner) dirtyAll() {
	for i := range r.rates {
		r.dirty[i>>6] |= 1 << (i & 63)
	}
}

// refresh brings rates and biased up to date with the current marking and
// returns their sums in activity-index order: the original and biased
// total rates. It re-evaluates only the readers of the places written
// since, and re-accumulates the running sums only from the first activity
// whose rates changed: adding the same values in the same order gives the
// same sums.
func (r *Runner) refresh() (total, biasedTotal float64, err error) {
	t := &r.track
	for _, s := range t.pending {
		t.queued[s] = false
		r.takeReaders(int(s))
	}
	t.pending = t.pending[:0]
	if err := r.evalDirty(); err != nil {
		// The cache is part-updated; the next run evaluates afresh.
		r.dirtyAll()
		return 0, 0, err
	}
	n := len(r.rates)
	if i := r.stale; i < n {
		total, biasedTotal = r.cumRates[i], r.cumBiased[i]
		// Local slices of one length keep the loop free of bounds checks
		// and of reloads of the Runner's fields.
		rates := r.rates[i:]
		biased := r.biased[i:][:len(rates)]
		cumRates := r.cumRates[i+1:][:len(rates)]
		cumBiased := r.cumBiased[i+1:][:len(rates)]
		for j, rate := range rates {
			total += rate
			biasedTotal += biased[j]
			cumRates[j], cumBiased[j] = total, biasedTotal
		}
		r.stale = n
	}
	return r.cumRates[n], r.cumBiased[n], nil
}

// draw picks the completing activity under the biased measure exactly as
// rng.Stream.Choice(r.biased) would: with u = U·Λ', the first activity of
// positive biased rate whose running sum exceeds u. Choice's running sum
// skips zero rates, which changes no sum, so it equals cumBiased[i+1] at
// activity i, and the first i with u < cumBiased[i+1] can be found by
// bisection. That i never has a zero rate: its running sum would equal
// the one before.
func (r *Runner) draw(stream *rng.Stream, biasedTotal float64) int {
	if biasedTotal <= 0 {
		panic("sim: no positive biased rate to draw from")
	}
	u := stream.Float64() * biasedTotal
	lo, hi := 0, len(r.biased)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if u < r.cumBiased[mid+1] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo < len(r.biased) {
		return lo
	}
	// Floating-point slack, as in Choice: the last positive-rate activity.
	i := len(r.biased) - 1
	for r.biased[i] <= 0 {
		i--
	}
	return i
}

// takeReaders moves slot s's reader set into dirty and empties it: the
// activities that read s must be re-evaluated, and their evaluations record
// their reads afresh.
func (r *Runner) takeReaders(s int) {
	w := r.track.words
	set := r.track.readers[s*w : (s+1)*w]
	dirty := r.dirty[:len(set)]
	for i, x := range set {
		dirty[i] |= x
		set[i] = 0
	}
}

// evalDirty re-evaluates the dirty activities in ascending index order, so
// an invalid rate names the same activity a full scan would, and clears
// them. While activity i is evaluated, the tracker adds it to the reader
// set of every place it reads.
func (r *Runner) evalDirty() error {
	t := &r.track
	for w, word := range r.dirty {
		r.dirty[w] = 0
		t.word = w
		for ; word != 0; word &= word - 1 {
			t.bit = word & -word
			err := r.eval(w<<6 | bits.TrailingZeros64(word))
			if err != nil {
				t.bit = 0
				return err
			}
		}
	}
	t.bit = 0
	return nil
}

// eval evaluates timed activity i in the current marking.
func (r *Runner) eval(i int) error {
	act := r.model.Timed(i)
	var rate, biased float64
	if act.EnabledIn(r.marking) {
		var err error
		if rate, err = act.RateIn(r.marking); err != nil {
			return err
		}
		factor, err := r.opts.Bias.FactorIn(i, r.marking)
		if err != nil {
			return err
		}
		biased = rate * factor
	}
	if i < r.stale && (math.Float64bits(rate) != math.Float64bits(r.rates[i]) ||
		math.Float64bits(biased) != math.Float64bits(r.biased[i])) {
		r.stale = i
	}
	r.rates[i], r.biased[i] = rate, biased
	return nil
}

// Run executes one trajectory from the model's initial marking using the
// given random stream, filling the probes' Values/Weights.
func (r *Runner) Run(stream *rng.Stream, probes ...*Probe) (Result, error) {
	return r.RunFrom(nil, 0, stream, probes...)
}

// Marking returns the runner's current marking — the final state of the
// most recent Run/RunFrom. The returned marking aliases runner state; clone
// it before the next run if it must be retained (rare-event splitting uses
// this to capture level-entry states).
func (r *Runner) Marking() *san.Marking { return r.marking }

// RunFrom executes one trajectory starting from the given marking at time
// t0 (start == nil means the model's initial marking; t0 must be in
// [0, MaxTime)). Because every activity is exponential, restarting from a
// captured marking is distribution-exact. Probe times earlier than t0 are
// left at their defaults (value 0, weight 1).
func (r *Runner) RunFrom(start *san.Marking, t0 float64, stream *rng.Stream, probes ...*Probe) (Result, error) {
	var res Result
	if t0 < 0 || t0 >= r.opts.MaxTime {
		return res, fmt.Errorf("sim: start time %v outside [0, MaxTime)", t0)
	}
	for _, p := range probes {
		if err := p.reset(); err != nil {
			return res, err
		}
		if n := len(p.Times); n > 0 && p.Times[n-1] > r.opts.MaxTime {
			return res, fmt.Errorf("sim: probe time %v beyond MaxTime %v", p.Times[n-1], r.opts.MaxTime)
		}
	}
	if start == nil {
		start = r.initial
	}
	// The cache holds the previous run's evaluations: queue every place
	// where the start differs from where that run ended.
	r.changedPlaces, r.changedExts = r.marking.CopyChanged(start, r.changedPlaces[:0], r.changedExts[:0])
	for _, p := range r.changedPlaces {
		r.track.write(int(p))
	}
	for _, p := range r.changedExts {
		r.track.write(r.track.exts + int(p))
	}
	r.marking.SetObserver(&r.track)
	defer r.endRun()
	r.next = append(r.next[:0], make([]int, len(probes))...)
	next := r.next // next unfilled time index per probe

	t := t0
	logLR := 0.0

	if err := r.instants.fireAll(r.marking, stream, &res); err != nil {
		return res, err
	}
	if r.opts.Stop != nil && r.opts.Stop(r.marking) {
		r.finishStopped(&res, t, logLR, probes, next)
		return res, nil
	}

	for {
		total, biasedTotal, err := r.refresh()
		if err != nil {
			return res, err
		}
		// Rates are strictly positive while enabled, so a zero total
		// means no activity is.
		if total <= 0 {
			// Deadlock: the marking no longer changes; sample all
			// remaining probe points from it. With no enabled activities
			// the original and biased survival probabilities both equal
			// one, so the likelihood ratio stays frozen.
			r.fillProbes(probes, next, r.opts.MaxTime, true, t, logLR, 0, 0)
			res.End = t
			res.Deadlocked = true
			return res, nil
		}

		tau := stream.Exp(biasedTotal)
		tNext := t + tau

		if tNext >= r.opts.MaxTime {
			// No further completion before the horizon: every remaining
			// probe point sees the current marking, with the survival
			// correction applied up to its own instant.
			r.fillProbes(probes, next, r.opts.MaxTime, true, t, logLR, total, biasedTotal)
			res.End = r.opts.MaxTime
			return res, nil
		}

		// Record probe points passed strictly before the next completion.
		r.fillProbes(probes, next, tNext, false, t, logLR, total, biasedTotal)

		// Choose the completing activity under the biased measure. An
		// unbiased draw's log(λ_k/λ'_k) is exactly 0, so only the
		// survival term is added.
		k := r.draw(stream, biasedTotal)
		step := (biasedTotal - total) * tau
		if math.Float64bits(r.rates[k]) != math.Float64bits(r.biased[k]) {
			step += math.Log(r.rates[k] / r.biased[k])
		}
		logLR += step

		t = tNext
		act := r.model.Timed(k)
		caseIdx, err := r.instants.chooseCase(act.Name, act.Cases, r.marking, stream)
		if err != nil {
			return res, err
		}
		san.FireTimed(act, caseIdx, r.marking)
		res.Steps++
		if r.firings != nil {
			r.firings[k]++
		}
		if r.opts.Observer != nil {
			r.marking.SetObserver(nil)
			r.opts.Observer.OnEvent(t, act.Name, r.marking)
			r.marking.SetObserver(&r.track)
		}
		if err := r.instants.fireAll(r.marking, stream, &res); err != nil {
			return res, err
		}
		if r.opts.Stop != nil && r.opts.Stop(r.marking) {
			r.finishStopped(&res, t, logLR, probes, next)
			return res, nil
		}
		if res.Steps >= r.opts.MaxSteps {
			return res, fmt.Errorf("%w (%d steps at t=%v)", ErrStepLimit, res.Steps, t)
		}
	}
}

// endRun detaches the tracker, so the marking a caller sees carries no
// observer of the runner's, and hands the trajectory's firing counts to the
// sink.
func (r *Runner) endRun() {
	r.marking.SetObserver(nil)
	for k, n := range r.firings {
		if n != 0 {
			r.opts.Sink.Add(telemetry.MetricActivityFirings, r.model.Timed(k).Name, n) //ahsvet:ignore locklabel activity names are fixed at model build time
			r.firings[k] = 0
		}
	}
}

// fillProbes records every unsampled probe time in [t, horizon) — or
// [t, horizon] when inclusive — against the current marking. The weight at
// an intermediate time is the event-sequence LR times the survival
// correction exp((Λ'−Λ)·(tp−t)).
func (r *Runner) fillProbes(probes []*Probe, next []int, horizon float64, inclusive bool, t, logLR, total, biasedTotal float64) {
	for pi, p := range probes {
		for next[pi] < len(p.Times) {
			tp := p.Times[next[pi]]
			if tp > horizon || (tp == horizon && !inclusive) { //ahsvet:ignore floateq probe grid deliberately matches the horizon bit-for-bit
				break
			}
			if tp >= t {
				w := math.Exp(logLR + (biasedTotal-total)*(tp-t))
				p.Values[next[pi]] = p.Value(r.marking)
				p.Weights[next[pi]] = w
			}
			next[pi]++
		}
	}
}

// finishStopped handles stop-predicate termination: freeze the likelihood
// ratio at the stopping time and evaluate all outstanding probe points on
// the stopped marking.
func (r *Runner) finishStopped(res *Result, t, logLR float64, probes []*Probe, next []int) {
	w := math.Exp(logLR)
	res.Stopped = true
	res.StopTime = t
	res.StopWeight = w
	res.End = t
	for pi, p := range probes {
		v := p.Value(r.marking)
		for ; next[pi] < len(p.Times); next[pi]++ {
			p.Values[next[pi]] = v
			p.Weights[next[pi]] = w
		}
	}
}

func (p *Probe) reset() error {
	if p.Value == nil {
		return errors.New("sim: probe without Value function")
	}
	for i := 1; i < len(p.Times); i++ {
		if p.Times[i] < p.Times[i-1] {
			return fmt.Errorf("sim: probe times not sorted at index %d", i)
		}
	}
	if len(p.Times) > 0 && p.Times[0] < 0 {
		return errors.New("sim: negative probe time")
	}
	if cap(p.Values) < len(p.Times) {
		p.Values = make([]float64, len(p.Times))
		p.Weights = make([]float64, len(p.Times))
	} else {
		p.Values = p.Values[:len(p.Times)]
		p.Weights = p.Weights[:len(p.Times)]
	}
	for i := range p.Values {
		p.Values[i] = 0
		p.Weights[i] = 1
	}
	return nil
}

// TraceEvent is one entry of a recorded trajectory.
type TraceEvent struct {
	Time     float64
	Activity string
}

// Trace is an Observer that records every completion event.
type Trace struct {
	Events []TraceEvent
}

var _ Observer = (*Trace)(nil)

// OnEvent implements Observer.
func (tr *Trace) OnEvent(t float64, activity string, _ *san.Marking) {
	tr.Events = append(tr.Events, TraceEvent{Time: t, Activity: activity})
}

// Reset clears recorded events, retaining capacity.
func (tr *Trace) Reset() { tr.Events = tr.Events[:0] }
