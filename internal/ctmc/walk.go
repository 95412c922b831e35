package ctmc

import (
	"errors"
	"fmt"
	"strconv"

	"ahs/internal/san"
)

// MaxInstantDepth bounds the instantaneous closure: more zero-time firings
// in a row than this are a livelock fault.
const MaxInstantDepth = 1000

// ErrLivelock is wrapped by the fault of an instantaneous closure deeper
// than MaxInstantDepth.
var ErrLivelock = errors.New("ctmc: instantaneous livelock")

// Phase names the kind of model function a walk step runs.
type Phase uint8

// The model functions of an activity, in the order the walk runs them.
const (
	PhaseEnabled Phase = iota
	PhaseRate
	PhaseWeights
	PhaseEffect
)

// String names the function as in "effect of".
func (p Phase) String() string {
	return [...]string{"enabling predicate of", "rate function of", "case weights of", "effect of"}[p]
}

// Activity identifies one activity of the walked model.
type Activity struct {
	Name string
	// Instant marks an instantaneous activity: Index then counts among the
	// model's instantaneous activities, otherwise among its timed ones.
	Instant bool
	Index   int
}

// Step is one call of a model function.
type Step struct {
	Activity
	Phase Phase
}

// Fault is a defect the walk met: a model function that panicked, an
// invalid rate or case weights, an instantaneous closure deeper than
// MaxInstantDepth (ErrLivelock) or a new state beyond MaxStates
// (ErrStateSpaceTooLarge). The walk raises the last two itself and leaves
// Step zero for them.
type Fault struct {
	Step Step
	// Marking is the witness: the marking the function ran on (for an
	// effect, the successor it was changing), the marking whose closure
	// went too deep, or the state that did not fit.
	Marking *san.Marking
	// Panic is the value a model function panicked with.
	Panic interface{}
	// Err describes every other fault.
	Err error
}

func (f *Fault) Error() string {
	if f.Panic != nil {
		return fmt.Sprintf("ctmc: %s %q panicked: %v", f.Step.Phase, f.Step.Name, f.Panic)
	}
	return f.Err.Error()
}

func (f *Fault) Unwrap() error { return f.Err }

// Hooks receive what a walk's caller records. Any hook may be nil. The
// markings handed to them carry no access observer; hooks must not modify
// them.
type Hooks struct {
	// Observer returns the access observer to attach while step runs.
	Observer func(step Step) san.AccessObserver
	// Fault decides a fault. An error ends the walk with it. Nil goes on
	// without what faulted: a faulting predicate counts as disabled, a
	// faulting rate as 0, faulting weights fire every case, a faulting
	// effect skips its case, a livelock drops its closure branch and a
	// state beyond MaxStates is not kept (Reachable.Truncated). Without
	// this hook every fault ends the walk.
	Fault func(f *Fault) error
	// Chosen reports an activity about to fire: its rate (0 for
	// instantaneous and non-exponential activities) and case weights (nil
	// when they faulted).
	Chosen func(a Activity, rate float64, weights []float64)
	// Conflict reports an instantaneous activity enabled in mk with the
	// same priority as the one chosen to fire there by registration order.
	Conflict func(mk *san.Marking, chosen, other Activity)
	// Fired reports that case c of a fired in before and left after.
	Fired func(a Activity, c int, before, after *san.Marking)
	// State reports a new stable state and its index: states are numbered
	// in breadth-first order from 0.
	State func(idx int, mk *san.Marking)
	// Arc reports a rate from one kept stable state to another: the timed
	// activity's rate times the probability of its case and of the
	// closure branch. Parallel arcs are reported separately.
	Arc func(from, to int, rate float64)
}

// Reachable is what a walk found.
type Reachable struct {
	// States counts the kept stable states; the first Initial of them are
	// what the initial marking stabilised into.
	States, Initial int
	// Truncated reports that a new state was dropped at MaxStates.
	Truncated bool
	// TimedEnabled and InstantEnabled report, per activity, whether it was
	// enabled in some marking the walk expanded.
	TimedEnabled, InstantEnabled []bool
}

// Walk explores the stable markings reachable from the model's initial
// marking breadth first, a stable marking being one that enables no
// instantaneous activity. Between two stable markings it resolves the
// instantaneous closure: the enabled instantaneous activity of lowest
// Priority fires (registration order breaks ties, as in the simulators),
// every case of positive weight branches with its probability, and
// branches that end in the same stable marking merge. States satisfying
// opts.Absorb are kept but not expanded. Model functions run with the
// Observer hook's observer attached and under a panic guard.
func Walk(model *san.Model, opts ExploreOptions, h Hooks) (*Reachable, error) {
	if opts.MaxStates == 0 {
		opts.MaxStates = 200_000
	}
	w := &walker{
		model: model,
		opts:  opts,
		h:     h,
		timed: make([]Activity, model.NumTimed()),
		inst:  make([]Activity, model.NumInstant()),
		index: make(map[string]int),
		r: &Reachable{
			TimedEnabled:   make([]bool, model.NumTimed()),
			InstantEnabled: make([]bool, model.NumInstant()),
		},
	}
	for i := range w.timed {
		w.timed[i] = Activity{Name: model.Timed(i).Name, Index: i}
	}
	for i := range w.inst {
		w.inst[i] = Activity{Name: model.Instant(i).Name, Instant: true, Index: i}
	}
	init, err := w.stabilize(model.InitialMarking())
	if err != nil {
		return nil, err
	}
	w.r.Initial = len(init)
	for _, st := range init {
		if _, err := w.intern(st.mk); err != nil {
			return nil, err
		}
	}
	for s := 0; len(w.queue) > 0; s++ {
		mk := w.queue[0]
		w.queue = w.queue[1:]
		if err := w.expand(s, mk); err != nil {
			return nil, err
		}
	}
	return w.r, nil
}

type walker struct {
	model       *san.Model
	opts        ExploreOptions
	h           Hooks
	timed, inst []Activity
	index       map[string]int
	queue       []*san.Marking // kept states not yet expanded, in order
	r           *Reachable
}

// weighted is a stable marking reached with some probability.
type weighted struct {
	mk   *san.Marking
	prob float64
}

// unitCase is the weight vector of an activity without cases.
var unitCase = []float64{1}

// expand fires every enabled timed activity of state s, marking mk.
func (w *walker) expand(s int, mk *san.Marking) error {
	if w.opts.Absorb != nil && w.opts.Absorb(mk) {
		return nil
	}
	for i, a := range w.timed {
		act := w.model.Timed(i)
		on, err := w.enabled(a, act.Enabled, mk)
		if err != nil {
			return err
		}
		if !on {
			continue
		}
		w.r.TimedEnabled[i] = true
		rate := 0.0
		if act.Exponential() {
			if rate, err = w.rate(a, act, mk); err != nil {
				return err
			}
		}
		fire := func(c int, m *san.Marking) { san.FireTimed(act, c, m) }
		err = w.branch(a, rate, act.Cases, fire, mk, func(succ *san.Marking, p float64) error {
			stable, err := w.stabilize(succ)
			if err != nil {
				return err
			}
			for _, st := range stable {
				to, err := w.intern(st.mk)
				if err != nil {
					return err
				}
				if to >= 0 && w.h.Arc != nil {
					w.h.Arc(s, to, rate*p*st.prob)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// branch evaluates the case weights of activity a in mk, reports the
// choice, and fires every case of positive weight on its own copy of mk,
// handing each successor and its case probability to next.
func (w *walker) branch(a Activity, rate float64, cases []san.Case, fire func(c int, m *san.Marking), mk *san.Marking, next func(succ *san.Marking, p float64) error) error {
	ws, err := w.weights(a, cases, mk)
	if err != nil {
		return err
	}
	if w.h.Chosen != nil {
		w.h.Chosen(a, rate, ws)
	}
	if ws == nil {
		ws = make([]float64, len(cases))
		for c := range ws {
			ws[c] = 1
		}
	}
	total := 0.0
	for _, wt := range ws {
		total += wt
	}
	for c, wt := range ws {
		if wt == 0 {
			continue
		}
		succ := mk.Clone()
		if f := w.call(Step{a, PhaseEffect}, succ, func() { fire(c, succ) }); f != nil {
			if err := w.fault(f); err != nil {
				return err
			}
			continue
		}
		if w.h.Fired != nil {
			w.h.Fired(a, c, mk, succ)
		}
		if err := next(succ, wt/total); err != nil {
			return err
		}
	}
	return nil
}

// stabilize resolves the instantaneous closure of mk into a distribution
// over stable markings, duplicates merged in order of first appearance.
func (w *walker) stabilize(mk *san.Marking) ([]weighted, error) {
	var out []weighted
	if err := w.close(mk, 1, 0, &out); err != nil {
		return nil, err
	}
	merged := out[:0]
	for _, wm := range out {
		found := false
		for i := range merged {
			if merged[i].mk.Equal(wm.mk) {
				merged[i].prob += wm.prob
				found = true
				break
			}
		}
		if !found {
			merged = append(merged, wm)
		}
	}
	return merged, nil
}

// close follows the zero-time firings from mk, reached with probability
// prob after depth of them, and appends the stable markings to out.
func (w *walker) close(mk *san.Marking, prob float64, depth int, out *[]weighted) error {
	if depth > MaxInstantDepth {
		return w.fault(&Fault{Marking: mk, Err: fmt.Errorf("%w: more than %d zero-time firings in a row", ErrLivelock, MaxInstantDepth)})
	}
	best := -1
	var tied []int
	for i, a := range w.inst {
		on, err := w.enabled(a, w.model.Instant(i).Enabled, mk)
		if err != nil {
			return err
		}
		if !on {
			continue
		}
		w.r.InstantEnabled[i] = true
		switch prio := w.model.Instant(i).Priority; {
		case best < 0 || prio < w.model.Instant(best).Priority:
			best, tied = i, tied[:0]
		case prio == w.model.Instant(best).Priority:
			tied = append(tied, i)
		}
	}
	if best < 0 {
		*out = append(*out, weighted{mk: mk, prob: prob})
		return nil
	}
	if w.h.Conflict != nil {
		for _, i := range tied {
			w.h.Conflict(mk, w.inst[best], w.inst[i])
		}
	}
	act := w.model.Instant(best)
	fire := func(c int, m *san.Marking) { san.FireInstant(act, c, m) }
	return w.branch(w.inst[best], 0, act.Cases, fire, mk, func(succ *san.Marking, p float64) error {
		return w.close(succ, prob*p, depth+1, out)
	})
}

// intern returns the index of a stable marking, keeping it when new. A
// new marking beyond MaxStates is a fault; when the fault is forgiven the
// index is -1.
func (w *walker) intern(mk *san.Marking) (int, error) {
	key := markingKey(mk)
	if idx, ok := w.index[key]; ok {
		return idx, nil
	}
	if w.r.States >= w.opts.MaxStates {
		w.r.Truncated = true
		return -1, w.fault(&Fault{Marking: mk, Err: fmt.Errorf("%w (%d)", ErrStateSpaceTooLarge, w.opts.MaxStates)})
	}
	idx := w.r.States
	w.r.States++
	w.index[key] = idx
	w.queue = append(w.queue, mk)
	if w.h.State != nil {
		w.h.State(idx, mk)
	}
	return idx, nil
}

// fault hands f to the Fault hook; nil means go on without what faulted.
func (w *walker) fault(f *Fault) error {
	if w.h.Fault == nil {
		return f
	}
	return w.h.Fault(f)
}

// call runs fn, a model function of step, on mk with the caller's observer
// attached, and turns a panic into a fault.
func (w *walker) call(step Step, mk *san.Marking, fn func()) (f *Fault) {
	if w.h.Observer != nil {
		mk.SetObserver(w.h.Observer(step))
	}
	defer func() {
		mk.SetObserver(nil)
		if r := recover(); r != nil {
			f = &Fault{Step: step, Marking: mk, Panic: r}
		}
	}()
	fn()
	return nil
}

func (w *walker) enabled(a Activity, pred san.Predicate, mk *san.Marking) (on bool, err error) {
	if pred == nil {
		return true, nil
	}
	if f := w.call(Step{a, PhaseEnabled}, mk, func() { on = pred(mk) }); f != nil {
		return false, w.fault(f)
	}
	return on, nil
}

func (w *walker) rate(a Activity, act *san.TimedActivity, mk *san.Marking) (r float64, err error) {
	step := Step{a, PhaseRate}
	if f := w.call(step, mk, func() { r, err = act.RateIn(mk) }); f != nil {
		return 0, w.fault(f)
	}
	if err != nil {
		return 0, w.fault(&Fault{Step: step, Marking: mk, Err: err})
	}
	return r, nil
}

// weights returns the case weights of a in mk, or nil when they faulted
// and the fault was forgiven.
func (w *walker) weights(a Activity, cases []san.Case, mk *san.Marking) (ws []float64, err error) {
	if len(cases) == 0 {
		return unitCase, nil
	}
	step := Step{a, PhaseWeights}
	if f := w.call(step, mk, func() { ws, err = san.CaseWeightsFor(a.Name, cases, mk, nil) }); f != nil {
		return nil, w.fault(f)
	}
	if err != nil {
		return nil, w.fault(&Fault{Step: step, Marking: mk, Err: err})
	}
	return ws, nil
}

// markingKey serialises a marking into its interning key.
func markingKey(mk *san.Marking) string {
	buf := make([]byte, 0, 64)
	model := mk.Model()
	for p := 0; p < model.NumPlaces(); p++ {
		buf = strconv.AppendInt(buf, int64(mk.Tokens(san.PlaceID(p))), 10)
		buf = append(buf, ',')
	}
	for p := 0; p < model.NumExtPlaces(); p++ {
		buf = append(buf, '[')
		for _, v := range mk.Ext(san.ExtPlaceID(p)) {
			buf = strconv.AppendInt(buf, int64(v), 10)
			buf = append(buf, ',')
		}
		buf = append(buf, ']')
	}
	return string(buf)
}
