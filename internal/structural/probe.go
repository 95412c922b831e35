package structural

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"ahs/internal/ctmc"
	"ahs/internal/san"
)

// writeSet collects every place an effect (or any other model function)
// writes during the walk.
type writeSet struct{ p, e []bool }

// scope is the san.AccessObserver attached while a model function runs.
// Writes go to the shared write set; reads go to the scope's read sets,
// which only the scope of an enabling predicate has (effect and rate reads
// are irrelevant to gate constancy).
type scope struct {
	writes       *writeSet
	readP, readE []bool
	// evaluated records that the predicate ran at least once.
	evaluated bool
}

func (s *scope) ReadPlace(p san.PlaceID) {
	if s.readP != nil {
		s.readP[p] = true
	}
}

func (s *scope) ReadExtPlace(p san.ExtPlaceID) {
	if s.readE != nil {
		s.readE[p] = true
	}
}

func (s *scope) WritePlace(p san.PlaceID)       { s.writes.p[p] = true }
func (s *scope) WriteExtPlace(p san.ExtPlaceID) { s.writes.e[p] = true }

// column is one observed incidence column: the marking delta (over the
// simple places followed by the ext-place length pseudo-places) of one
// (activity, case) firing. An activity case observed with several distinct
// deltas yields several columns, numbered by variant in discovery order.
type column struct {
	activity string
	caseIdx  int
	variant  int
	delta    []int
}

// rateRange tracks the observed rate extremes of one exponential activity.
type rateRange struct{ min, max float64 }

// prober records what structural analysis needs from the reachability
// walk: per-predicate read sets and the global write set, the incidence
// columns of every firing and the rate range of every exponential activity.
type prober struct {
	model   *san.Model
	opts    Options
	maxRows int

	writes     writeSet
	effects    scope
	timedScope []scope
	instScope  []scope

	dims     int
	dimNames []string
	initVec  []int

	reach       *ctmc.Reachable
	observedMax []int

	cols     []column
	colIdx   map[string]int
	variants map[string]int
	fired    map[string]bool

	rates map[string]*rateRange

	rep *replicaTracker
}

func newProber(model *san.Model, opts Options, maxRows int) *prober {
	np, ne := model.NumPlaces(), model.NumExtPlaces()
	p := &prober{
		model:      model,
		opts:       opts,
		maxRows:    maxRows,
		writes:     writeSet{p: make([]bool, np), e: make([]bool, ne)},
		timedScope: make([]scope, model.NumTimed()),
		instScope:  make([]scope, model.NumInstant()),
		dims:       np + ne,
		colIdx:     make(map[string]int),
		variants:   make(map[string]int),
		fired:      make(map[string]bool),
		rates:      make(map[string]*rateRange),
	}
	p.effects.writes = &p.writes
	for _, scopes := range [][]scope{p.timedScope, p.instScope} {
		for i := range scopes {
			scopes[i] = scope{writes: &p.writes, readP: make([]bool, np), readE: make([]bool, ne)}
		}
	}
	p.dimNames = make([]string, p.dims)
	for i := 0; i < np; i++ {
		p.dimNames[i] = model.PlaceName(san.PlaceID(i))
	}
	for i := 0; i < ne; i++ {
		p.dimNames[np+i] = "len(" + model.ExtPlaceName(san.ExtPlaceID(i)) + ")"
	}
	p.initVec = p.vec(model.InitialMarking())
	p.observedMax = make([]int, p.dims)
	p.rep = newReplicaTracker(p.dimNames)
	return p
}

// vec projects a marking onto the analysis dimensions: token counts, then
// ext-place lengths. The walk hands over markings without an observer, so
// these reads are not recorded.
func (p *prober) vec(mk *san.Marking) []int {
	v := make([]int, p.dims)
	np := p.model.NumPlaces()
	for i := 0; i < np; i++ {
		v[i] = mk.Tokens(san.PlaceID(i))
	}
	for i := 0; i < p.model.NumExtPlaces(); i++ {
		v[np+i] = mk.ExtLen(san.ExtPlaceID(i))
	}
	return v
}

// walk runs the reachability walk with the probe's hooks. Any fault but
// truncation at MaxStates is an error: the structural analyzer refuses to
// derive facts from a defective model; sanlint exists to diagnose those.
func (p *prober) walk() error {
	r, err := ctmc.Walk(p.model, ctmc.ExploreOptions{MaxStates: p.opts.MaxStates, Absorb: p.opts.Absorb}, ctmc.Hooks{
		Observer: p.observer,
		Fault: func(f *ctmc.Fault) error {
			if errors.Is(f, ctmc.ErrStateSpaceTooLarge) {
				return nil
			}
			return f
		},
		Chosen: p.chosen,
		Fired: func(a ctmc.Activity, c int, before, after *san.Marking) {
			p.recordColumn(a.Name, c, p.vec(before), p.vec(after))
		},
		State: func(_ int, mk *san.Marking) {
			v := p.vec(mk)
			for i, x := range v {
				if x > p.observedMax[i] {
					p.observedMax[i] = x
				}
			}
			if p.rep != nil {
				p.rep.project(v)
			}
		},
	})
	p.reach = r
	return err
}

// observer scopes reads to the enabling predicate being evaluated.
func (p *prober) observer(step ctmc.Step) san.AccessObserver {
	if step.Phase != ctmc.PhaseEnabled {
		return &p.effects
	}
	scopes := p.timedScope
	if step.Instant {
		scopes = p.instScope
	}
	s := &scopes[step.Index]
	s.evaluated = true
	return s
}

// chosen records the rate of an enabled exponential activity for the
// stiffness report; instantaneous and general activities report rate 0.
func (p *prober) chosen(a ctmc.Activity, rate float64, _ []float64) {
	if rate <= 0 {
		return
	}
	rr := p.rates[a.Name]
	if rr == nil {
		p.rates[a.Name] = &rateRange{min: rate, max: rate}
		return
	}
	if rate < rr.min {
		rr.min = rate
	}
	if rate > rr.max {
		rr.max = rate
	}
}

// initially evaluates an enabling predicate in the initial marking; ok is
// false when it panics there.
func initially(pred san.Predicate, init *san.Marking) (on, ok bool) {
	defer func() {
		if recover() != nil {
			on, ok = false, false
		}
	}()
	return pred(init), true
}

// recordColumn registers the delta of one atomic firing as an incidence
// column. Zero deltas record the firing (for dead-arc facts) but add no
// column: they constrain no invariant.
func (p *prober) recordColumn(activity string, caseIdx int, before, after []int) {
	ac := activity + "|" + strconv.Itoa(caseIdx)
	p.fired[ac] = true
	delta := make([]int, p.dims)
	zero := true
	for i := range delta {
		delta[i] = after[i] - before[i]
		if delta[i] != 0 {
			zero = false
		}
	}
	if zero {
		return
	}
	var b strings.Builder
	b.WriteString(ac)
	for _, d := range delta {
		b.WriteByte('|')
		b.WriteString(strconv.Itoa(d))
	}
	key := b.String()
	if _, ok := p.colIdx[key]; ok {
		return
	}
	variant := p.variants[ac]
	p.variants[ac] = variant + 1
	p.colIdx[key] = len(p.cols)
	p.cols = append(p.cols, column{activity: activity, caseIdx: caseIdx, variant: variant, delta: delta})
}

// colLabel names a column for T-semiflow terms: "activity/case", plus a
// "#variant" suffix when the case was observed with several deltas.
func (p *prober) colLabel(c column) string {
	label := c.activity + "/" + strconv.Itoa(c.caseIdx)
	if p.variants[c.activity+"|"+strconv.Itoa(c.caseIdx)] > 1 {
		label += "#" + strconv.Itoa(c.variant)
	}
	return label
}

// checkAlgebra refuses semiflow algebra that the walk it was derived from
// contradicts: a P-semiflow that a recorded incidence column changes, or
// a semiflow bound below the token count the walk observed. Every kept
// state is the initial marking plus recorded columns, so neither can
// happen while the elimination is sound; a contradiction is a defect of
// this package, not of the model.
func (p *prober) checkAlgebra(semis [][]int, bounds []int) error {
	for _, y := range semis {
		for _, c := range p.cols {
			change := 0
			for i, d := range c.delta {
				change += y[i] * d
			}
			if change != 0 {
				return fmt.Errorf("structural: %s: P-semiflow %s changes by %d when %s fires",
					p.model.Name(), p.semiflowLabel(y), change, p.colLabel(c))
			}
		}
	}
	for i, b := range bounds {
		if b >= 0 && b < p.observedMax[i] {
			return fmt.Errorf("structural: %s: semiflow bound %d of %s is below its observed maximum %d",
				p.model.Name(), b, p.dimNames[i], p.observedMax[i])
		}
	}
	return nil
}

// semiflowLabel renders a P-semiflow as its weighted sum, "1*A + 2*B".
func (p *prober) semiflowLabel(y []int) string {
	var terms []string
	for i, c := range y {
		if c != 0 {
			terms = append(terms, strconv.Itoa(c)+"*"+p.dimNames[i])
		}
	}
	return strings.Join(terms, " + ")
}

// facts assembles the ModelFacts artifact from the finished walk, once
// checkAlgebra has accepted the semiflows.
func (p *prober) facts() (*ModelFacts, error) {
	semis := pSemiflows(p.cols, p.dims, p.maxRows)
	bounds := semiflowBounds(semis, p.initVec, p.dims)
	if err := p.checkAlgebra(semis, bounds); err != nil {
		return nil, err
	}

	exhaustive := !p.reach.Truncated
	f := &ModelFacts{
		Model:             p.model.Name(),
		Exhaustive:        exhaustive,
		StatesProbed:      p.reach.States,
		TransitionColumns: len(p.cols),
		StateSpaceBound:   "unknown",
	}
	if exhaustive {
		f.StateSpaceBound = strconv.Itoa(p.reach.States)
	}
	f.Invariants = renderInvariants(semis, p.initVec, p.dimNames)
	f.TSemiflows = tSemiflowFacts(p)

	f.Places = make([]PlaceFact, p.dims)
	for i := 0; i < p.dims; i++ {
		// Only an exhaustive walk certifies anything: the observed
		// supremum is then exact.
		certified := -1
		if exhaustive {
			certified = p.observedMax[i]
		}
		f.Places[i] = PlaceFact{
			Name:           p.dimNames[i],
			Initial:        p.initVec[i],
			ObservedMax:    p.observedMax[i],
			CertifiedBound: certified,
			InvariantBound: bounds[i],
		}
	}

	f.Stiffness = p.stiffness()
	f.Replicas = p.rep.facts(p, exhaustive)
	if exhaustive {
		f.ConstantGates = p.constantGates()
		f.DeadArcs = p.deadArcs()
	}
	return f, nil
}

func (p *prober) stiffness() StiffnessFact {
	var s StiffnessFact
	names := make([]string, 0, len(p.rates))
	for name := range p.rates {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rr := p.rates[name]
		if s.MinActivity == "" || rr.min < s.MinRate {
			s.MinRate, s.MinActivity = rr.min, name
		}
		if s.MaxActivity == "" || rr.max > s.MaxRate {
			s.MaxRate, s.MaxActivity = rr.max, name
		}
	}
	if s.MinActivity != "" && s.MinRate > 0 {
		s.Spread = s.MaxRate / s.MinRate
		s.Flagged = s.Spread > StiffnessThreshold
	}
	return s
}

// constantGates reports every enabling predicate whose accumulated read
// set is disjoint from the global effect write set. On an exhaustive walk
// the read set covers every reachable evaluation and the write set every
// reachable effect, so the predicate's value provably never changes from
// its initial evaluation.
func (p *prober) constantGates() []GateFact {
	constant := func(s *scope) bool {
		if !s.evaluated {
			return false
		}
		for i, r := range s.readP {
			if r && p.writes.p[i] {
				return false
			}
		}
		for i, r := range s.readE {
			if r && p.writes.e[i] {
				return false
			}
		}
		return true
	}
	init := p.model.InitialMarking()
	var out []GateFact
	for i := 0; i < p.model.NumTimed(); i++ {
		act := p.model.Timed(i)
		if act.Enabled == nil || !constant(&p.timedScope[i]) {
			continue
		}
		if on, ok := initially(act.Enabled, init); ok {
			out = append(out, GateFact{Activity: act.Name, Kind: "timed", Enabled: on})
		}
	}
	for i := 0; i < p.model.NumInstant(); i++ {
		act := p.model.Instant(i)
		if !constant(&p.instScope[i]) {
			continue
		}
		if on, ok := initially(act.Enabled, init); ok {
			out = append(out, GateFact{Activity: act.Name, Kind: "instant", Enabled: on})
		}
	}
	return out
}

// deadArcs reports activity cases that never fired during the exhaustive
// walk. Case -1 covers a whole activity that was never enabled.
func (p *prober) deadArcs() []DeadArcFact {
	var out []DeadArcFact
	perActivity := func(name string, ncases int, enabled bool, kind string) {
		if !enabled {
			out = append(out, DeadArcFact{
				Activity: name,
				Case:     -1,
				Reason:   kind + " activity is enabled in no reachable marking",
			})
			return
		}
		if ncases == 0 {
			ncases = 1
		}
		for ci := 0; ci < ncases; ci++ {
			if !p.fired[name+"|"+strconv.Itoa(ci)] {
				out = append(out, DeadArcFact{
					Activity: name,
					Case:     ci,
					Reason:   "case has zero weight in every reachable marking where the activity is enabled",
				})
			}
		}
	}
	for i := 0; i < p.model.NumTimed(); i++ {
		act := p.model.Timed(i)
		perActivity(act.Name, len(act.Cases), p.reach.TimedEnabled[i], "timed")
	}
	for i := 0; i < p.model.NumInstant(); i++ {
		act := p.model.Instant(i)
		perActivity(act.Name, len(act.Cases), p.reach.InstantEnabled[i], "instantaneous")
	}
	return out
}
