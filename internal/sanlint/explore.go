package sanlint

import (
	"errors"
	"fmt"
	"math"

	"ahs/internal/ctmc"
	"ahs/internal/san"
)

// recorder accumulates which places the model's own functions read and
// write, via san.AccessObserver. The walk attaches it only while a
// predicate, rate, weight or effect runs.
type recorder struct {
	readP, writeP []bool
	readE, writeE []bool
}

func newRecorder(m *san.Model) *recorder {
	return &recorder{
		readP:  make([]bool, m.NumPlaces()),
		writeP: make([]bool, m.NumPlaces()),
		readE:  make([]bool, m.NumExtPlaces()),
		writeE: make([]bool, m.NumExtPlaces()),
	}
}

func (r *recorder) ReadPlace(p san.PlaceID)        { r.readP[p] = true }
func (r *recorder) WritePlace(p san.PlaceID)       { r.writeP[p] = true }
func (r *recorder) ReadExtPlace(p san.ExtPlaceID)  { r.readE[p] = true }
func (r *recorder) WriteExtPlace(p san.ExtPlaceID) { r.writeE[p] = true }

// weightRecord tracks the case-weight vectors observed for one activity, to
// decide whether the weights are (observably) constant.
type weightRecord struct {
	first  []float64
	varies bool
	evals  int
}

type linter struct {
	model  *san.Model
	cfg    Config
	report *Report

	rec         *recorder
	observed    map[san.PlaceID]bool
	goals       []san.PlaceID
	goalReached []bool

	reach *ctmc.Reachable
	dedup map[string]struct{}

	weight map[string]*weightRecord
}

// diag records a finding once per (check, object) pair.
func (l *linter) diag(check CheckID, sev Severity, object, marking, format string, args ...interface{}) {
	key := string(check) + "|" + object
	if _, dup := l.dedup[key]; dup {
		return
	}
	l.dedup[key] = struct{}{}
	l.report.Diagnostics = append(l.report.Diagnostics, Diagnostic{
		Check:    check,
		Severity: sev,
		Object:   object,
		Message:  fmt.Sprintf(format, args...),
		Marking:  marking,
	})
}

// explore walks the bounded marking graph breadth-first from the initial
// marking, the exact solver's reachability walk, tracing every model
// function's place accesses and collecting diagnostics instead of failing
// on the first defect. Markings with a marked goal place are absorbing.
func (l *linter) explore() error {
	r, err := ctmc.Walk(l.model, ctmc.ExploreOptions{MaxStates: l.cfg.MaxStates, Absorb: l.goalMarked}, ctmc.Hooks{
		Observer: func(ctmc.Step) san.AccessObserver { return l.rec },
		Fault:    l.fault,
		Chosen:   l.chosen,
		Conflict: l.conflict,
		State:    l.state,
	})
	if err != nil {
		return err
	}
	l.reach = r
	l.report.States = r.States
	l.report.Truncated = r.Truncated
	return nil
}

// state records which goals a new stable marking reaches.
func (l *linter) state(_ int, mk *san.Marking) {
	for gi, g := range l.goals {
		if mk.Tokens(g) > 0 {
			l.goalReached[gi] = true
		}
	}
}

func (l *linter) goalMarked(mk *san.Marking) bool {
	for _, g := range l.goals {
		if mk.Tokens(g) > 0 {
			return true
		}
	}
	return false
}

// fault reports a defect the walk met and lets it go on without what
// faulted: a panic is SAN008, an invalid rate SAN009, invalid case weights
// SAN001 and a livelock SAN011. A state beyond MaxStates is summarised
// once, as SAN010, by absenceChecks.
func (l *linter) fault(f *ctmc.Fault) error {
	name := f.Step.Name
	switch {
	case errors.Is(f, ctmc.ErrStateSpaceTooLarge):
	case f.Panic != nil:
		l.diag(CheckPanic, SeverityError, name, f.Marking.Summary(), "%s %q panicked: %v", f.Step.Phase, name, f.Panic)
	case errors.Is(f, ctmc.ErrLivelock):
		l.diag(CheckInstantLivelock, SeverityError, "", f.Marking.Summary(),
			"instantaneous closure exceeded depth %d; instantaneous activities likely re-enable forever", ctmc.MaxInstantDepth)
	case f.Step.Phase == ctmc.PhaseRate:
		l.diag(CheckInvalidRate, SeverityError, name, f.Marking.Summary(), "%v", f.Err)
	default:
		l.diag(CheckCaseWeights, SeverityError, name, f.Marking.Summary(), "%v", f.Err)
	}
	return nil
}

// conflict reports equal-priority instantaneous activities enabled
// together (SAN006); the walk fires the first registered.
func (l *linter) conflict(mk *san.Marking, chosen, other ctmc.Activity) {
	l.diag(CheckInstantConflict, SeverityError, chosen.Name+" / "+other.Name, mk.Summary(),
		"instantaneous activities %q and %q are enabled together with equal priority %d; their firing order is undefined",
		chosen.Name, other.Name, l.model.Instant(chosen.Index).Priority)
}

// chosen records every valid multi-case weight vector for the
// normalization check (SAN002).
func (l *linter) chosen(a ctmc.Activity, _ float64, ws []float64) {
	if len(ws) < 2 {
		return
	}
	rec := l.weight[a.Name]
	if rec == nil {
		rec = &weightRecord{first: append([]float64(nil), ws...)}
		l.weight[a.Name] = rec
	} else if !rec.varies {
		for i, w := range ws {
			if math.Float64bits(w) != math.Float64bits(rec.first[i]) {
				rec.varies = true
				break
			}
		}
	}
	rec.evals++
}

// absenceChecks applies the whole-model checks that assert something never
// happened during exploration. They are meaningless on a truncated graph,
// so truncation suppresses them behind a single SAN010 finding.
func (l *linter) absenceChecks() {
	if l.report.Truncated {
		l.diag(CheckTruncated, SeverityWarning, "", "",
			"exploration stopped at MaxStates=%d; suppressed checks: %s (dead place), %s (stuck place), %s (never enabled), %s (goal unreachable)",
			l.cfg.MaxStates, CheckDeadPlace, CheckStuckPlace, CheckNeverEnabled, CheckGoalUnreachable)
		return
	}
	m := l.model
	for p := 0; p < m.NumPlaces(); p++ {
		id := san.PlaceID(p)
		if !l.rec.readP[p] && !l.observed[id] && !l.isGoal(id) {
			l.diag(CheckDeadPlace, SeverityWarning, m.PlaceName(id), "",
				"place is never read by any predicate, rate, weight or effect (declare it Observed if it is a measure-only counter)")
		}
		if !l.rec.writeP[p] {
			l.diag(CheckStuckPlace, SeverityWarning, m.PlaceName(id), "",
				"place is never written by any effect; it is stuck at its initial marking %d", m.PlaceInitial(id))
		}
	}
	for p := 0; p < m.NumExtPlaces(); p++ {
		id := san.ExtPlaceID(p)
		if !l.rec.readE[p] {
			l.diag(CheckDeadPlace, SeverityWarning, m.ExtPlaceName(id), "",
				"extended place is never read by any predicate, rate, weight or effect")
		}
		if !l.rec.writeE[p] {
			l.diag(CheckStuckPlace, SeverityWarning, m.ExtPlaceName(id), "",
				"extended place is never written by any effect; it is stuck at its initial contents %v", m.ExtPlaceInitial(id))
		}
	}
	states := l.reach.States
	for i := 0; i < m.NumTimed(); i++ {
		if !l.reach.TimedEnabled[i] {
			l.diag(CheckNeverEnabled, SeverityWarning, m.Timed(i).Name, "",
				"timed activity is enabled in no reachable marking (within %d states)", states)
		}
	}
	for i := 0; i < m.NumInstant(); i++ {
		if !l.reach.InstantEnabled[i] {
			l.diag(CheckNeverEnabled, SeverityWarning, m.Instant(i).Name, "",
				"instantaneous activity is enabled in no reachable marking (within %d states)", states)
		}
	}
	for gi, g := range l.goals {
		if !l.goalReached[gi] {
			l.diag(CheckGoalUnreachable, SeverityError, m.PlaceName(g), "",
				"goal place is marked in no reachable marking (within %d states); the measure defined on it is identically zero", states)
		}
	}
}

func (l *linter) isGoal(p san.PlaceID) bool {
	for _, g := range l.goals {
		if g == p {
			return true
		}
	}
	return false
}

// normalizationChecks flags activities whose multi-case weights were
// observably constant yet do not sum to 1 (SAN002). The simulator
// normalises weights, so such models run — but the modeller almost
// certainly meant probabilities, and a missing branch silently rescales the
// others.
func (l *linter) normalizationChecks() {
	for activity, rec := range l.weight {
		if rec.varies || rec.evals == 0 {
			continue
		}
		sum := 0.0
		for _, w := range rec.first {
			sum += w
		}
		if math.Abs(sum-1) > 1e-6 {
			l.diag(CheckWeightNormalization, SeverityWarning, activity, "",
				"case weights %v are constant across all %d observed markings but sum to %v, not 1; if these are probabilities a case is missing or misweighted",
				rec.first, rec.evals, sum)
		}
	}
}
