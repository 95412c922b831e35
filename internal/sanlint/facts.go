package sanlint

import (
	"fmt"
	"math"
	"strings"

	"ahs/internal/san"
	"ahs/internal/structural"
)

// This file implements the facts-driven cross-checks SAN012–SAN014: they
// assert a structural.ModelFacts artifact against the linter's own bounded
// exploration. They are opt-in (Config.Facts) because they only make sense
// when the caller has facts for exactly the graph being explored.

// resolvedFacts is Config.Facts compiled onto the model's place ids for
// per-marking evaluation.
type resolvedFacts struct {
	facts *structural.ModelFacts

	// Certified token bounds by id; -1 entries are uncovered.
	boundP []int
	boundE []int

	invariants []resolvedInvariant
}

type resolvedInvariant struct {
	label  string
	value  int
	places []weightedPlace
	exts   []weightedExt
}

type weightedPlace struct {
	id    san.PlaceID
	coeff int
}

type weightedExt struct {
	id    san.ExtPlaceID
	coeff int
}

// extLenName converts a "len(x)" pseudo-place name back to the extended
// place name, reporting whether it had that form.
func extLenName(name string) (string, bool) {
	if strings.HasPrefix(name, "len(") && strings.HasSuffix(name, ")") {
		return name[4 : len(name)-1], true
	}
	return "", false
}

// resolveFacts compiles the certified parts of the facts onto model ids.
// Facts from a truncated walk certify nothing, so everything per-marking
// stays empty then (SAN014 still applies: stiffness is observational).
func resolveFacts(model *san.Model, facts *structural.ModelFacts) *resolvedFacts {
	rf := &resolvedFacts{
		facts:  facts,
		boundP: make([]int, model.NumPlaces()),
		boundE: make([]int, model.NumExtPlaces()),
	}
	for i := range rf.boundP {
		rf.boundP[i] = -1
	}
	for i := range rf.boundE {
		rf.boundE[i] = -1
	}
	if !facts.Exhaustive {
		return rf
	}
	for _, pf := range facts.Places {
		if pf.CertifiedBound < 0 {
			continue
		}
		if ext, ok := extLenName(pf.Name); ok {
			if id, found := model.ExtPlaceByName(ext); found {
				rf.boundE[id] = pf.CertifiedBound
			}
			continue
		}
		if id, found := model.PlaceByName(pf.Name); found {
			rf.boundP[id] = pf.CertifiedBound
		}
	}
	for _, inv := range facts.Invariants {
		ri := resolvedInvariant{value: inv.Value}
		var labels []string
		ok := true
		for _, term := range inv.Terms {
			labels = append(labels, fmt.Sprintf("%d*%s", term.Coeff, term.Place))
			if ext, found := extLenName(term.Place); found {
				id, exists := model.ExtPlaceByName(ext)
				if !exists {
					ok = false
					break
				}
				ri.exts = append(ri.exts, weightedExt{id: id, coeff: term.Coeff})
				continue
			}
			id, exists := model.PlaceByName(term.Place)
			if !exists {
				ok = false
				break
			}
			ri.places = append(ri.places, weightedPlace{id: id, coeff: term.Coeff})
		}
		if ok {
			ri.label = strings.Join(labels, " + ")
			rf.invariants = append(rf.invariants, ri)
		}
	}
	return rf
}

// factsChecks asserts the certified bounds (SAN012) and conservation
// invariants (SAN013) on one explored stable marking.
func (l *linter) factsChecks(mk *san.Marking) {
	rf := l.facts
	if rf == nil {
		return
	}
	for p, bound := range rf.boundP {
		if bound < 0 {
			continue
		}
		if got := mk.Tokens(san.PlaceID(p)); got > bound {
			l.diag(CheckBoundViolation, SeverityError, l.model.PlaceName(san.PlaceID(p)), mk.Summary(),
				"place holds %d tokens, exceeding the certified bound %d from the structural facts", got, bound)
		}
	}
	for p, bound := range rf.boundE {
		if bound < 0 {
			continue
		}
		if got := mk.ExtLen(san.ExtPlaceID(p)); got > bound {
			l.diag(CheckBoundViolation, SeverityError, l.model.ExtPlaceName(san.ExtPlaceID(p)), mk.Summary(),
				"extended place holds %d entries, exceeding the certified length bound %d from the structural facts", got, bound)
		}
	}
	for i := range rf.invariants {
		inv := &rf.invariants[i]
		total := 0
		for _, wp := range inv.places {
			total += wp.coeff * mk.Tokens(wp.id)
		}
		for _, we := range inv.exts {
			total += we.coeff * mk.ExtLen(we.id)
		}
		if total != inv.value {
			l.diag(CheckNonConservative, SeverityError, inv.label, mk.Summary(),
				"conservation invariant evaluates to %d, want %d; the model is not conservative under the certified P-semiflow", total, inv.value)
		}
	}
}

// stiffnessCheck applies SAN014 when the facts flag their rate spread.
func (l *linter) stiffnessCheck() {
	if l.facts == nil {
		return
	}
	s := l.facts.facts.Stiffness
	if s.Flagged && !math.IsInf(s.Spread, 0) {
		l.diag(CheckStiffness, SeverityWarning, "", "",
			"exponential rates span %.3g/h (%q) to %.3g/h (%q): spread %.3g exceeds the %.3g threshold; uniformization and naive Monte Carlo both degrade — prefer importance sampling or lumping",
			s.MinRate, s.MinActivity, s.MaxRate, s.MaxActivity, s.Spread, structural.StiffnessThreshold)
	}
}
