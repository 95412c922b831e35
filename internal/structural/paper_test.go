package structural_test

import (
	"strconv"
	"testing"

	"ahs"
	"ahs/internal/core"
	"ahs/internal/ctmc"
	"ahs/internal/san"
	"ahs/internal/structural"
)

// paperSystems builds the four DD/DC/CD/CC Table 3 variants in the reduced
// form used by ahs-lint and the exact CTMC solver (n=1, no cumulative
// outcome counters), with phased (coordination + execution) maneuvers when
// phased is set.
func paperSystems(t *testing.T, phased bool) []*core.AHS {
	t.Helper()
	base := core.DefaultParams().WithPlatoonSize(1)
	base.TrackOutcomes = false
	base.PhasedManeuvers = phased
	systems, err := core.BuildVariants(base, ahs.AllStrategies())
	if err != nil {
		t.Fatalf("building paper variants: %v", err)
	}
	return systems
}

// TestPaperModelFactsAgreeWithExploration is the independent oracle of
// the facts: for the four paper models and their phased variants, the
// certified per-place bounds, the state-space bound and the invariants
// must agree with every state of exhaustive ctmc.Explore — explored
// states ≤ state bound, per-place maximum tokens ≤ certified bound, every
// invariant constant.
func TestPaperModelFactsAgreeWithExploration(t *testing.T) {
	for _, sys := range append(paperSystems(t, false), paperSystems(t, true)...) {
		sys := sys
		name := sys.Params.Strategy.String()
		if sys.Params.PhasedManeuvers {
			name = "phased-" + name
		}
		t.Run(name, func(t *testing.T) {
			facts, err := structural.Analyze(sys.Model, structural.Options{
				MaxStates: 50_000,
				Absorb:    sys.Unsafe,
			})
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			if !facts.Exhaustive {
				t.Fatal("paper-model walk must be exhaustive at 50k states")
			}

			graph, err := ctmc.Explore(sys.Model, ctmc.ExploreOptions{
				MaxStates: 50_000,
				Absorb:    sys.Unsafe,
			})
			if err != nil {
				t.Fatalf("ctmc.Explore: %v", err)
			}

			bound, err := strconv.Atoi(facts.StateSpaceBound)
			if err != nil || bound <= 0 {
				t.Fatalf("no certified state bound: %q", facts.StateSpaceBound)
			}
			if len(graph.States) > bound {
				t.Errorf("explored %d states > certified bound %d", len(graph.States), bound)
			}

			// Per-place maxima over the explored graph vs certified bounds.
			model := sys.Model
			for _, mk := range graph.States {
				for p := 0; p < model.NumPlaces(); p++ {
					name := model.PlaceName(san.PlaceID(p))
					b := certifiedBound(facts, name)
					if b < 0 {
						t.Fatalf("place %s has no certified bound on an exhaustive walk", name)
					}
					if got := mk.Tokens(san.PlaceID(p)); got > b {
						t.Errorf("place %s holds %d tokens in an explored state, certified bound %d", name, got, b)
					}
				}
				for p := 0; p < model.NumExtPlaces(); p++ {
					name := "len(" + model.ExtPlaceName(san.ExtPlaceID(p)) + ")"
					b := certifiedBound(facts, name)
					if b < 0 {
						t.Fatalf("pseudo-place %s has no certified bound on an exhaustive walk", name)
					}
					if got := mk.ExtLen(san.ExtPlaceID(p)); got > b {
						t.Errorf("%s is %d in an explored state, certified bound %d", name, got, b)
					}
				}
			}

			// The algebraic invariant bounds, where present, must confirm
			// the walk-certified ones.
			for _, pf := range facts.Places {
				if pf.InvariantBound >= 0 && pf.InvariantBound < pf.ObservedMax {
					t.Errorf("place %s: semiflow bound %d below observed max %d — unsound invariant",
						pf.Name, pf.InvariantBound, pf.ObservedMax)
				}
			}

			// Every invariant must hold in every explored marking.
			for _, inv := range facts.Invariants {
				for _, mk := range graph.States {
					got := evalInvariant(t, model, inv, mk)
					if got != inv.Value {
						t.Fatalf("invariant %+v evaluates to %d (want %d) in marking %s",
							inv, got, inv.Value, mk.Summary())
					}
				}
			}
		})
	}
}

// certifiedBound returns the certified bound of the named place or
// pseudo-place, -1 when none is certified or the name is unknown.
func certifiedBound(f *structural.ModelFacts, name string) int {
	for _, pf := range f.Places {
		if pf.Name == name {
			return pf.CertifiedBound
		}
	}
	return -1
}

func evalInvariant(t *testing.T, model *san.Model, inv structural.Invariant, mk *san.Marking) int {
	t.Helper()
	total := 0
	for _, term := range inv.Terms {
		if id, ok := model.PlaceByName(term.Place); ok {
			total += term.Coeff * mk.Tokens(id)
			continue
		}
		name := term.Place
		if len(name) > 5 && name[:4] == "len(" && name[len(name)-1] == ')' {
			if id, ok := model.ExtPlaceByName(name[4 : len(name)-1]); ok {
				total += term.Coeff * mk.ExtLen(id)
				continue
			}
		}
		t.Fatalf("invariant term %q names no place", term.Place)
	}
	return total
}

// TestPaperModelStiffness pins the paper's stiffness profile: the spread
// between the slowest failure rate (λ = 1e-5/hr) and the fastest maneuver
// rate (TIEN at 30/hr) is ~3e6, above the 1e6 flag threshold. This is a
// genuine property of the models — it is exactly why the paper needs
// importance sampling for the Monte Carlo study.
func TestPaperModelStiffness(t *testing.T) {
	for _, sys := range paperSystems(t, false) {
		facts, err := structural.Analyze(sys.Model, structural.Options{
			MaxStates: 50_000,
			Absorb:    sys.Unsafe,
		})
		if err != nil {
			t.Fatalf("%s: %v", sys.Params.Strategy, err)
		}
		s := facts.Stiffness
		if !s.Flagged {
			t.Errorf("%s: stiffness not flagged (spread %.3g); the paper models are stiff by construction",
				sys.Params.Strategy, s.Spread)
		}
		if s.Spread < 1e6 || s.Spread > 1e7 {
			t.Errorf("%s: spread %.3g outside the expected ~3e6 decade", sys.Params.Strategy, s.Spread)
		}
	}
}

// TestPaperModelReplicaFacts asserts the replica layer is recognised. At
// n=1 the reduced model still instantiates per-slot replicas (slots =
// lanes·n); symmetry across slots is reported when the observed structure
// is identical.
func TestPaperModelReplicaFacts(t *testing.T) {
	sys := paperSystems(t, false)[0]
	facts, err := structural.Analyze(sys.Model, structural.Options{
		MaxStates: 50_000,
		Absorb:    sys.Unsafe,
	})
	if err != nil {
		t.Fatal(err)
	}
	rf := facts.Replicas
	if rf == nil {
		t.Fatal("paper model must report replica facts")
	}
	if slots := sys.Params.Lanes * sys.Params.N; rf.Replicas != slots {
		t.Errorf("Replicas = %d, want %d slots", rf.Replicas, slots)
	}
	if rf.LocalStates < 2 {
		t.Errorf("LocalStates = %d, want >= 2", rf.LocalStates)
	}
}
