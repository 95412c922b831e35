// Package structural computes structural facts about a built san.Model
// without spending any simulation budget on it: conservation invariants
// (P-semiflows) and the per-place token bounds they certify, T-semiflows,
// a state-space size bound, a stiffness report over the exponential rate
// scales, replica-symmetry (lumpability) detection over the bracketed
// replica families, and dead-arc / constant-gate elimination facts.
//
// SAN gates in this codebase are opaque Go closures, so the incidence
// matrix cannot be read off a net description. Instead Analyze runs the
// reachability walk of internal/ctmc (ctmc.Walk) over the bounded marking
// graph and observes, for every activity case, the distinct marking-delta
// vectors its firing produces; each distinct delta is one incidence
// column. Extended places contribute their lengths as pseudo-places
// ("len(platoon1)"), which is how the paper's platoon-composition arrays
// enter the linear-algebraic invariants. When
// the walk reaches a fixpoint within Options.MaxStates the facts are
// certified: every reachable transition effect has been observed, so a
// P-semiflow of the observed incidence columns is a genuine conservation
// law of the model and the token bounds derived from it hold in every
// reachable marking. A truncated walk still reports facts, but they
// describe only the explored prefix (Exhaustive is false) and downstream
// consumers must not treat them as certified.
//
// Before it reports anything, Analyze checks the semiflow algebra against
// its own walk: every P-semiflow must leave every recorded incidence
// column unchanged, and no semiflow bound may fall below a token count the
// walk observed. Facts that fail this check are an error, not a result.
//
// The result is the serializable ModelFacts artifact that cmd/ahs-lint
// prints (-facts JSON output with a committed golden). See
// docs/linting.md for the JSON schema.
package structural

import (
	"fmt"

	"ahs/internal/san"
)

// StiffnessThreshold is the rate spread above which Stiffness.Flagged is
// set: the spread at which uniformization and naive Monte Carlo both
// degrade noticeably.
const StiffnessThreshold = 1e6

// maxSemiflows caps the number of P- and T-semiflows kept.
const maxSemiflows = 64

// maxEliminationRows caps the working set of the Farkas elimination.
// Hitting the cap abandons the affected semiflow family (fewer invariants,
// never wrong ones).
const maxEliminationRows = 4096

// Options bounds an analysis run.
type Options struct {
	// MaxStates bounds the probed stable markings; 0 means 20000. When the
	// bound is hit the facts describe only the explored prefix and
	// Exhaustive is false.
	MaxStates int
	// Absorb, when non-nil, marks absorbing markings: they are recorded
	// but not expanded, mirroring ctmc.ExploreOptions.Absorb and the goal
	// places of sanlint.Config. Facts are then certified for the absorbed
	// reachable graph — the graph every consumer passing the same
	// absorption actually explores. The predicate must not mutate the
	// marking.
	Absorb func(mk *san.Marking) bool
}

// Term is one weighted place (or transition, in a T-semiflow) of an
// invariant. Extended places appear through their length pseudo-place,
// named "len(<place>)".
type Term struct {
	Place string `json:"place"`
	Coeff int    `json:"coeff"`
}

// Invariant is one P-semiflow y ≥ 0 with y·C = 0: the weighted token sum
// over Terms equals Value (= y·M0) in every reachable marking.
type Invariant struct {
	Terms []Term `json:"terms"`
	Value int    `json:"value"`
}

// TSemiflow is one T-semiflow x ≥ 0 with C·x = 0: firing every listed
// transition the given number of times reproduces the starting marking.
// Transition labels are "<activity>/<case>" plus "#<variant>" when an
// activity case was observed with several distinct marking deltas.
type TSemiflow struct {
	Terms []Term `json:"terms"`
}

// PlaceFact is the per-place bound report.
type PlaceFact struct {
	Name    string `json:"name"`
	Initial int    `json:"initial"`
	// ObservedMax is the largest token count seen during the probe walk
	// (the exact bound when Exhaustive).
	ObservedMax int `json:"observedMax"`
	// CertifiedBound is the certified token bound: the exact supremum
	// from an exhaustive walk; -1 when nothing is certified (truncated
	// walk).
	CertifiedBound int `json:"certifiedBound"`
	// InvariantBound is the bound derived purely algebraically from the
	// P-semiflows, min over covering flows y of floor(y·M0 / y_p); -1 when
	// no semiflow covers the place. It is certified only alongside
	// Exhaustive (the incidence columns are complete then). Analyze
	// refuses facts in which it is below ObservedMax.
	InvariantBound int `json:"invariantBound"`
}

// StiffnessFact reports the spread of the exponential rate scales observed
// while activities were enabled. A spread beyond the threshold degrades
// both uniformization (internal/ctmc: the Poisson truncation point grows
// with Λ·t) and naive Monte Carlo (internal/mc: rare slow events under
// many fast ones), which is why the paper's λ = 1e-5/hr study needs
// importance sampling.
type StiffnessFact struct {
	MinRate     float64 `json:"minRate"`
	MaxRate     float64 `json:"maxRate"`
	MinActivity string  `json:"minActivity"`
	MaxActivity string  `json:"maxActivity"`
	// Spread is MaxRate/MinRate (0 when no exponential activity was
	// enabled anywhere).
	Spread  float64 `json:"spread"`
	Flagged bool    `json:"flagged"`
}

// ReplicaFacts reports the index-permutation symmetry over the bracketed
// replica families ("one_vehicle[3].L2", "vehicle[3].fm", ...). When every
// replica index has an identical canonical signature — same local initial
// markings, same observed transition deltas and rate values up to renaming
// "[i]" — the model is lumpable by replica exchange and the per-replica
// local-state product L^R collapses to the multiset bound C(L+R-1, R).
// Extended-place contents (vehicle ids) are treated as exchangeable
// tokens, which core's deterministic slot reuse justifies.
type ReplicaFacts struct {
	Replicas  int      `json:"replicas"`
	Families  []string `json:"families"`
	Symmetric bool     `json:"symmetric"`
	// LocalStates counts the distinct per-replica local-state projections
	// observed (exact when Exhaustive).
	LocalStates int `json:"localStates"`
	// FullLocalProduct is L^R, the local-state product without lumping,
	// and QuotientBound the multiset bound C(L+R-1, R) it collapses to
	// when Symmetric. Decimal strings: the values overflow int64 quickly.
	FullLocalProduct string `json:"fullLocalProduct"`
	QuotientBound    string `json:"quotientBound"`
}

// GateFact records an enabling predicate whose read set is disjoint from
// every effect's write set: its value can never change (sim.Runner learns
// the same at run time and never re-evaluates such a predicate).
type GateFact struct {
	Activity string `json:"activity"`
	Kind     string `json:"kind"` // "timed" or "instant"
	Enabled  bool   `json:"enabled"`
}

// DeadArcFact records an activity case that never fired during an
// exhaustive walk: its output arc is dead and can be eliminated.
type DeadArcFact struct {
	Activity string `json:"activity"`
	Case     int    `json:"case"`
	Reason   string `json:"reason"`
}

// ModelFacts is the serializable structural-analysis artifact. All slices
// are deterministically ordered, so the JSON encoding is reproducible and
// can be pinned by golden tests.
type ModelFacts struct {
	Model string `json:"model"`
	// Exhaustive reports that the probe walk reached a fixpoint within
	// MaxStates: every fact below is certified for the whole reachable
	// behaviour, not just an explored prefix.
	Exhaustive bool `json:"exhaustive"`
	// StatesProbed counts the stable markings visited (the exact
	// reachable-state count when Exhaustive).
	StatesProbed int `json:"statesProbed"`
	// TransitionColumns counts the distinct (activity, case, delta)
	// incidence columns observed.
	TransitionColumns int `json:"transitionColumns"`

	Places     []PlaceFact `json:"places"`
	Invariants []Invariant `json:"invariants"`
	TSemiflows []TSemiflow `json:"tSemiflows,omitempty"`

	// StateSpaceBound is a certified upper bound on the stable reachable
	// states, as a decimal string: the exact probed count when Exhaustive,
	// the product of the certified place bounds for ext-place-free models,
	// or "unknown".
	StateSpaceBound string `json:"stateSpaceBound"`

	Stiffness StiffnessFact `json:"stiffness"`
	Replicas  *ReplicaFacts `json:"replicas,omitempty"`

	ConstantGates []GateFact    `json:"constantGates,omitempty"`
	DeadArcs      []DeadArcFact `json:"deadArcs,omitempty"`
}

// Analyze probes the model's bounded marking graph and derives the
// structural facts. The returned error reports an unanalyzable model (a
// marking function panicking or producing invalid weights during the
// probe; use internal/sanlint to diagnose such defects) or semiflow
// algebra that the probe walk contradicts.
func Analyze(model *san.Model, opts Options) (*ModelFacts, error) {
	return analyzeCapped(model, opts, maxEliminationRows)
}

// analyzeCapped is Analyze with the Farkas working set capped at maxRows.
func analyzeCapped(model *san.Model, opts Options, maxRows int) (*ModelFacts, error) {
	if opts.MaxStates <= 0 {
		opts.MaxStates = 20_000
	}
	p := newProber(model, opts, maxRows)
	if err := p.walk(); err != nil {
		return nil, fmt.Errorf("structural: %w (run sanlint to diagnose)", err)
	}
	return p.facts()
}
