// Package sanlint statically verifies the structure of a built san.Model
// without spending any simulation budget on it.
//
// The paper's headline measure S(t) is only meaningful when the SAN
// composition is well-formed: case probabilities that normalise, gates that
// touch only live places, an absorbing KO_total that is actually reachable.
// A malformed model built through san.Builder otherwise fails — or worse,
// silently biases the estimate — deep inside a Monte-Carlo run. Following
// the "check the model before simulating it" discipline of simulation-based
// safety assessment, this package explores a bounded marking graph of the
// model (ctmc.Walk, the walk the exact solver runs) while tracing every
// place access through san.AccessObserver, and reports findings as stable,
// documented check IDs (SAN001, SAN002, ...). See docs/linting.md for the
// full catalogue.
package sanlint

import (
	"fmt"
	"sort"
	"strings"

	"ahs/internal/san"
)

// Severity ranks a diagnostic.
type Severity int

// Severities, in increasing order of gravity.
const (
	SeverityInfo Severity = iota
	SeverityWarning
	SeverityError
)

// String returns "info", "warning" or "error".
func (s Severity) String() string {
	switch s {
	case SeverityInfo:
		return "info"
	case SeverityWarning:
		return "warning"
	case SeverityError:
		return "error"
	default:
		return fmt.Sprintf("Severity?(%d)", int(s))
	}
}

// MarshalJSON encodes the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// CheckID identifies one lint check. IDs are stable across releases: tools
// may filter or suppress on them.
type CheckID string

// The check catalogue. docs/linting.md documents each with an example.
const (
	// CheckCaseWeights: an activity's case weights are invalid (negative,
	// NaN, or summing to zero) in some reachable marking.
	CheckCaseWeights CheckID = "SAN001"
	// CheckWeightNormalization: an activity's case weights are constant
	// across every observed marking but do not sum to 1.
	CheckWeightNormalization CheckID = "SAN002"
	// CheckDeadPlace: a place is never read by any predicate, rate, weight
	// or effect (and is not a declared observable).
	CheckDeadPlace CheckID = "SAN003"
	// CheckStuckPlace: a place is never written by any effect — it can
	// never leave its initial marking.
	CheckStuckPlace CheckID = "SAN004"
	// CheckNeverEnabled: an activity is enabled in no reachable marking.
	CheckNeverEnabled CheckID = "SAN005"
	// CheckInstantConflict: two instantaneous activities with equal
	// priority are enabled in the same reachable marking (nondeterminism).
	CheckInstantConflict CheckID = "SAN006"
	// CheckGoalUnreachable: a declared goal place (e.g. the absorbing
	// KO_total) is marked in no reachable marking.
	CheckGoalUnreachable CheckID = "SAN007"
	// CheckPanic: a marking function panicked during exploration —
	// typically an extended-place index out of range or a negative marking.
	CheckPanic CheckID = "SAN008"
	// CheckInvalidRate: a timed activity is enabled with a non-positive,
	// NaN or infinite rate.
	CheckInvalidRate CheckID = "SAN009"
	// CheckTruncated: exploration hit MaxStates; absence-based checks
	// (SAN003, SAN004, SAN005, SAN007) were suppressed.
	CheckTruncated CheckID = "SAN010"
	// CheckInstantLivelock: the instantaneous closure exceeded
	// ctmc.MaxInstantDepth — instantaneous activities likely re-enable
	// forever.
	CheckInstantLivelock CheckID = "SAN011"

	// SAN012–SAN014 are retired: tools may still filter on them, so they
	// are never reused.
)

// CheckInfo describes one catalogue entry.
type CheckInfo struct {
	ID       CheckID
	Severity Severity
	Title    string
}

// Catalog lists every check in ID order.
func Catalog() []CheckInfo {
	return []CheckInfo{
		{CheckCaseWeights, SeverityError, "invalid case weights in a reachable marking"},
		{CheckWeightNormalization, SeverityWarning, "constant case weights do not sum to 1"},
		{CheckDeadPlace, SeverityWarning, "place never read by any gate, rate or weight"},
		{CheckStuckPlace, SeverityWarning, "place never written by any effect"},
		{CheckNeverEnabled, SeverityWarning, "activity enabled in no reachable marking"},
		{CheckInstantConflict, SeverityError, "equal-priority instantaneous activities enabled together"},
		{CheckGoalUnreachable, SeverityError, "goal place unreachable"},
		{CheckPanic, SeverityError, "marking function panicked during exploration"},
		{CheckInvalidRate, SeverityError, "invalid rate while enabled"},
		{CheckTruncated, SeverityWarning, "exploration truncated at MaxStates"},
		{CheckInstantLivelock, SeverityError, "instantaneous-activity livelock"},
	}
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Check is the stable check ID (e.g. "SAN003").
	Check CheckID `json:"check"`
	// Severity ranks the finding.
	Severity Severity `json:"severity"`
	// Object names the offending place or activity, when there is one.
	Object string `json:"object,omitempty"`
	// Message is the human-readable explanation.
	Message string `json:"message"`
	// Marking is a compact witness marking, when the finding has one.
	Marking string `json:"marking,omitempty"`
}

// String renders the diagnostic in a grep-friendly single line.
func (d Diagnostic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s:", d.Check, d.Severity)
	if d.Object != "" {
		fmt.Fprintf(&b, " %s:", d.Object)
	}
	b.WriteByte(' ')
	b.WriteString(d.Message)
	if d.Marking != "" {
		fmt.Fprintf(&b, " [witness %s]", d.Marking)
	}
	return b.String()
}

// Config tunes a lint run.
type Config struct {
	// MaxStates bounds the explored stable markings; 0 means 20000. When
	// the bound is hit the report is marked Truncated and absence-based
	// checks are suppressed (SAN010).
	MaxStates int
	// Observed lists places that are read only by external measures (not
	// by the model itself) and are therefore exempt from the dead-place
	// check, e.g. cumulative outcome counters.
	Observed []string
	// Goals lists places that must become marked in some reachable marking
	// (SAN007). Markings with a marked goal place are treated as absorbing,
	// exactly like ExploreOptions.Absorb in the exact CTMC solver.
	Goals []string
}

// Report is the outcome of linting one model.
type Report struct {
	// Model is the linted model's name.
	Model string `json:"model"`
	// States is the number of stable markings explored.
	States int `json:"states"`
	// Truncated reports whether exploration hit MaxStates.
	Truncated bool `json:"truncated"`
	// Diagnostics holds the findings, errors first.
	Diagnostics []Diagnostic `json:"diagnostics"`
}

// Errors returns the number of error-severity findings.
func (r *Report) Errors() int { return r.countAtLeast(SeverityError) }

// HasErrors reports whether any error-severity finding was made.
func (r *Report) HasErrors() bool { return r.Errors() > 0 }

// Clean reports whether the run produced no findings at all.
func (r *Report) Clean() bool { return len(r.Diagnostics) == 0 }

func (r *Report) countAtLeast(s Severity) int {
	n := 0
	for _, d := range r.Diagnostics {
		if d.Severity >= s {
			n++
		}
	}
	return n
}

// Text renders the report for terminals: a header line and one line per
// finding.
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d states explored", r.Model, r.States)
	if r.Truncated {
		b.WriteString(" (truncated)")
	}
	if r.Clean() {
		b.WriteString(": ok\n")
		return b.String()
	}
	fmt.Fprintf(&b, ": %d finding(s)\n", len(r.Diagnostics))
	for _, d := range r.Diagnostics {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}

// sortDiagnostics orders findings errors-first, then by check, object and
// message, giving deterministic output.
func (r *Report) sortDiagnostics() {
	sort.SliceStable(r.Diagnostics, func(i, j int) bool {
		a, b := r.Diagnostics[i], r.Diagnostics[j]
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		if a.Object != b.Object {
			return a.Object < b.Object
		}
		return a.Message < b.Message
	})
}

// Run lints the model: it explores the bounded marking graph from the
// initial marking, tracing place accesses and validating weights and rates
// along the way, then applies the whole-model absence checks. The returned
// error reports misuse of the configuration (an unknown place name), never
// a model defect — defects are Diagnostics.
func Run(model *san.Model, cfg Config) (*Report, error) {
	if cfg.MaxStates <= 0 {
		cfg.MaxStates = 20_000
	}
	l := &linter{
		model:  model,
		cfg:    cfg,
		report: &Report{Model: model.Name()},
		dedup:  make(map[string]struct{}),
		rec:    newRecorder(model),
		weight: make(map[string]*weightRecord),
	}
	observed := make(map[san.PlaceID]bool)
	for _, name := range cfg.Observed {
		id, ok := model.PlaceByName(name)
		if !ok {
			return nil, fmt.Errorf("sanlint: observed place %q not in model %q", name, model.Name())
		}
		observed[id] = true
	}
	for _, name := range cfg.Goals {
		id, ok := model.PlaceByName(name)
		if !ok {
			return nil, fmt.Errorf("sanlint: goal place %q not in model %q", name, model.Name())
		}
		l.goals = append(l.goals, id)
	}
	l.goalReached = make([]bool, len(l.goals))
	l.observed = observed

	if err := l.explore(); err != nil {
		return nil, err
	}
	l.absenceChecks()
	l.normalizationChecks()
	l.report.sortDiagnostics()
	return l.report, nil
}
