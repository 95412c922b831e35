package sanlint

import (
	"strings"
	"testing"

	"ahs/internal/san"
	"ahs/internal/structural"
)

// factsFor computes exhaustive structural facts for a test model.
func factsFor(t *testing.T, m *san.Model) *structural.ModelFacts {
	t.Helper()
	f, err := structural.Analyze(m, structural.Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if !f.Exhaustive {
		t.Fatal("test model facts must be exhaustive")
	}
	return f
}

func TestFactsCrossValidationClean(t *testing.T) {
	m := cleanModel(t)
	rep, err := Run(m, Config{Facts: factsFor(t, m)})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("self-consistent facts must lint clean, got:\n%s", rep.Text())
	}
}

func TestFactsForWrongModelRejected(t *testing.T) {
	facts := factsFor(t, cleanModel(t))
	b := san.NewBuilder("other")
	p := b.Place("p", 1)
	b.Timed(san.TimedActivity{
		Name: "t", Enabled: san.HasTokens(p, 1),
		Rate: san.ConstRate(1), Input: san.Consume(p, 1),
	})
	if _, err := Run(mustBuild(t, b), Config{Facts: facts}); err == nil {
		t.Fatal("facts for a different model must be a configuration error")
	}
}

func TestBoundViolationSAN012(t *testing.T) {
	m := cleanModel(t)
	facts := factsFor(t, m)
	// Forge a tighter bound than reality: ping reaches 1, claim 0.
	for i := range facts.Places {
		if facts.Places[i].Name == "ping" {
			facts.Places[i].CertifiedBound = 0
		}
	}
	rep, err := Run(m, Config{Facts: facts})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range rep.Diagnostics {
		if d.Check == CheckBoundViolation && d.Object == "ping" {
			found = true
			if d.Marking == "" {
				t.Error("SAN012 must carry a witness marking")
			}
		}
	}
	if !found {
		t.Fatalf("want SAN012 for ping, got:\n%s", rep.Text())
	}
}

func TestNonConservativeSAN013(t *testing.T) {
	// A model that strictly grows: gen produces tokens without consuming.
	b := san.NewBuilder("growing")
	p := b.Place("p", 0)
	cap_ := b.Place("cap", 3)
	b.Timed(san.TimedActivity{
		Name: "gen", Enabled: san.HasTokens(cap_, 1),
		Rate: san.ConstRate(1), Input: san.Seq(san.Consume(cap_, 1), san.Produce(p, 2)),
	})
	m := mustBuild(t, b)
	facts := factsFor(t, m)
	// Forge an invariant the model does not satisfy: p + cap constant.
	facts.Invariants = append(facts.Invariants, structural.Invariant{
		Terms: []structural.Term{{Place: "p", Coeff: 1}, {Place: "cap", Coeff: 1}},
		Value: 3,
	})
	rep, err := Run(m, Config{Facts: facts, Observed: []string{"p"}})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range rep.Diagnostics {
		if d.Check == CheckNonConservative {
			found = true
			if !strings.Contains(d.Object, "p") || d.Marking == "" {
				t.Errorf("SAN013 diagnostic incomplete: %+v", d)
			}
		}
	}
	if !found {
		t.Fatalf("want SAN013, got:\n%s", rep.Text())
	}
}

func TestGenuineInvariantsPassSAN013(t *testing.T) {
	// The real facts of the growing model contain genuine invariants
	// (e.g. 2*cap + p = 6); they must hold during exploration.
	b := san.NewBuilder("growing2")
	p := b.Place("p", 0)
	cap_ := b.Place("cap", 3)
	b.Timed(san.TimedActivity{
		Name: "gen", Enabled: san.HasTokens(cap_, 1),
		Rate: san.ConstRate(1), Input: san.Seq(san.Consume(cap_, 1), san.Produce(p, 2)),
	})
	m := mustBuild(t, b)
	facts := factsFor(t, m)
	if len(facts.Invariants) == 0 {
		t.Fatal("expected at least one genuine invariant (2*cap + p)")
	}
	rep, err := Run(m, Config{Facts: facts, Observed: []string{"p"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.Diagnostics {
		if d.Check == CheckNonConservative || d.Check == CheckBoundViolation {
			t.Errorf("genuine facts must not fire %s: %s", d.Check, d)
		}
	}
}

func TestStiffnessSAN014(t *testing.T) {
	b := san.NewBuilder("stiff")
	a := b.Place("a", 1)
	bb := b.Place("b", 0)
	b.Timed(san.TimedActivity{
		Name: "slow", Enabled: san.HasTokens(a, 1),
		Rate: san.ConstRate(1e-6), Input: san.Move(a, bb, 1),
	})
	b.Timed(san.TimedActivity{
		Name: "fast", Enabled: san.HasTokens(bb, 1),
		Rate: san.ConstRate(10), Input: san.Move(bb, a, 1),
	})
	m := mustBuild(t, b)
	facts := factsFor(t, m)
	if !facts.Stiffness.Flagged {
		t.Fatalf("spread %v must be flagged", facts.Stiffness.Spread)
	}

	rep, err := Run(m, Config{Facts: facts})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range rep.Diagnostics {
		if d.Check == CheckStiffness {
			found = true
			if d.Severity != SeverityWarning {
				t.Errorf("SAN014 severity = %v, want warning", d.Severity)
			}
			if !strings.Contains(d.Message, "slow") || !strings.Contains(d.Message, "fast") {
				t.Errorf("SAN014 message should name both extreme activities: %s", d.Message)
			}
		}
	}
	if !found {
		t.Fatalf("want SAN014, got:\n%s", rep.Text())
	}

	// SAN014 follows the facts' flag, the one stiffness threshold.
	facts.Stiffness.Flagged = false
	rep, err = Run(m, Config{Facts: facts})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.Diagnostics {
		if d.Check == CheckStiffness {
			t.Errorf("SAN014 must follow Stiffness.Flagged: %s", d)
		}
	}
}

func TestWithoutFactsNoFactsChecks(t *testing.T) {
	// The facts-driven checks must not fire on a default config, keeping
	// the existing pinned-clean behaviour of the paper models intact.
	rep, err := Run(cleanModel(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.Diagnostics {
		switch d.Check {
		case CheckBoundViolation, CheckNonConservative, CheckStiffness:
			t.Errorf("facts check %s fired without Config.Facts: %s", d.Check, d)
		}
	}
}

func TestTruncatedFactsCertifyNothing(t *testing.T) {
	m := cleanModel(t)
	facts, err := structural.Analyze(m, structural.Options{MaxStates: 1})
	if err != nil {
		t.Fatal(err)
	}
	if facts.Exhaustive {
		t.Fatal("facts should be truncated")
	}
	// Truncated facts must not produce SAN012/SAN013 even though the
	// linter's own walk visits states the facts walk never saw.
	rep, err := Run(m, Config{Facts: facts})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.Diagnostics {
		if d.Check == CheckBoundViolation || d.Check == CheckNonConservative {
			t.Errorf("truncated facts fired %s: %s", d.Check, d)
		}
	}
}

// TestTruncationSummaryNamesSuppressedChecks pins the SAN010 message
// listing the suppressed check IDs, so operators can see which checks were
// cut off.
func TestTruncationSummaryNamesSuppressedChecks(t *testing.T) {
	rep, err := Run(cleanModel(t), Config{MaxStates: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated {
		t.Fatal("MaxStates=1 must truncate")
	}
	var msg string
	for _, d := range rep.Diagnostics {
		if d.Check == CheckTruncated {
			msg = d.Message
		}
	}
	if msg == "" {
		t.Fatalf("want SAN010, got:\n%s", rep.Text())
	}
	for _, id := range []CheckID{CheckDeadPlace, CheckStuckPlace, CheckNeverEnabled, CheckGoalUnreachable} {
		if !strings.Contains(msg, string(id)) {
			t.Errorf("SAN010 message %q does not name suppressed check %s", msg, id)
		}
	}
}
