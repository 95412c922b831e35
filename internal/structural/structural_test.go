package structural

import (
	"strings"
	"testing"

	"ahs/internal/san"
)

// ring builds the simplest conservative model: k tokens cycling A -> B -> A.
func ring(t *testing.T, tokens int) *san.Model {
	t.Helper()
	return ringWithRates(t, tokens, 1, 2)
}

// ringWithRates is ring with the rates of ab and ba given.
func ringWithRates(t *testing.T, tokens int, ab, ba float64) *san.Model {
	t.Helper()
	b := san.NewBuilder("ring")
	a := b.Place("A", tokens)
	bb := b.Place("B", 0)
	b.Timed(san.TimedActivity{
		Name:    "ab",
		Enabled: san.HasTokens(a, 1),
		Rate:    san.ConstRate(ab),
		Input:   san.Move(a, bb, 1),
	})
	b.Timed(san.TimedActivity{
		Name:    "ba",
		Enabled: san.HasTokens(bb, 1),
		Rate:    san.ConstRate(ba),
		Input:   san.Move(bb, a, 1),
	})
	m, err := b.Build()
	if err != nil {
		t.Fatalf("build ring: %v", err)
	}
	return m
}

func analyze(t *testing.T, m *san.Model, opts Options) *ModelFacts {
	t.Helper()
	f, err := Analyze(m, opts)
	if err != nil {
		t.Fatalf("Analyze(%s): %v", m.Name(), err)
	}
	return f
}

func TestRingInvariantAndBounds(t *testing.T) {
	f := analyze(t, ring(t, 2), Options{})
	if !f.Exhaustive {
		t.Fatal("ring walk should be exhaustive")
	}
	if f.StatesProbed != 3 { // (2,0) (1,1) (0,2)
		t.Errorf("StatesProbed = %d, want 3", f.StatesProbed)
	}
	if f.StateSpaceBound != "3" {
		t.Errorf("StateSpaceBound = %q, want 3", f.StateSpaceBound)
	}
	if len(f.Invariants) != 1 {
		t.Fatalf("Invariants = %+v, want exactly one (A+B=2)", f.Invariants)
	}
	inv := f.Invariants[0]
	if inv.Value != 2 || len(inv.Terms) != 2 {
		t.Errorf("invariant = %+v, want A+B = 2", inv)
	}
	for _, term := range inv.Terms {
		if term.Coeff != 1 {
			t.Errorf("invariant coefficient = %+v, want 1", term)
		}
	}
	for _, pf := range f.Places {
		if pf.CertifiedBound != 2 || pf.ObservedMax != 2 || pf.InvariantBound != 2 {
			t.Errorf("place fact %+v, want observed=certified=invariant bound 2", pf)
		}
	}
	// The ab/ba cycle is the single T-semiflow.
	if len(f.TSemiflows) != 1 || len(f.TSemiflows[0].Terms) != 2 {
		t.Errorf("TSemiflows = %+v, want the single ab/ba cycle", f.TSemiflows)
	}
}

func TestRingStiffness(t *testing.T) {
	f := analyze(t, ring(t, 1), Options{})
	s := f.Stiffness
	if s.MinRate != 1 || s.MaxRate != 2 || s.Spread != 2 {
		t.Errorf("stiffness = %+v, want min 1 (ab), max 2 (ba)", s)
	}
	if s.MinActivity != "ab" || s.MaxActivity != "ba" {
		t.Errorf("stiffness activities = %q/%q, want ab/ba", s.MinActivity, s.MaxActivity)
	}
	if s.Flagged {
		t.Error("spread 2 must not be flagged at the 1e6 threshold")
	}
	f = analyze(t, ringWithRates(t, 1, 1, 2e6), Options{})
	if !f.Stiffness.Flagged {
		t.Error("spread 2e6 must be flagged at the 1e6 threshold")
	}
}

func TestTruncatedWalkCertifiesNothing(t *testing.T) {
	f := analyze(t, ring(t, 2), Options{MaxStates: 1})
	if f.Exhaustive {
		t.Fatal("MaxStates=1 walk must not be exhaustive")
	}
	if f.StateSpaceBound != "unknown" {
		t.Errorf("StateSpaceBound = %q, want unknown", f.StateSpaceBound)
	}
	for _, pf := range f.Places {
		if pf.CertifiedBound != -1 {
			t.Errorf("truncated walk certified bound %+v", pf)
		}
	}
	if len(f.ConstantGates) != 0 || len(f.DeadArcs) != 0 {
		t.Error("truncated walk must not claim gate or dead-arc facts")
	}
}

// TestWalkContradictionsRefused feeds the self-check semiflow algebra
// that its walk contradicts, as an unsound elimination would produce it:
// a P-semiflow that a recorded column changes, and a semiflow bound below
// an observed maximum. Both are refused; the sound algebra passes.
func TestWalkContradictionsRefused(t *testing.T) {
	p := &prober{
		model:       ring(t, 2),
		dimNames:    []string{"A", "B"},
		variants:    map[string]int{"ab|0": 1},
		cols:        []column{{activity: "ab", delta: []int{-1, 1}}},
		observedMax: []int{2, 2},
	}
	if err := p.checkAlgebra([][]int{{1, 1}}, []int{2, 2}); err != nil {
		t.Fatalf("sound algebra refused: %v", err)
	}
	err := p.checkAlgebra([][]int{{1, 0}}, []int{2, -1})
	if err == nil || !strings.Contains(err.Error(), "P-semiflow 1*A changes by -1 when ab/0 fires") {
		t.Errorf("semiflow changed by a column: err = %v", err)
	}
	err = p.checkAlgebra([][]int{{1, 1}}, []int{1, 2})
	if err == nil || !strings.Contains(err.Error(), "semiflow bound 1 of A is below its observed maximum 2") {
		t.Errorf("bound below the observed maximum: err = %v", err)
	}
}

func TestConstantGateDetection(t *testing.T) {
	b := san.NewBuilder("gates")
	mode := b.Place("mode", 1) // never written: gates on it are constant
	work := b.Place("work", 1)
	done := b.Place("done", 0)
	b.Timed(san.TimedActivity{
		Name:    "run",
		Enabled: san.AllOf(san.HasTokens(mode, 1), san.HasTokens(work, 1)),
		Rate:    san.ConstRate(1),
		Input:   san.Move(work, done, 1),
	})
	b.Timed(san.TimedActivity{
		Name:    "blocked",
		Enabled: san.HasTokens(mode, 2), // constant false
		Rate:    san.ConstRate(1),
		Input:   san.Consume(mode, 1),
	})
	b.Timed(san.TimedActivity{
		Name:    "reset",
		Enabled: san.HasTokens(done, 1), // reads a written place: dynamic
		Rate:    san.ConstRate(1),
		Input:   san.Move(done, work, 1),
	})
	m, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	f := analyze(t, m, Options{})
	if !f.Exhaustive {
		t.Fatal("walk should be exhaustive")
	}
	got := map[string]bool{}
	for _, g := range f.ConstantGates {
		if g.Kind != "timed" {
			t.Errorf("gate %+v has kind %q, want timed", g, g.Kind)
		}
		got[g.Activity] = g.Enabled
	}
	// "run" reads mode (unwritten) AND work (written): not constant.
	// "blocked" reads only mode: constant false. "reset" reads done: dynamic.
	want := map[string]bool{"blocked": false}
	if len(got) != len(want) || got["blocked"] != false {
		t.Errorf("ConstantGates = %v, want %v", got, want)
	}
	// "blocked" never fires: it is also a dead arc.
	foundDead := false
	for _, d := range f.DeadArcs {
		if d.Activity == "blocked" && d.Case == -1 {
			foundDead = true
		}
	}
	if !foundDead {
		t.Errorf("DeadArcs = %+v, want blocked reported dead", f.DeadArcs)
	}
}

func TestDeadCaseDetection(t *testing.T) {
	b := san.NewBuilder("deadcase")
	a := b.Place("A", 1)
	bb := b.Place("B", 0)
	b.Timed(san.TimedActivity{
		Name:    "go",
		Enabled: san.HasTokens(a, 1),
		Rate:    san.ConstRate(1),
		Input:   san.Consume(a, 1),
		Cases: []san.Case{
			{Weight: san.ConstWeight(1), Output: san.Produce(bb, 1)},
			{Weight: san.ConstWeight(0), Output: san.Produce(bb, 2)},
		},
	})
	m, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	f := analyze(t, m, Options{})
	var dead []DeadArcFact
	for _, d := range f.DeadArcs {
		if d.Activity == "go" {
			dead = append(dead, d)
		}
	}
	if len(dead) != 1 || dead[0].Case != 1 {
		t.Errorf("DeadArcs = %+v, want exactly case 1 of go", f.DeadArcs)
	}
}

func TestExtPlaceLengthPseudoPlace(t *testing.T) {
	b := san.NewBuilder("ext")
	pool := b.Place("pool", 2)
	q := b.ExtPlace("queue", nil)
	b.Timed(san.TimedActivity{
		Name:    "enqueue",
		Enabled: san.HasTokens(pool, 1),
		Rate:    san.ConstRate(1),
		Input: func(mk *san.Marking) {
			mk.Add(pool, -1)
			mk.ExtAppend(q, mk.ExtLen(q))
		},
	})
	b.Timed(san.TimedActivity{
		Name: "dequeue",
		Enabled: func(mk *san.Marking) bool {
			return mk.ExtLen(q) > 0
		},
		Rate: san.ConstRate(1),
		Input: func(mk *san.Marking) {
			mk.ExtRemoveAt(q, 0)
			mk.Add(pool, 1)
		},
	})
	m, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	f := analyze(t, m, Options{})
	if !f.Exhaustive {
		t.Fatal("walk should be exhaustive")
	}
	lenFact := findPlace(t, f, "len(queue)")
	if lenFact.ObservedMax != 2 || lenFact.CertifiedBound != 2 {
		t.Errorf("len(queue) fact = %+v, want bound 2", lenFact)
	}
	// pool + len(queue) is conserved at 2.
	found := false
	for _, inv := range f.Invariants {
		names := make([]string, 0, len(inv.Terms))
		for _, term := range inv.Terms {
			names = append(names, term.Place)
		}
		if inv.Value == 2 && len(names) == 2 &&
			strings.Join(names, "+") == "pool+len(queue)" {
			found = true
		}
	}
	if !found {
		t.Errorf("Invariants = %+v, want pool+len(queue)=2", f.Invariants)
	}
}

func findPlace(t *testing.T, f *ModelFacts, name string) PlaceFact {
	t.Helper()
	for _, pf := range f.Places {
		if pf.Name == name {
			return pf
		}
	}
	t.Fatalf("place %q not in facts", name)
	return PlaceFact{}
}

// buildReplicated builds n identical single-token replicas, optionally
// skewing one replica's rate to break symmetry.
func buildReplicated(t *testing.T, n int, skew bool) *san.Model {
	t.Helper()
	b := san.NewBuilder("reps")
	b.Rep("cell", n, func(rb *san.Builder, i int) {
		idle := rb.Place("idle", 1)
		busy := rb.Place("busy", 0)
		rate := 1.0
		if skew && i == 0 {
			rate = 5.0
		}
		rb.Timed(san.TimedActivity{
			Name:    "start",
			Enabled: san.HasTokens(idle, 1),
			Rate:    san.ConstRate(rate),
			Input:   san.Move(idle, busy, 1),
		})
		rb.Timed(san.TimedActivity{
			Name:    "stop",
			Enabled: san.HasTokens(busy, 1),
			Rate:    san.ConstRate(2),
			Input:   san.Move(busy, idle, 1),
		})
	})
	m, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return m
}

func TestReplicaSymmetryDetected(t *testing.T) {
	f := analyze(t, buildReplicated(t, 3, false), Options{})
	rf := f.Replicas
	if rf == nil {
		t.Fatal("replica facts missing")
	}
	if rf.Replicas != 3 || !rf.Symmetric {
		t.Fatalf("replica facts = %+v, want 3 symmetric replicas", rf)
	}
	if rf.LocalStates != 2 {
		t.Errorf("LocalStates = %d, want 2 (idle/busy)", rf.LocalStates)
	}
	if rf.FullLocalProduct != "8" { // 2^3
		t.Errorf("FullLocalProduct = %q, want 8", rf.FullLocalProduct)
	}
	if rf.QuotientBound != "4" { // C(2+3-1, 3) = C(4,3)
		t.Errorf("QuotientBound = %q, want 4", rf.QuotientBound)
	}
	if len(rf.Families) != 2 { // place family "cell" and activity family "cell"
		// Families come from both dim names and activity names; the shared
		// base "cell" dedupes to one entry.
		t.Logf("families: %v", rf.Families)
	}
}

func TestReplicaAsymmetryDetected(t *testing.T) {
	f := analyze(t, buildReplicated(t, 3, true), Options{})
	rf := f.Replicas
	if rf == nil {
		t.Fatal("replica facts missing")
	}
	if rf.Symmetric {
		t.Error("skewed rate must break replica symmetry")
	}
}

func TestAbsorbStopsExpansion(t *testing.T) {
	m := ring(t, 2)
	bID, _ := m.PlaceByName("B")
	f := analyze(t, m, Options{
		Absorb: func(mk *san.Marking) bool { return mk.Tokens(bID) >= 1 },
	})
	// (2,0) expands; (1,1) and (0,2)... (0,2) is only reachable through
	// (1,1), which is absorbing, so the walk sees exactly 2 states.
	if f.StatesProbed != 2 {
		t.Errorf("StatesProbed = %d, want 2 with absorption at B>=1", f.StatesProbed)
	}
}

func TestPanickingEffectIsAnError(t *testing.T) {
	b := san.NewBuilder("broken")
	a := b.Place("A", 1)
	b.Timed(san.TimedActivity{
		Name:    "bad",
		Enabled: san.HasTokens(a, 1),
		Rate:    san.ConstRate(1),
		Input:   san.Consume(a, 2), // drives A negative: panics
	})
	m, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if _, err := Analyze(m, Options{}); err == nil {
		t.Fatal("Analyze must fail on a panicking effect")
	} else if !strings.Contains(err.Error(), "bad") {
		t.Errorf("error %q should name the offending activity", err)
	}
}

func TestFarkasAbandonsOnRowCap(t *testing.T) {
	f, err := analyzeCapped(ring(t, 2), Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Invariants) != 0 {
		t.Errorf("Invariants = %+v, want none when elimination is capped", f.Invariants)
	}
	// Bounds from the exhaustive walk survive without the algebra.
	for _, pf := range f.Places {
		if pf.CertifiedBound != 2 {
			t.Errorf("walk-certified bound lost: %+v", pf)
		}
		if pf.InvariantBound != -1 {
			t.Errorf("InvariantBound = %d, want -1 when capped", pf.InvariantBound)
		}
	}
}
