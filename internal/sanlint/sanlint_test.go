package sanlint

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ahs/internal/san"
)

// mustBuild builds a test model, failing the test on builder errors.
func mustBuild(t *testing.T, b *san.Builder) *san.Model {
	t.Helper()
	m, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return m
}

// cleanModel is a two-place ping-pong: every place is read and written,
// both activities enable, nothing is probabilistic.
func cleanModel(t *testing.T) *san.Model {
	b := san.NewBuilder("clean")
	ping := b.Place("ping", 1)
	pong := b.Place("pong", 0)
	b.Timed(san.TimedActivity{
		Name: "go", Enabled: san.HasTokens(ping, 1),
		Rate: san.ConstRate(1), Input: san.Move(ping, pong, 1),
	})
	b.Timed(san.TimedActivity{
		Name: "back", Enabled: san.HasTokens(pong, 1),
		Rate: san.ConstRate(2), Input: san.Move(pong, ping, 1),
	})
	return mustBuild(t, b)
}

func TestCleanModelHasNoFindings(t *testing.T) {
	rep, err := Run(cleanModel(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("expected clean report, got:\n%s", rep.Text())
	}
	if rep.States != 2 {
		t.Fatalf("expected 2 states, got %d", rep.States)
	}
}

// brokenModel is one deliberately malformed model and the check its defect
// class must fire.
type brokenModel struct {
	name  string
	check CheckID
	cfg   Config
	build func(t *testing.T) *san.Model
}

// brokenModels lists one model per distinct defect class.
func brokenModels() []brokenModel {
	return []brokenModel{
		{
			name:  "negative case weight",
			check: CheckCaseWeights,
			build: func(t *testing.T) *san.Model {
				b := san.NewBuilder("bad-weight")
				p := b.Place("p", 1)
				b.Timed(san.TimedActivity{
					Name: "t", Enabled: san.HasTokens(p, 1), Rate: san.ConstRate(1),
					Cases: []san.Case{{Weight: san.ConstWeight(-0.5)}, {}},
				})
				return mustBuild(t, b)
			},
		},
		{
			name:  "constant weights not normalized",
			check: CheckWeightNormalization,
			build: func(t *testing.T) *san.Model {
				b := san.NewBuilder("unnormalized")
				p := b.Place("p", 1)
				b.Timed(san.TimedActivity{
					Name: "t", Enabled: san.HasTokens(p, 1), Rate: san.ConstRate(1),
					Cases: []san.Case{
						{Weight: san.ConstWeight(0.3)},
						{Weight: san.ConstWeight(0.5)},
					},
				})
				return mustBuild(t, b)
			},
		},
		{
			name:  "dead place",
			check: CheckDeadPlace,
			build: func(t *testing.T) *san.Model {
				b := san.NewBuilder("dead-place")
				p := b.Place("p", 1)
				b.Place("unused", 0)
				b.Timed(san.TimedActivity{
					Name: "t", Enabled: san.HasTokens(p, 1),
					Rate: san.ConstRate(1), Input: san.Consume(p, 1),
				})
				return mustBuild(t, b)
			},
		},
		{
			name:  "stuck-at-initial place",
			check: CheckStuckPlace,
			build: func(t *testing.T) *san.Model {
				b := san.NewBuilder("stuck-place")
				p := b.Place("p", 1)
				gate := b.Place("gate", 1) // read by the predicate, never written
				b.Timed(san.TimedActivity{
					Name: "t", Enabled: san.AllOf(san.HasTokens(p, 1), san.HasTokens(gate, 1)),
					Rate: san.ConstRate(1), Input: san.Consume(p, 1),
				})
				return mustBuild(t, b)
			},
		},
		{
			name:  "never-enabled activity",
			check: CheckNeverEnabled,
			build: func(t *testing.T) *san.Model {
				b := san.NewBuilder("never-enabled")
				p := b.Place("p", 1)
				b.Timed(san.TimedActivity{
					Name: "live", Enabled: san.HasTokens(p, 1),
					Rate: san.ConstRate(1), Input: san.Seq(san.Consume(p, 1), san.Produce(p, 1)),
				})
				b.Timed(san.TimedActivity{
					Name: "impossible", Enabled: san.HasTokens(p, 5), // p never exceeds 1
					Rate: san.ConstRate(1),
				})
				return mustBuild(t, b)
			},
		},
		{
			name:  "instantaneous conflict",
			check: CheckInstantConflict,
			build: func(t *testing.T) *san.Model {
				b := san.NewBuilder("instant-conflict")
				trigger := b.Place("trigger", 0)
				src := b.Place("src", 1)
				b.Timed(san.TimedActivity{
					Name: "arm", Enabled: san.HasTokens(src, 1),
					Rate: san.ConstRate(1), Input: san.Move(src, trigger, 1),
				})
				for _, name := range []string{"left", "right"} {
					b.Instant(san.InstantActivity{
						Name: name, Priority: 1,
						Enabled: san.HasTokens(trigger, 1),
						Input:   san.Consume(trigger, 1),
					})
				}
				return mustBuild(t, b)
			},
		},
		{
			name:  "unreachable goal",
			check: CheckGoalUnreachable,
			cfg:   Config{Goals: []string{"KO_total"}},
			build: func(t *testing.T) *san.Model {
				b := san.NewBuilder("unreachable-goal")
				p := b.Place("p", 1)
				b.Place("KO_total", 0) // nothing ever marks it
				b.Timed(san.TimedActivity{
					Name: "t", Enabled: san.HasTokens(p, 1),
					Rate: san.ConstRate(1), Input: san.Seq(san.Consume(p, 1), san.Produce(p, 1)),
				})
				return mustBuild(t, b)
			},
		},
		{
			name:  "effect panics on reachable marking",
			check: CheckPanic,
			build: func(t *testing.T) *san.Model {
				b := san.NewBuilder("panicking-effect")
				p := b.Place("p", 1)
				// Unguarded consume: fires again at p=0 and drives the
				// marking negative.
				b.Timed(san.TimedActivity{
					Name: "drain", Rate: san.ConstRate(1), Input: san.Consume(p, 1),
				})
				return mustBuild(t, b)
			},
		},
		{
			name:  "extended-place index out of range",
			check: CheckPanic,
			build: func(t *testing.T) *san.Model {
				b := san.NewBuilder("ext-index")
				queue := b.ExtPlace("queue", []int{7})
				p := b.Place("p", 1)
				b.Timed(san.TimedActivity{
					Name: "pop2", Enabled: san.HasTokens(p, 1), Rate: san.ConstRate(1),
					Input: func(mk *san.Marking) {
						mk.ExtRemoveAt(queue, 1) // queue only ever holds one element
					},
				})
				return mustBuild(t, b)
			},
		},
		{
			name:  "invalid rate while enabled",
			check: CheckInvalidRate,
			build: func(t *testing.T) *san.Model {
				b := san.NewBuilder("zero-rate")
				p := b.Place("p", 1)
				b.Timed(san.TimedActivity{
					Name: "t", Enabled: san.HasTokens(p, 1),
					Rate: func(*san.Marking) float64 { return 0 },
				})
				return mustBuild(t, b)
			},
		},
		{
			name:  "instantaneous livelock",
			check: CheckInstantLivelock,
			build: func(t *testing.T) *san.Model {
				b := san.NewBuilder("livelock")
				p := b.Place("p", 1)
				b.Instant(san.InstantActivity{
					Name: "spin", Enabled: san.HasTokens(p, 1), // never disables itself
				})
				return mustBuild(t, b)
			},
		},
		{
			name:  "truncated exploration",
			check: CheckTruncated,
			cfg:   Config{MaxStates: 10},
			build: func(t *testing.T) *san.Model {
				b := san.NewBuilder("unbounded")
				p := b.Place("counter", 0)
				b.Timed(san.TimedActivity{
					Name: "count", Rate: san.ConstRate(1), Input: san.Produce(p, 1),
				})
				return mustBuild(t, b)
			},
		},
	}
}

// brokenGolden renders a report as its text followed by its indented JSON.
func brokenGolden(t *testing.T, rep *Report) string {
	t.Helper()
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return rep.Text() + string(raw) + "\n"
}

// brokenGoldenPath names the golden report of one broken model.
func brokenGoldenPath(name string) string {
	return filepath.Join("testdata", "broken", strings.ReplaceAll(name, " ", "_")+".golden")
}

// TestBrokenModels feeds deliberately malformed models to the linter and
// asserts the advertised check ID fires for each distinct defect class. It
// also compares every full report, text and JSON, with a golden file under
// testdata/broken. The goldens were produced by an earlier implementation
// of the linter's walk and must not be edited: a refactoring of the walk
// has to reproduce every finding, witness and state count.
func TestBrokenModels(t *testing.T) {
	for _, tt := range brokenModels() {
		t.Run(tt.name, func(t *testing.T) {
			rep, err := Run(tt.build(t), tt.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !hasCheck(rep, tt.check) {
				t.Fatalf("expected %s to fire, got:\n%s", tt.check, rep.Text())
			}
			want, err := os.ReadFile(brokenGoldenPath(tt.name))
			if err != nil {
				t.Fatal(err)
			}
			if got := brokenGolden(t, rep); got != string(want) {
				t.Errorf("report differs from %s:\ngot:\n%s\nwant:\n%s", brokenGoldenPath(tt.name), got, want)
			}
		})
	}
}

func hasCheck(r *Report, id CheckID) bool {
	for _, d := range r.Diagnostics {
		if d.Check == id {
			return true
		}
	}
	return false
}

func TestObservedSuppressesDeadPlace(t *testing.T) {
	b := san.NewBuilder("counter")
	p := b.Place("p", 1)
	c := b.Place("events", 0)
	b.Timed(san.TimedActivity{
		Name: "t", Enabled: san.HasTokens(p, 1), Rate: san.ConstRate(1),
		// SetTokens-only update: the counter is written, never read.
		Input: func(mk *san.Marking) { mk.SetTokens(c, 1) },
	})
	m := mustBuild(t, b)

	rep, err := Run(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !hasCheck(rep, CheckDeadPlace) {
		t.Fatalf("expected SAN003 for write-only counter, got:\n%s", rep.Text())
	}
	rep, err = Run(m, Config{Observed: []string{"events"}})
	if err != nil {
		t.Fatal(err)
	}
	if hasCheck(rep, CheckDeadPlace) {
		t.Fatalf("Observed should suppress SAN003, got:\n%s", rep.Text())
	}
}

func TestGoalReachableIsClean(t *testing.T) {
	b := san.NewBuilder("goal-ok")
	p := b.Place("p", 1)
	goal := b.Place("goal", 0)
	b.Timed(san.TimedActivity{
		Name: "t", Enabled: san.HasTokens(p, 1),
		Rate: san.ConstRate(1), Input: san.Move(p, goal, 1),
	})
	rep, err := Run(mustBuild(t, b), Config{Goals: []string{"goal"}})
	if err != nil {
		t.Fatal(err)
	}
	if hasCheck(rep, CheckGoalUnreachable) {
		t.Fatalf("goal is reachable, got:\n%s", rep.Text())
	}
}

func TestUnknownConfigNamesRejected(t *testing.T) {
	m := cleanModel(t)
	if _, err := Run(m, Config{Observed: []string{"nope"}}); err == nil {
		t.Fatal("expected error for unknown observed place")
	}
	if _, err := Run(m, Config{Goals: []string{"nope"}}); err == nil {
		t.Fatal("expected error for unknown goal place")
	}
}

func TestReportJSONAndText(t *testing.T) {
	b := san.NewBuilder("fmt")
	p := b.Place("p", 1)
	b.Place("unused", 0)
	b.Timed(san.TimedActivity{
		Name: "t", Enabled: san.HasTokens(p, 1),
		Rate: san.ConstRate(1), Input: san.Consume(p, 1),
	})
	rep, err := Run(mustBuild(t, b), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() || rep.HasErrors() {
		t.Fatalf("expected warnings only, got:\n%s", rep.Text())
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"severity": "warning"`) && !strings.Contains(string(raw), `"severity":"warning"`) {
		t.Fatalf("severity should marshal as a string, got %s", raw)
	}
	if !strings.Contains(rep.Text(), "SAN003") {
		t.Fatalf("text should carry check IDs, got:\n%s", rep.Text())
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

func TestCatalogCoversAllDiagnosedChecks(t *testing.T) {
	ids := make(map[CheckID]bool)
	for _, c := range Catalog() {
		ids[c.ID] = true
	}
	for _, want := range []CheckID{
		CheckCaseWeights, CheckWeightNormalization, CheckDeadPlace, CheckStuckPlace,
		CheckNeverEnabled, CheckInstantConflict, CheckGoalUnreachable, CheckPanic,
		CheckInvalidRate, CheckTruncated, CheckInstantLivelock,
	} {
		if !ids[want] {
			t.Errorf("catalogue missing %s", want)
		}
	}
}
