package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"

	"ahs"
	"ahs/internal/core"
	"ahs/internal/sanlint"
	"ahs/internal/structural"
)

// TestPaperModelsLintClean is the acceptance gate of the static
// verification layer: every coordination strategy of Table 3, built through
// the single audited core.Build path, produces zero findings — errors or
// warnings — on the reduced configuration the exact solver uses.
func TestPaperModelsLintClean(t *testing.T) {
	base := core.DefaultParams().WithPlatoonSize(1)
	base.TrackOutcomes = false
	systems, err := core.BuildVariants(base, ahs.AllStrategies())
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range systems {
		rep, err := sanlint.Run(sys.Model, sanlint.Config{
			MaxStates: 50_000,
			Observed:  sys.ObservablePlaces(),
			Goals:     sys.GoalPlaces(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Truncated {
			t.Fatalf("%s: exploration truncated; raise MaxStates", rep.Model)
		}
		if !rep.Clean() {
			t.Errorf("%s: expected zero findings, got:\n%s", rep.Model, rep.Text())
		}
	}
}

// TestPhasedVariantLintsClean covers the phased-maneuver model variant,
// which adds the coordination activity and phase place usage: all four
// strategies lint without a single finding, warnings included.
func TestPhasedVariantLintsClean(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-phased", "-strict"}, &out); err != nil {
		t.Fatalf("%v:\n%s", err, out.String())
	}
	if got := strings.Count(out.String(), ": ok\n"); got != 4 {
		t.Errorf("want four clean reports, got:\n%s", out.String())
	}
}

func TestRunAllStrategiesText(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, code := range []string{"DD", "DC", "CD", "CC"} {
		if !strings.Contains(text, "strategy="+code) {
			t.Errorf("output missing strategy %s:\n%s", code, text)
		}
	}
	if !strings.Contains(text, ": ok") {
		t.Errorf("expected clean reports, got:\n%s", text)
	}
}

func TestRunJSON(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-strategy", "DD", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var reports []sanlint.Report
	if err := json.Unmarshal(out.Bytes(), &reports); err != nil {
		t.Fatalf("invalid JSON output: %v\n%s", err, out.String())
	}
	if len(reports) != 1 || len(reports[0].Diagnostics) != 0 {
		t.Fatalf("expected one clean report, got %+v", reports)
	}
}

func TestRunChecksCatalogue(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-checks"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, c := range sanlint.Catalog() {
		if !strings.Contains(out.String(), string(c.ID)) {
			t.Errorf("catalogue output missing %s", c.ID)
		}
	}
}

func TestRunRejectsBadStrategy(t *testing.T) {
	if err := run([]string{"-strategy", "QQ"}, &bytes.Buffer{}); err == nil {
		t.Fatal("expected strategy parse error")
	}
}

// TestTruncationExitsZeroWithoutStrict asserts a truncated exploration (a
// warning, not an error) does not fail the lint run unless -strict.
func TestTruncationExitsZeroWithoutStrict(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-strategy", "DD", "-max-states", "50"}, &out); err != nil {
		t.Fatalf("warnings should not fail without -strict: %v", err)
	}
	if err := run([]string{"-strategy", "DD", "-max-states", "50", "-strict"}, &bytes.Buffer{}); err == nil {
		t.Fatal("-strict should fail on warnings")
	}
}

// TestFactsGolden pins the certified structural facts of all four paper
// models. A diff here means either an intended model change (regenerate with
// `go run ./cmd/ahs-lint -facts > cmd/ahs-lint/testdata/facts.golden`) or a
// regression in the structural analyzer.
func TestFactsGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-facts"}, &out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/facts.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("facts output differs from testdata/facts.golden (regenerate if the change is intended)\ngot %d bytes, want %d", out.Len(), len(want))
	}
	// The golden must cover every strategy and be certified.
	var facts []structural.ModelFacts
	if err := json.Unmarshal(want, &facts); err != nil {
		t.Fatalf("golden is not a facts array: %v", err)
	}
	if len(facts) != 4 {
		t.Fatalf("golden has %d models, want 4", len(facts))
	}
	for _, f := range facts {
		if !f.Exhaustive {
			t.Errorf("%s: golden facts not exhaustive", f.Model)
		}
		if n, err := strconv.Atoi(f.StateSpaceBound); err != nil || n <= 0 {
			t.Errorf("%s: no certified state bound", f.Model)
		}
	}
}
