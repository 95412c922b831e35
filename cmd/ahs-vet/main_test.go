package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles ahs-vet into a temp dir once per test run and returns
// its path.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ahs-vet")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building ahs-vet: %v\n%s", err, out)
	}
	return bin
}

func TestVersionLine(t *testing.T) {
	bin := buildTool(t)
	out, err := exec.Command(bin, "-V=full").Output()
	if err != nil {
		t.Fatal(err)
	}
	// cmd/go's toolID parser requires "<progname> version <...>" and, for a
	// devel version, a trailing buildID= field.
	fields := strings.Fields(strings.TrimSpace(string(out)))
	if len(fields) < 3 || fields[0] != "ahs-vet" || fields[1] != "version" {
		t.Fatalf("malformed -V=full line: %q", out)
	}
	if fields[2] == "devel" && !strings.HasPrefix(fields[len(fields)-1], "buildID=") {
		t.Fatalf("devel version line must carry a buildID: %q", out)
	}
}

func TestFlagsJSON(t *testing.T) {
	bin := buildTool(t)
	out, err := exec.Command(bin, "-flags").Output()
	if err != nil {
		t.Fatal(err)
	}
	var defs []struct {
		Name  string
		Bool  bool
		Usage string
	}
	if err := json.Unmarshal(out, &defs); err != nil {
		t.Fatalf("-flags output is not the JSON array cmd/go expects: %v\n%s", err, out)
	}
	want := map[string]bool{"ahsrand": false, "ctxloop": false, "floateq": false, "locklabel": false, "json": false}
	for _, d := range defs {
		if _, ok := want[d.Name]; ok {
			want[d.Name] = true
			if !d.Bool {
				t.Errorf("flag %s must be boolean for cmd/go argument splitting", d.Name)
			}
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("-flags output missing %s", name)
		}
	}
}

func TestRejectsDirectInvocation(t *testing.T) {
	bin := buildTool(t)
	err := exec.Command(bin, "./...").Run()
	exit, ok := err.(*exec.ExitError)
	if !ok || exit.ExitCode() != 1 {
		t.Fatalf("want exit 1 on non-cfg argument, got %v", err)
	}
}

// TestRepoPassesOwnVet is the acceptance gate: the standard toolchain drives
// ahs-vet over this entire module via the unit-checker protocol and finds
// nothing.
func TestRepoPassesOwnVet(t *testing.T) {
	if testing.Short() {
		t.Skip("vets the whole module; skipped in -short")
	}
	bin := buildTool(t)
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool=ahs-vet ./... failed: %v\n%s", err, out)
	}
}

// TestVetFindsSeededViolations runs the toolchain-driven suite over a scratch
// module seeded with one violation per analyzer and asserts each fires.
func TestVetFindsSeededViolations(t *testing.T) {
	bin := buildTool(t)
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module scratch\n\ngo 1.21\n")
	// A fake instrumentation package: its import-path suffix matches the
	// locklabel exemption, so the variable label inside it must NOT fire.
	write("internal/telemetry/telemetry.go", `package telemetry

type Sink interface {
	Add(metric, label string, n uint64)
	Observe(metric, label string, v float64)
}

type fan struct{ sinks []Sink }

func (f *fan) Add(metric, label string, n uint64) {
	for _, s := range f.sinks {
		s.Add(metric, label, n)
	}
}
`)
	write("bad.go", `package scratch

import (
	"context"
	"math/rand"

	"scratch/internal/telemetry"
)

func Roll() int { return rand.Intn(6) }

func Burn(ctx context.Context, work func()) {
	for i := 0; i < 1000000; i++ {
		work()
	}
}

func Same(a, b float64) bool { return a == b }

func Fine(p float64) bool { return p == 0 } //ahsvet:ignore floateq (not needed: constant comparand)

func Leak(s telemetry.Sink, jobID string) {
	s.Add("jobs", jobID, 1)
}

func Bounded(s telemetry.Sink, strategy string) {
	s.Add("runs", strategy, 1) //ahsvet:ignore locklabel strategy ranges over the four paper codes
}
`)
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("expected findings to fail the vet run:\n%s", out)
	}
	for _, want := range []string{"ahsrand", "ctxloop", "floateq", "locklabel"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("vet output missing %s finding:\n%s", want, out)
		}
	}
	if strings.Count(string(out), "floateq") != 1 {
		t.Errorf("want exactly one floateq finding (constant comparand exempt):\n%s", out)
	}
	// Exactly one locklabel finding: the suppressed site and the exempt
	// telemetry package must stay quiet.
	if strings.Count(string(out), "locklabel:") != 1 {
		t.Errorf("want exactly one locklabel finding (directive and telemetry package exempt):\n%s", out)
	}
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(wd))
}
