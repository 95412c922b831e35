package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// fakeTelemetrySrc is a minimal stand-in for ahs/internal/telemetry: the
// source importer behind runSrc cannot resolve module-local packages, so the
// locklabel tests type-check this fake under the real import path and feed
// it to the checker of the code under test.
const fakeTelemetrySrc = `package telemetry
type Counter struct{}
func (c *Counter) Inc() {}
type CounterVec struct{}
func (v *CounterVec) With(values ...string) *Counter { return new(Counter) }
type GaugeVec struct{}
func (v *GaugeVec) With(values ...string) *Counter { return new(Counter) }
type HistogramVec struct{}
func (v *HistogramVec) With(values ...string) *Counter { return new(Counter) }
type Sink interface {
	Add(metric, label string, n uint64)
	Observe(metric, label string, v float64)
}
const MetricActivityFirings = "activity_firings"
`

// checkLockLabel type-checks src (which may import ahs/internal/telemetry,
// resolved to the fake above) and runs the locklabel analyzer over it.
func checkLockLabel(t *testing.T, pkgPath, fname, src string) []string {
	t.Helper()
	fset := token.NewFileSet()
	telFile, err := parser.ParseFile(fset, "telemetry.go", fakeTelemetrySrc, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	telConf := types.Config{}
	telPkg, err := telConf.Check("ahs/internal/telemetry", fset, []*ast.File{telFile}, nil)
	if err != nil {
		t.Fatalf("typecheck fake telemetry: %v", err)
	}

	file, err := parser.ParseFile(fset, fname, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if path == "ahs/internal/telemetry" {
			return telPkg, nil
		}
		return nil, fmt.Errorf("unexpected import %q", path)
	})}
	if _, err := conf.Check(pkgPath, fset, []*ast.File{file}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	var got []string
	pass := &Pass{
		Fset:      fset,
		Files:     []*ast.File{file},
		PkgPath:   pkgPath,
		TypesInfo: info,
		Report: func(d Diagnostic) {
			got = append(got, fmt.Sprintf("%d: %s", fset.Position(d.Pos).Line, d.Message))
		},
	}
	if err := LockLabelAnalyzer.Run(pass); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestLockLabel(t *testing.T) {
	bad := `package p
import "ahs/internal/telemetry"
func f(v *telemetry.CounterVec, s telemetry.Sink, label string) {
	v.With(label).Inc()
	s.Add("metric", label, 1)
	s.Observe(telemetry.MetricActivityFirings, label, 1)
}
`
	wantN(t, runSrc2(t, bad), 3, "non-constant telemetry label")

	// The second With value is the computed one; only it is flagged.
	mixed := `package p
import "ahs/internal/telemetry"
func f(v *telemetry.GaugeVec, site string) {
	v.With("fixed", site).Inc()
}
`
	got := runSrc2(t, mixed)
	wantN(t, got, 1, "non-constant telemetry label")

	for name, src := range map[string]string{
		"literal labels": `package p
import "ahs/internal/telemetry"
func f(v *telemetry.CounterVec, s telemetry.Sink) {
	v.With("route", "GET").Inc()
	s.Add("metric", "label", 1)
}
`,
		"named constants": `package p
import "ahs/internal/telemetry"
const site = "coordinator"
func f(v *telemetry.HistogramVec, s telemetry.Sink) {
	v.With(site).Inc()
	s.Observe(telemetry.MetricActivityFirings, site, 0.5)
}
`,
		"constant concatenation": `package p
import "ahs/internal/telemetry"
const prefix = "phase_"
func f(v *telemetry.CounterVec) {
	v.With(prefix + "join").Inc()
}
`,
		"unrelated With method": `package p
type other struct{}
func (o *other) With(values ...string) *other { return o }
func f(o *other, label string) {
	o.With(label)
}
`,
	} {
		if got := runSrc2(t, src); len(got) != 0 {
			t.Errorf("%s: want clean, got %v", name, got)
		}
	}

	// The instrumentation package itself and test files are exempt.
	if got := checkLockLabel(t, "ahs/internal/telemetry", "p.go", bad); len(got) != 0 {
		t.Errorf("internal/telemetry should be exempt, got %v", got)
	}
	if got := checkLockLabel(t, "ahs/internal/mc", "p_test.go", bad); len(got) != 0 {
		t.Errorf("test files should be exempt, got %v", got)
	}
}

// runSrc2 runs locklabel over src in a normal (non-exempt) package.
func runSrc2(t *testing.T, src string) []string {
	t.Helper()
	return checkLockLabel(t, "ahs/internal/mc", "p.go", src)
}
