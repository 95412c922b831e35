package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// LockLabelAnalyzer flags telemetry calls whose label values are not
// compile-time constants.
//
// Metric label values index live time-series families: every distinct value
// materialises a new child that lives for the process lifetime and is
// scraped forever after. A computed label — a formatted job ID, an error
// string, a marking summary — therefore turns a bounded family into an
// unbounded one, and the registry's lock-protected family maps degrade with
// cardinality. Labels must be locked down to a fixed vocabulary: string
// literals, named constants, or values the type checker can fold.
//
// Flagged calls:
//
//   - CounterVec/GaugeVec/HistogramVec.With(values...) — every value
//   - Sink.Add(metric, label, n) and Sink.Observe(metric, label, v) — the
//     label argument (the metric key is checked too: it names the family)
//
// Exempt: internal/telemetry itself (the collector fans bounded strategy
// labels through variables by design), test files, and sites carrying an
// //ahsvet:ignore locklabel directive with a reason — appropriate when a
// variable provably ranges over a small closed set, e.g. a strategy code.
var LockLabelAnalyzer = &Analyzer{
	Name: "locklabel",
	Doc:  "flag telemetry label values that are not compile-time constants (unbounded label cardinality)",
	Run:  runLockLabel,
}

// telemetryPkgSuffix identifies the instrumentation package, exempt as the
// one place allowed to route labels through variables.
const telemetryPkgSuffix = "internal/telemetry"

func runLockLabel(pass *Pass) error {
	if strings.HasSuffix(pass.PkgPath, telemetryPkgSuffix) {
		return nil
	}
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || !isTelemetryMethod(fn) {
				return true
			}
			var labels []ast.Expr
			switch fn.Name() {
			case "With":
				labels = call.Args
			case "Add", "Observe":
				// (metric, label, ...) — both strings key the family.
				if len(call.Args) >= 2 {
					labels = call.Args[:2]
				}
			}
			for _, arg := range labels {
				if isConstExpr(pass, arg) {
					continue
				}
				pass.Reportf(arg.Pos(), "non-constant telemetry label passed to %s: computed label values create unbounded metric cardinality; use a fixed vocabulary (or //ahsvet:ignore locklabel with a reason if the value ranges over a closed set)", fn.Name())
			}
			return true
		})
	}
	return nil
}

// isTelemetryMethod reports whether fn is one of the label-taking methods of
// the internal/telemetry package: the vec With constructors or the Sink
// interface's Add/Observe.
func isTelemetryMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !strings.HasSuffix(obj.Pkg().Path(), telemetryPkgSuffix) {
		return false
	}
	switch obj.Name() {
	case "CounterVec", "GaugeVec", "HistogramVec":
		return fn.Name() == "With"
	case "Sink":
		return fn.Name() == "Add" || fn.Name() == "Observe"
	}
	return false
}
