// Command ahs-lint statically verifies the structure of the AHS SAN models
// before any simulation budget is spent on them: case-weight normalization,
// dead or stuck places, activities that can never enable, instantaneous
// conflicts, and reachability of the absorbing KO_total place — each
// reported under a stable SAN0xx check ID (see docs/linting.md).
//
// By default it lints a reduced configuration (small n, as in
// ahs-statespace) of every coordination strategy of Table 3, because the
// bounded marking-graph exploration behind the whole-model checks must
// cover the reachable space exhaustively.
//
// Examples:
//
//	ahs-lint                      # lint DD, DC, CD and CC at n=1
//	ahs-lint -strategy CC -n 2    # one strategy, larger reduced model
//	ahs-lint -json                # machine-readable diagnostics
//	ahs-lint -checks              # print the check catalogue
//	ahs-lint -facts               # certified structural facts as JSON
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"ahs"
	"ahs/internal/core"
	"ahs/internal/sanlint"
	"ahs/internal/structural"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case errors.Is(err, errFindings):
		os.Exit(1)
	case err != nil:
		fmt.Fprintln(os.Stderr, "ahs-lint:", err)
		os.Exit(2)
	}
}

// errFindings distinguishes "the linter worked and found defects" from
// operational failures, so main can use distinct exit codes (1 vs 2).
var errFindings = errors.New("ahs-lint: findings reported")

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ahs-lint", flag.ContinueOnError)
	var (
		strategy  = fs.String("strategy", "all", "coordination strategy to lint: all, DD, DC, CD or CC")
		n         = fs.Int("n", 1, "maximum vehicles per platoon of the linted reduced model (keep small: whole-model checks need exhaustive exploration)")
		lanes     = fs.Int("lanes", 2, "number of lanes")
		phased    = fs.Bool("phased", false, "lint the phased-maneuver (coordination + execution) variant")
		maxStates = fs.Int("max-states", 50_000, "bound on explored stable markings; hitting it suppresses absence checks")
		jsonOut   = fs.Bool("json", false, "emit machine-readable JSON diagnostics")
		strict    = fs.Bool("strict", false, "exit non-zero on warnings too, not only errors")
		checks    = fs.Bool("checks", false, "print the check catalogue and exit")
		factsOut  = fs.Bool("facts", false, "emit certified structural model facts as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *checks {
		for _, c := range sanlint.Catalog() {
			fmt.Fprintf(out, "%s  %-7s  %s\n", c.ID, c.Severity, c.Title)
		}
		return nil
	}

	strategies := ahs.AllStrategies()
	if *strategy != "all" {
		s, err := ahs.ParseStrategy(*strategy)
		if err != nil {
			return err
		}
		strategies = strategies[:0]
		strategies = append(strategies, s)
	}

	base := core.DefaultParams().WithPlatoonSize(*n)
	base.Lanes = *lanes
	base.PhasedManeuvers = *phased
	// Cumulative outcome counters grow without bound and would truncate the
	// exploration immediately; lint the same reduced form the exact CTMC
	// solver uses.
	base.TrackOutcomes = false

	systems, err := core.BuildVariants(base, strategies)
	if err != nil {
		return err
	}

	if *factsOut {
		return emitFacts(out, systems, *maxStates)
	}

	reports := make([]*sanlint.Report, 0, len(systems))
	failed := false
	for _, sys := range systems {
		rep, err := sanlint.Run(sys.Model, sanlint.Config{
			MaxStates: *maxStates,
			Observed:  sys.ObservablePlaces(),
			Goals:     sys.GoalPlaces(),
		})
		if err != nil {
			return err
		}
		reports = append(reports, rep)
		if rep.HasErrors() || (*strict && !rep.Clean()) {
			failed = true
		}
		if !*jsonOut {
			fmt.Fprint(out, rep.Text())
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			return err
		}
	}
	if failed {
		return errFindings
	}
	return nil
}

// emitFacts computes the certified structural facts of every system,
// absorbing where the linter does (KO_total marked), and emits them as a
// deterministic JSON array.
func emitFacts(out io.Writer, systems []*core.AHS, maxStates int) error {
	all := make([]*structural.ModelFacts, 0, len(systems))
	for _, sys := range systems {
		facts, err := structural.Analyze(sys.Model, structural.Options{MaxStates: maxStates, Absorb: sys.Unsafe})
		if err != nil {
			return err
		}
		all = append(all, facts)
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(all)
}
