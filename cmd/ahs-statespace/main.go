// Command ahs-statespace generates the exact continuous-time Markov chain
// underlying a (reduced) AHS configuration and solves the unsafety measure
// numerically by uniformization — the exact counterpart of the Monte-Carlo
// estimation, feasible for small platoons.
//
// Example:
//
//	ahs-statespace -n 1 -lambda 1e-3 -horizon 8 -points 4
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"

	"ahs"
	"ahs/internal/core"
	"ahs/internal/ctmc"
	"ahs/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ahs-statespace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ahs-statespace", flag.ContinueOnError)
	var (
		n         = fs.Int("n", 1, "maximum vehicles per platoon (keep small: the state space is exponential)")
		lambda    = fs.Float64("lambda", 1e-3, "base failure rate λ per hour")
		strategy  = fs.String("strategy", "DD", "coordination strategy: DD, DC, CD or CC")
		join      = fs.Float64("join", 0, "vehicle join rate per hour (0 disables)")
		leave     = fs.Float64("leave", 0, "vehicle leave rate per hour (0 disables)")
		change    = fs.Float64("change", 0, "platoon change rate per hour (0 disables)")
		horizon   = fs.Float64("horizon", 8, "longest trip duration in hours")
		points    = fs.Int("points", 4, "number of evenly spaced time points")
		maxStates = fs.Int("max-states", 500000, "abort if the reachable state space exceeds this")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	strat, err := ahs.ParseStrategy(*strategy)
	if err != nil {
		return err
	}

	p := core.DefaultParams()
	p.N = *n
	p.Lambda = *lambda
	p.Strategy = strat
	p.JoinRate = *join
	p.LeaveRate = *leave
	p.ChangeRate = *change
	p.TrackOutcomes = false // cumulative counters would make the chain infinite

	sys, err := core.Build(p)
	if err != nil {
		return err
	}

	g, err := ctmc.Explore(sys.Model, ctmc.ExploreOptions{
		Absorb:    sys.Unsafe,
		MaxStates: *maxStates,
	})
	if err != nil {
		return err
	}
	if err := g.CheckGeneratorConsistency(); err != nil {
		return err
	}
	unsafe := g.StatesWhere(sys.Unsafe)
	fmt.Fprintf(out, "model: %s\n", sys.Model.Name())
	fmt.Fprintf(out, "states: %d (unsafe: %d), transitions: %d\n",
		g.NumStates(), len(unsafe), g.NumTransitions())

	rows := make([][]string, 0, *points)
	for i := 1; i <= *points; i++ {
		t := *horizon * float64(i) / float64(*points)
		s, err := g.TransientProbability(t, sys.Unsafe)
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			strconv.FormatFloat(t, 'g', -1, 64),
			report.FormatProb(s),
		})
	}
	fmt.Fprint(out, report.Table([]string{"t (h)", "exact S(t)"}, rows))

	// Long-run characteristics of the catastrophe.
	pAbs, err := g.AbsorptionProbability(sys.Unsafe)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "eventual catastrophe probability: %s\n", report.FormatProb(pAbs))
	mttc, err := g.MeanTimeTo(sys.Unsafe)
	switch {
	case errors.Is(err, ctmc.ErrUnreachableTarget):
		fmt.Fprintln(out, "mean time to catastrophe: unreachable")
	case errors.Is(err, ctmc.ErrNotConverged):
		fmt.Fprintf(out, "mean time to catastrophe: not computed (%v)\n", err)
	case err != nil:
		return err
	case math.IsInf(mttc, 1):
		fmt.Fprintln(out, "mean time to catastrophe: infinite (the system can drain safely first)")
	default:
		fmt.Fprintf(out, "mean time to catastrophe: %.6g hours\n", mttc)
	}
	return nil
}
