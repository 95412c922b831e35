// Package ctmc converts exponential-only Stochastic Activity Networks into
// continuous-time Markov chains by reachability analysis and solves them
// numerically (transient solution by uniformization, steady state by power
// iteration, mean time to and probability of absorption by Gauss–Seidel).
// Its reachability walk (Walk) is also the one internal/structural and
// internal/sanlint run, each through its own hooks.
//
// The paper evaluates its models by simulation; this package provides the
// exact counterpart on reduced state spaces, used to validate the simulator
// in internal/sim (and usable on its own for small AHS configurations).
package ctmc

import (
	"errors"
	"fmt"
	"math"

	"ahs/internal/san"
)

// ErrStateSpaceTooLarge is wrapped by the fault of a new state beyond
// MaxStates.
var ErrStateSpaceTooLarge = errors.New("ctmc: state space exceeds MaxStates")

// Arc is one rate transition of the generator matrix.
type Arc struct {
	To   int
	Rate float64
}

// Graph is the reachability graph of a SAN: a CTMC over stable markings
// (markings with no enabled instantaneous activity).
type Graph struct {
	// States holds one representative marking per state.
	States []*san.Marking
	// Initial is the index of the initial stable state.
	Initial int

	rows     [][]Arc
	exitRate []float64
}

// ExploreOptions bounds a reachability walk.
type ExploreOptions struct {
	// MaxStates bounds the kept stable states; 0 means 200000.
	MaxStates int
	// Absorb, when non-nil, marks matching states absorbing: their
	// outgoing transitions are dropped. Use it to compute first-passage
	// ("unsafety") measures as transient probabilities.
	Absorb san.Predicate
}

// Explore builds the CTMC reachable from the model's initial marking: the
// stable states of Walk and the arcs between them, parallel arcs merged.
// Every timed activity must be exponential, and the initial marking must
// stabilise into a single state.
func Explore(model *san.Model, opts ExploreOptions) (*Graph, error) {
	for i := 0; i < model.NumTimed(); i++ {
		if act := model.Timed(i); !act.Exponential() {
			return nil, fmt.Errorf("ctmc: timed activity %q is not exponential", act.Name)
		}
	}
	g := &Graph{}
	r, err := Walk(model, opts, Hooks{
		State: func(_ int, mk *san.Marking) {
			g.States = append(g.States, mk)
			g.rows = append(g.rows, nil)
		},
		Arc: g.addArc,
	})
	if err != nil {
		return nil, err
	}
	if r.Initial != 1 {
		return nil, fmt.Errorf("ctmc: initial marking stabilizes into %d states; probabilistic initialisation is not supported", r.Initial)
	}
	g.finish()
	return g, nil
}

func (g *Graph) addArc(from, to int, rate float64) {
	if rate <= 0 {
		return
	}
	// Merge parallel arcs.
	for i := range g.rows[from] {
		if g.rows[from][i].To == to {
			g.rows[from][i].Rate += rate
			return
		}
	}
	g.rows[from] = append(g.rows[from], Arc{To: to, Rate: rate})
}

func (g *Graph) finish() {
	g.exitRate = make([]float64, len(g.States))
	for s, row := range g.rows {
		for _, a := range row {
			g.exitRate[s] += a.Rate
		}
	}
}

// NumStates returns the number of stable states.
func (g *Graph) NumStates() int { return len(g.States) }

// NumTransitions returns the number of distinct rate transitions.
func (g *Graph) NumTransitions() int {
	n := 0
	for _, row := range g.rows {
		n += len(row)
	}
	return n
}

// Arcs returns the outgoing transitions of state s. The slice aliases
// internal storage and must not be modified.
func (g *Graph) Arcs(s int) []Arc { return g.rows[s] }

// StatesWhere returns the indices of states whose marking satisfies pred.
func (g *Graph) StatesWhere(pred san.Predicate) []int {
	var out []int
	for i, mk := range g.States {
		if pred(mk) {
			out = append(out, i)
		}
	}
	return out
}

// The numerical solves stop at these accuracies: uniformization once the
// Poisson weights summed reach 1 − truncationEps, iterative solves once a
// sweep changes no value by more than solveTol (relative, for mean times)
// or after maxSweeps sweeps.
const (
	truncationEps = 1e-12
	solveTol      = 1e-12
	maxSweeps     = 1_000_000
)

// TransientDistribution returns the state probability vector at time t,
// starting from the initial state, computed by uniformization.
func (g *Graph) TransientDistribution(t float64) ([]float64, error) {
	if t < 0 {
		return nil, fmt.Errorf("ctmc: negative time %v", t)
	}
	n := len(g.States)
	pi := make([]float64, n)
	pi[g.Initial] = 1
	if t == 0 {
		return pi, nil
	}

	lambda := 0.0
	for _, r := range g.exitRate {
		if r > lambda {
			lambda = r
		}
	}
	if lambda == 0 {
		return pi, nil // no activity anywhere: distribution is frozen
	}
	lambda *= 1.02 // keep self-loop probability positive (aperiodicity)

	lt := lambda * t
	kmax := int(lt + 10*math.Sqrt(lt) + 50)

	result := make([]float64, n)
	cur := pi
	next := make([]float64, n)
	accumulated := 0.0
	for k := 0; ; k++ {
		w := poissonPMF(lt, k)
		if w > 0 {
			for i, p := range cur {
				result[i] += w * p
			}
			accumulated += w
		}
		if accumulated >= 1-truncationEps || k >= kmax {
			break
		}
		g.stepUniformized(cur, next, lambda)
		cur, next = next, cur
	}
	// Renormalise the truncation remainder.
	if accumulated > 0 && accumulated < 1 {
		for i := range result {
			result[i] /= accumulated
		}
	}
	return result, nil
}

// stepUniformized computes next = cur · P where P = I + Q/lambda.
func (g *Graph) stepUniformized(cur, next []float64, lambda float64) {
	for i := range next {
		next[i] = 0
	}
	for s, p := range cur {
		if p == 0 {
			continue
		}
		stay := 1 - g.exitRate[s]/lambda
		next[s] += p * stay
		for _, a := range g.rows[s] {
			next[a.To] += p * a.Rate / lambda
		}
	}
}

// TransientProbability returns the probability that the chain is in a state
// satisfying pred at time t. With absorbing target states (see
// ExploreOptions.Absorb) this is the first-passage CDF.
func (g *Graph) TransientProbability(t float64, pred san.Predicate) (float64, error) {
	dist, err := g.TransientDistribution(t)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for i, p := range dist {
		if p > 0 && pred(g.States[i]) {
			total += p
		}
	}
	return total, nil
}

// SteadyState returns the long-run state distribution computed by power
// iteration on the uniformized chain. It returns an error if the iteration
// does not converge to solveTol within maxSweeps iterations. The result is
// meaningful only for models with a single recurrent class.
func (g *Graph) SteadyState() ([]float64, error) { return g.steadyState(maxSweeps) }

func (g *Graph) steadyState(maxIter int) ([]float64, error) {
	n := len(g.States)
	lambda := 0.0
	for _, r := range g.exitRate {
		if r > lambda {
			lambda = r
		}
	}
	if lambda == 0 {
		pi := make([]float64, n)
		pi[g.Initial] = 1
		return pi, nil
	}
	lambda *= 1.02
	cur := make([]float64, n)
	next := make([]float64, n)
	for i := range cur {
		cur[i] = 1 / float64(n)
	}
	for iter := 0; iter < maxIter; iter++ {
		g.stepUniformized(cur, next, lambda)
		diff := 0.0
		for i := range next {
			diff += math.Abs(next[i] - cur[i])
		}
		cur, next = next, cur
		if diff < solveTol {
			return cur, nil
		}
	}
	return nil, fmt.Errorf("ctmc: steady state did not converge in %d iterations", maxIter)
}

// poissonPMF returns the Poisson(k; mean) probability computed in log space
// so that large means do not underflow prematurely.
func poissonPMF(mean float64, k int) float64 {
	if mean == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	lg, _ := math.Lgamma(float64(k) + 1)
	return math.Exp(-mean + float64(k)*math.Log(mean) - lg)
}

// CheckGeneratorConsistency verifies structural invariants of the graph:
// non-negative rates, arcs pointing to valid states and exit rates matching
// row sums. It is used by tests and by cmd/ahs-statespace.
func (g *Graph) CheckGeneratorConsistency() error {
	for s, row := range g.rows {
		sum := 0.0
		for _, a := range row {
			if a.To < 0 || a.To >= len(g.States) {
				return fmt.Errorf("ctmc: state %d has arc to invalid state %d", s, a.To)
			}
			if a.Rate <= 0 {
				return fmt.Errorf("ctmc: state %d has non-positive arc rate %v", s, a.Rate)
			}
			sum += a.Rate
		}
		if math.Abs(sum-g.exitRate[s]) > 1e-9*math.Max(1, sum) {
			return fmt.Errorf("ctmc: state %d exit rate %v != row sum %v", s, g.exitRate[s], sum)
		}
	}
	return nil
}
