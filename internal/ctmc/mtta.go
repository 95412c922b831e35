package ctmc

import (
	"errors"
	"fmt"
	"math"

	"ahs/internal/san"
)

// ErrUnreachableTarget is returned by MeanTimeTo when the target set cannot
// be reached from the initial state at all.
var ErrUnreachableTarget = errors.New("ctmc: target unreachable from initial state")

// ErrNotConverged is wrapped by the errors of iterative solves that reach
// their sweep limit before their tolerance.
var ErrNotConverged = errors.New("ctmc: iterative solve did not converge")

// canReach returns, for every state, whether the target set is reachable
// from it (backward breadth-first search over the transition graph).
func (g *Graph) canReach(target []bool) []bool {
	n := len(g.States)
	// Build the reverse adjacency once.
	reverse := make([][]int, n)
	for s, row := range g.rows {
		for _, a := range row {
			reverse[a.To] = append(reverse[a.To], s)
		}
	}
	reached := make([]bool, n)
	var queue []int
	for s := 0; s < n; s++ {
		if target[s] {
			reached[s] = true
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, p := range reverse[s] {
			if !reached[p] {
				reached[p] = true
				queue = append(queue, p)
			}
		}
	}
	return reached
}

// MeanTimeTo returns the expected time until the chain first enters a state
// satisfying pred, starting from the initial state. It returns +Inf when
// the chain can wander into a subgraph from which the target is
// unreachable (the absorption probability is below one), and
// ErrUnreachableTarget when the target cannot be reached at all.
//
// The linear system t_i = 1/E_i + Σ_j P_ij·t_j over transient states is
// solved by Gauss-Seidel iteration to solveTol relative, within maxSweeps
// sweeps.
func (g *Graph) MeanTimeTo(pred san.Predicate) (float64, error) { return g.meanTimeTo(pred, maxSweeps) }

func (g *Graph) meanTimeTo(pred san.Predicate, maxIter int) (float64, error) {
	n := len(g.States)
	target := make([]bool, n)
	anyTarget := false
	for i, mk := range g.States {
		if pred(mk) {
			target[i] = true
			anyTarget = true
		}
	}
	if target[g.Initial] {
		return 0, nil
	}
	if !anyTarget {
		return 0, ErrUnreachableTarget
	}
	reach := g.canReach(target)
	if !reach[g.Initial] {
		return 0, ErrUnreachableTarget
	}
	// If any state reachable from the initial state cannot reach the
	// target (e.g. an unrelated absorbing state), the first-passage time
	// is infinite with positive probability.
	if g.reachableCanMiss(target, reach) {
		return math.Inf(1), nil
	}

	t := make([]float64, n)
	for iter := 0; iter < maxIter; iter++ {
		maxDelta := 0.0
		for s := 0; s < n; s++ {
			if target[s] {
				continue
			}
			exit := g.exitRate[s]
			if exit == 0 {
				// Deadlock outside the target: unreachable branch, since
				// reachableCanMiss returned false.
				return 0, fmt.Errorf("ctmc: transient deadlock state %d", s)
			}
			sum := 0.0
			for _, a := range g.rows[s] {
				if !target[a.To] {
					sum += a.Rate * t[a.To]
				}
			}
			next := (1 + sum) / exit
			delta := math.Abs(next - t[s])
			if rel := math.Abs(next); rel > 1 {
				delta /= rel
			}
			if delta > maxDelta {
				maxDelta = delta
			}
			t[s] = next
		}
		if maxDelta < solveTol {
			return t[g.Initial], nil
		}
	}
	return 0, fmt.Errorf("%w: mean time to target after %d sweeps", ErrNotConverged, maxIter)
}

// reachableCanMiss reports whether a state reachable from the initial state
// cannot reach the target.
func (g *Graph) reachableCanMiss(target, reach []bool) bool {
	n := len(g.States)
	seen := make([]bool, n)
	queue := []int{g.Initial}
	seen[g.Initial] = true
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		if !reach[s] {
			return true
		}
		if target[s] {
			continue
		}
		for _, a := range g.rows[s] {
			if !seen[a.To] {
				seen[a.To] = true
				queue = append(queue, a.To)
			}
		}
	}
	return false
}

// AbsorptionProbability returns the probability that the chain, started in
// the initial state, ever enters a state satisfying pred (the t → ∞ limit
// of the transient probability). It is exactly 0 when no target state is
// reachable and exactly 1 when every state reachable from the initial one
// can still reach the target: a finite chain then cannot avoid it.
// Otherwise it is solved by Gauss-Seidel on p_i = Σ_j P_ij·p_j with p = 1
// on the target, to solveTol within maxSweeps sweeps.
func (g *Graph) AbsorptionProbability(pred san.Predicate) (float64, error) {
	return g.absorptionProbability(pred, maxSweeps)
}

func (g *Graph) absorptionProbability(pred san.Predicate, maxIter int) (float64, error) {
	n := len(g.States)
	target := make([]bool, n)
	for i, mk := range g.States {
		if pred(mk) {
			target[i] = true
		}
	}
	if target[g.Initial] {
		return 1, nil
	}
	reach := g.canReach(target)
	if !reach[g.Initial] {
		return 0, nil
	}
	if !g.reachableCanMiss(target, reach) {
		return 1, nil
	}
	p := make([]float64, n)
	for i := range p {
		if target[i] {
			p[i] = 1
		}
	}
	for iter := 0; iter < maxIter; iter++ {
		maxDelta := 0.0
		for s := 0; s < n; s++ {
			if target[s] || g.exitRate[s] == 0 {
				continue // absorbing: keeps its value (1 on target, 0 off)
			}
			sum := 0.0
			for _, a := range g.rows[s] {
				sum += a.Rate * p[a.To]
			}
			next := sum / g.exitRate[s]
			if d := math.Abs(next - p[s]); d > maxDelta {
				maxDelta = d
			}
			p[s] = next
		}
		if maxDelta < solveTol {
			return p[g.Initial], nil
		}
	}
	return 0, fmt.Errorf("%w: absorption probability after %d sweeps", ErrNotConverged, maxIter)
}
