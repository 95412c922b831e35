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

// maxDirectUnknowns is the largest number of unknowns that solve
// eliminates densely; the matrix then takes at most 32 MiB.
const maxDirectUnknowns = 2048

// MeanTimeTo returns the expected time until the chain first enters a state
// satisfying pred, starting from the initial state. It returns +Inf when
// the chain can wander into a subgraph from which the target is
// unreachable (the absorption probability is below one), and
// ErrUnreachableTarget when the target cannot be reached at all.
//
// The linear system t_i = 1/E_i + Σ_j P_ij·t_j over the transient
// states, with t = 0 on the target, is solved by dense elimination up to
// maxDirectUnknowns unknowns, which stiff chains need, and by Gauss-Seidel
// above that.
func (g *Graph) MeanTimeTo(pred san.Predicate) (float64, error) {
	return g.meanTimeTo(pred, maxDirectUnknowns, maxSweeps)
}

func (g *Graph) meanTimeTo(pred san.Predicate, maxDirect, maxIter int) (float64, error) {
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
	t, err := g.meanTimes(target, maxDirect, maxIter)
	if err != nil {
		return 0, err
	}
	return t[g.Initial], nil
}

// meanTimes returns every state's mean time to the target (0 on it).
func (g *Graph) meanTimes(target []bool, maxDirect, maxIter int) ([]float64, error) {
	unknown := make([]bool, len(target))
	for s, isTarget := range target {
		if isTarget {
			continue
		}
		if g.exitRate[s] == 0 {
			// Deadlock outside the target: unreachable branch, since
			// reachableCanMiss returned false.
			return nil, fmt.Errorf("ctmc: transient deadlock state %d", s)
		}
		unknown[s] = true
	}
	t := make([]float64, len(target))
	if err := g.solve(t, unknown, 1, maxDirect, maxIter); err != nil {
		return nil, fmt.Errorf("mean time to target: %w", err)
	}
	return t, nil
}

// solve solves E_s·x_s − Σ_j r_sj·x_j = rhs for the states s marked
// unknown, with j over all states and x held at its given values on the
// others, and stores the solution in x. Every unknown state must be able
// to reach a state outside the unknown set, so that the system is
// nonsingular. With at most maxDirect unknowns it eliminates with partial
// pivoting on a dense matrix, skipping the zero entries that the chain's
// sparsity leaves below the pivots. Otherwise it runs Gauss-Seidel sweeps
// x_s = (rhs + Σ_j r_sj·x_j)/E_s until a sweep changes no x_s by more than
// solveTol (relative where |x_s| > 1), within maxIter sweeps.
func (g *Graph) solve(x []float64, unknown []bool, rhs float64, maxDirect, maxIter int) error {
	states := make([]int, 0, len(x)) // state of each unknown
	for s, u := range unknown {
		if u {
			states = append(states, s)
		}
	}
	m := len(states)
	if m > maxDirect {
		for iter := 0; iter < maxIter; iter++ {
			maxDelta := 0.0
			for _, s := range states {
				sum := 0.0
				for _, a := range g.rows[s] {
					sum += a.Rate * x[a.To]
				}
				next := (rhs + sum) / g.exitRate[s]
				delta := math.Abs(next - x[s])
				if rel := math.Abs(next); rel > 1 {
					delta /= rel
				}
				maxDelta = max(maxDelta, delta)
				x[s] = next
			}
			if maxDelta < solveTol {
				return nil
			}
		}
		return fmt.Errorf("%w after %d sweeps", ErrNotConverged, maxIter)
	}
	col := make([]int, len(x)) // unknown of each state
	for k, s := range states {
		col[s] = k
	}
	a := make([]float64, m*m)
	b := make([]float64, m)
	for k, s := range states {
		row := a[k*m : (k+1)*m]
		row[k] += g.exitRate[s]
		b[k] = rhs
		for _, arc := range g.rows[s] {
			if unknown[arc.To] {
				row[col[arc.To]] -= arc.Rate
			} else {
				b[k] += arc.Rate * x[arc.To]
			}
		}
	}
	for c := 0; c < m; c++ {
		p := c
		for r := c + 1; r < m; r++ {
			if math.Abs(a[r*m+c]) > math.Abs(a[p*m+c]) {
				p = r
			}
		}
		if a[p*m+c] == 0 {
			return fmt.Errorf("ctmc: singular system at state %d", states[c])
		}
		pivot := a[c*m : (c+1)*m]
		if p != c {
			other := a[p*m : (p+1)*m]
			for k := c; k < m; k++ {
				pivot[k], other[k] = other[k], pivot[k]
			}
			b[c], b[p] = b[p], b[c]
		}
		for r := c + 1; r < m; r++ {
			row := a[r*m : (r+1)*m]
			if row[c] == 0 {
				continue
			}
			f := row[c] / pivot[c]
			row[c] = 0
			for k := c + 1; k < m; k++ {
				row[k] -= f * pivot[k]
			}
			b[r] -= f * b[c]
		}
	}
	for c := m - 1; c >= 0; c-- {
		row := a[c*m : (c+1)*m]
		sum := b[c]
		for k := c + 1; k < m; k++ {
			sum -= row[k] * x[states[k]]
		}
		x[states[c]] = sum / row[c]
	}
	return nil
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
// Otherwise the system p_i = Σ_j P_ij·p_j over the states that can reach
// the target, with p = 1 on the target and 0 on the states that cannot
// reach it, is solved as MeanTimeTo's is.
func (g *Graph) AbsorptionProbability(pred san.Predicate) (float64, error) {
	return g.absorptionProbability(pred, maxDirectUnknowns, maxSweeps)
}

func (g *Graph) absorptionProbability(pred san.Predicate, maxDirect, maxIter int) (float64, error) {
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
	unknown := make([]bool, n)
	for s := range p {
		if target[s] {
			p[s] = 1
		}
		unknown[s] = reach[s] && !target[s]
	}
	if err := g.solve(p, unknown, 0, maxDirect, maxIter); err != nil {
		return 0, fmt.Errorf("absorption probability: %w", err)
	}
	return p[g.Initial], nil
}
