package structural

import (
	"slices"
	"sort"
	"strconv"
	"strings"
)

// This file implements the Farkas (Martinez–Silva) algorithm for minimal
// nonnegative integer semiflows. For P-semiflows the variables are the
// analysis dimensions (places + ext-length pseudo-places) and each observed
// incidence column contributes one homogeneous constraint y·Δ = 0; for
// T-semiflows the roles swap. The working set is [lhs | rhs] rows where
// rhs starts as the identity; constraints are eliminated one at a time by
// combining opposite-sign row pairs with positive coefficients, so every
// surviving rhs is a nonnegative solution. gcd-normalisation keeps the
// integers small and the minimal-support filter yields the canonical
// generating set.

// frow is one working row of the Farkas elimination.
type frow struct {
	lhs []int // remaining constraint values
	rhs []int // candidate semiflow
}

func gcd(a, b int) int {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// normalize divides the row by the gcd of all its entries.
func (r *frow) normalize() {
	g := 0
	for _, v := range r.lhs {
		g = gcd(g, v)
	}
	for _, v := range r.rhs {
		g = gcd(g, v)
	}
	if g <= 1 {
		return
	}
	for i := range r.lhs {
		r.lhs[i] /= g
	}
	for i := range r.rhs {
		r.rhs[i] /= g
	}
}

func (r *frow) key() string {
	var b strings.Builder
	for _, v := range r.lhs {
		b.WriteString(strconv.Itoa(v))
		b.WriteByte(',')
	}
	b.WriteByte('|')
	for _, v := range r.rhs {
		b.WriteString(strconv.Itoa(v))
		b.WriteByte(',')
	}
	return b.String()
}

// farkas solves y ≥ 0, Σ_v y_v·a_v = 0 where a_v (length ncons) is the
// constraint vector of variable v. It returns the minimal-support
// generating set, or nil when the working set exceeded maxRows (facts are
// then simply absent, never wrong).
func farkas(vars [][]int, ncons, maxRows int) [][]int {
	nvars := len(vars)
	if nvars > maxRows {
		return nil
	}
	rows := make([]*frow, 0, nvars)
	for v := 0; v < nvars; v++ {
		rhs := make([]int, nvars)
		rhs[v] = 1
		rows = append(rows, &frow{lhs: append([]int(nil), vars[v]...), rhs: rhs})
	}
	for c := 0; c < ncons; c++ {
		var keep, pos, neg []*frow
		for _, r := range rows {
			switch {
			case r.lhs[c] == 0:
				keep = append(keep, r)
			case r.lhs[c] > 0:
				pos = append(pos, r)
			default:
				neg = append(neg, r)
			}
		}
		seen := make(map[string]bool, len(keep))
		for _, r := range keep {
			seen[r.key()] = true
		}
		for _, rp := range pos {
			for _, rn := range neg {
				alpha, beta := -rn.lhs[c], rp.lhs[c]
				nr := &frow{lhs: make([]int, ncons), rhs: make([]int, nvars)}
				for i := range nr.lhs {
					nr.lhs[i] = alpha*rp.lhs[i] + beta*rn.lhs[i]
				}
				for i := range nr.rhs {
					nr.rhs[i] = alpha*rp.rhs[i] + beta*rn.rhs[i]
				}
				nr.normalize()
				if k := nr.key(); !seen[k] {
					seen[k] = true
					keep = append(keep, nr)
					if len(keep) > maxRows {
						return nil
					}
				}
			}
		}
		rows = keep
	}
	sols := make([][]int, 0, len(rows))
	for _, r := range rows {
		sols = append(sols, r.rhs)
	}
	return minimalSupport(sols)
}

// minimalSupport drops solutions whose support strictly contains another
// solution's support, dedupes, and sorts deterministically.
func minimalSupport(sols [][]int) [][]int {
	support := func(y []int) []int {
		var s []int
		for i, v := range y {
			if v != 0 {
				s = append(s, i)
			}
		}
		return s
	}
	subset := func(a, b []int) bool { // a ⊆ b, both sorted
		j := 0
		for _, x := range a {
			for j < len(b) && b[j] < x {
				j++
			}
			if j >= len(b) || b[j] != x {
				return false
			}
		}
		return true
	}
	sups := make([][]int, len(sols))
	for i, y := range sols {
		sups[i] = support(y)
	}
	var out [][]int
	for i, y := range sols {
		if len(sups[i]) == 0 {
			continue
		}
		minimal := true
		for j := range sols {
			if i == j {
				continue
			}
			if len(sups[j]) < len(sups[i]) && subset(sups[j], sups[i]) {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, y)
		}
	}
	sort.Slice(out, func(i, j int) bool { return lessVec(out[i], out[j]) })
	// Equal-support duplicates survive the filter; drop exact repeats.
	dedup := out[:0]
	for i, y := range out {
		if i > 0 && slices.Equal(out[i-1], y) {
			continue
		}
		dedup = append(dedup, y)
	}
	return dedup
}

func lessVec(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] > b[i] // earlier dims with nonzero coeff sort first
		}
	}
	return false
}

// pSemiflows computes the P-semiflows of the observed incidence columns:
// y ≥ 0 with y·Δ = 0 for every column Δ.
func pSemiflows(cols []column, dims, maxRows int) [][]int {
	vars := make([][]int, dims)
	for d := 0; d < dims; d++ {
		row := make([]int, len(cols))
		for c := range cols {
			row[c] = cols[c].delta[d]
		}
		vars[d] = row
	}
	return farkas(vars, len(cols), maxRows)
}

// tSemiflows computes the T-semiflows: x ≥ 0 with Σ_c x_c·Δ_c = 0.
func tSemiflows(cols []column, dims, maxRows int) [][]int {
	vars := make([][]int, len(cols))
	for c := range cols {
		vars[c] = cols[c].delta
	}
	return farkas(vars, dims, maxRows)
}

// semiflowBounds derives the per-dimension token bound from the semiflows:
// min over covering flows y of floor(y·M0 / y_p); -1 when uncovered.
func semiflowBounds(semis [][]int, init []int, dims int) []int {
	bounds := make([]int, dims)
	for i := range bounds {
		bounds[i] = -1
	}
	for _, y := range semis {
		value := 0
		for i, c := range y {
			value += c * init[i]
		}
		for i, c := range y {
			if c <= 0 {
				continue
			}
			b := value / c
			if bounds[i] < 0 || b < bounds[i] {
				bounds[i] = b
			}
		}
	}
	return bounds
}

// renderInvariants converts P-semiflows into the serializable form, capped
// and deterministically ordered.
func renderInvariants(semis [][]int, init []int, dimNames []string) []Invariant {
	out := make([]Invariant, 0, len(semis))
	for _, y := range semis {
		if len(out) >= maxSemiflows {
			break
		}
		inv := Invariant{}
		for i, c := range y {
			if c == 0 {
				continue
			}
			inv.Terms = append(inv.Terms, Term{Place: dimNames[i], Coeff: c})
			inv.Value += c * init[i]
		}
		out = append(out, inv)
	}
	return out
}

// tSemiflowFacts converts T-semiflows into the serializable form with
// column labels.
func tSemiflowFacts(p *prober) []TSemiflow {
	semis := tSemiflows(p.cols, p.dims, p.maxRows)
	out := make([]TSemiflow, 0, len(semis))
	for _, x := range semis {
		if len(out) >= maxSemiflows {
			break
		}
		ts := TSemiflow{}
		for c, v := range x {
			if v == 0 {
				continue
			}
			ts.Terms = append(ts.Terms, Term{Place: p.colLabel(p.cols[c]), Coeff: v})
		}
		out = append(out, ts)
	}
	return out
}
