// Package xpart implements the paper's general I/O lower-bound method
// (§3–§5): the optimization problem (3) that yields ψ(X) = |V_max| for a
// DAAP statement, the computational-intensity minimization of Lemma 2, the
// out-degree-one cap of Lemma 6, the input-reuse bound of Lemma 7 / Eq. (6),
// the output-reuse corollary of §4.2, and the parallel bound of Lemma 9.
//
// ψ(X) is found numerically by multiplicative coordinate ascent on
//
//	max Π_t x_t   s.t.   Σ_j scale_j · Π_{k ∈ vars(φ_j)} x_k ≤ X,  x_t ≥ 1,
//
// which converges to the KKT point of problem (3); tests verify it against
// every closed form in the paper (MMM, LU S1/S2, the §4 examples).
package xpart

import (
	"math"
	"slices"

	"repro/internal/daap"
)

// Term is one dominator-set contribution: the distinct iteration variables
// of an access, with an optional scale. Scale 1 is a plain input; scale
// 1/ρ_producer implements the output-reuse Corollary 1 (a scale of 0 drops
// the term entirely — the producer recomputes for free, as in §4.2).
type Term struct {
	Vars  []int
	Scale float64
}

// Problem is the per-statement lower-bound instance.
type Problem struct {
	Depth       int
	Terms       []Term
	NumVertices float64 // |V| of the statement
	RhoCap      float64 // Lemma 6: ρ ≤ RhoCap (0 = no cap)
}

// FromStatement builds a Problem from a DAAP statement. scales maps input
// index → dominator scale (default 1); numVertices is the statement's |V|.
func FromStatement(s daap.Statement, scales map[int]float64, numVertices float64) Problem {
	p := Problem{Depth: s.Depth, NumVertices: numVertices}
	for i, in := range s.Inputs {
		sc := 1.0
		if v, ok := scales[i]; ok {
			sc = v
		}
		if sc == 0 {
			continue
		}
		p.Terms = append(p.Terms, Term{Vars: in.DistinctVars(), Scale: sc})
	}
	return p
}

// Psi solves problem (3) for a given X, returning ψ(X) = max Π x_t and the
// maximizing iteration-range sizes. Returns +Inf if some variable is
// unconstrained (no term references it), in which case |V_max| is unbounded
// and the statement contributes no dominator-based bound.
//
// By KKT complementarity the optimum has some subset of variables clamped
// at the bound x_t = 1 and the free variables balancing their marginal
// contributions (Σ_{j∋t} term_j equal across free t) on the active
// constraint. Depth is small for DAAP kernels (≤3 in every paper example),
// so all clamp patterns are enumerated and the free variables are solved by
// a scale-and-balance iteration; the best feasible product wins.
func (p Problem) Psi(x float64) (float64, []float64) {
	covered := make([]bool, p.Depth)
	for _, term := range p.Terms {
		for _, v := range term.Vars {
			covered[v] = true
		}
	}
	for t := 0; t < p.Depth; t++ {
		if !covered[t] {
			return math.Inf(1), nil
		}
	}
	if p.Depth > 16 {
		panic("xpart: depth too large for clamp-pattern enumeration")
	}
	xs := make([]float64, p.Depth)
	bestPsi, bestXs := 0.0, []float64(nil)
	for pattern := 0; pattern < 1<<p.Depth; pattern++ {
		if !p.solvePattern(x, pattern, xs) {
			continue
		}
		psi := 1.0
		for _, v := range xs {
			psi *= v
		}
		if psi > bestPsi {
			bestPsi, bestXs = psi, append(bestXs[:0], xs...)
		}
	}
	return bestPsi, bestXs
}

// size evaluates the term at iteration ranges xs: scale · Π_{k∈vars} xs_k.
func (term Term) size(xs []float64) float64 {
	v := term.Scale
	for _, k := range term.Vars {
		v *= xs[k]
	}
	return v
}

// constraint evaluates Σ_j scale_j · Π_{k∈j} xs_k.
func (p Problem) constraint(xs []float64) float64 {
	total := 0.0
	for _, term := range p.Terms {
		total += term.size(xs)
	}
	return total
}

// solvePattern solves for the free variables (bit t of pattern clear) with
// the clamped ones at 1, leaving the point in xs. Returns whether it is
// feasible. Its scratch is sized for Psi's depth limit, so it stays on the
// stack.
func (p Problem) solvePattern(x float64, pattern int, xs []float64) bool {
	var freeBuf [16]int
	var grown, ms [16]float64
	free := freeBuf[:0]
	for t := 0; t < p.Depth; t++ {
		xs[t], grown[t] = 1, 1 // grow rewrites only the free entries
		if pattern&(1<<t) == 0 {
			free = append(free, t)
		}
	}
	if p.constraint(xs) > x*(1+1e-12) {
		return false // even the all-ones point violates the budget
	}
	if len(free) == 0 {
		return true
	}
	// scaleToBoundary multiplies the free variables by a common s >= 1 so
	// the constraint is active (monotone in s: bisection).
	scaleToBoundary := func() {
		lo, hi := 1.0, 2.0
		grow := func(s float64) float64 {
			for _, t := range free {
				grown[t] = max(1, xs[t]*s)
			}
			return p.constraint(grown[:p.Depth])
		}
		for grow(hi) < x && hi < 1e30 {
			hi *= 2
		}
		for i := 0; i < 200 && hi-lo > 1e-14*hi; i++ {
			mid := (lo + hi) / 2
			if grow(mid) < x {
				lo = mid
			} else {
				hi = mid
			}
		}
		s := (lo + hi) / 2
		for _, t := range free {
			xs[t] = max(1, xs[t]*s)
		}
	}
	marginal := func(t int) float64 {
		total := 0.0
		for _, term := range p.Terms {
			if slices.Contains(term.Vars, t) {
				total += term.size(xs)
			}
		}
		return total
	}
	scaleToBoundary()
	for iter := 0; iter < 400; iter++ {
		// Balance marginals geometrically, then restore the boundary.
		logMean := 0.0
		for i, t := range free {
			ms[i] = marginal(t)
			logMean += math.Log(ms[i])
		}
		logMean /= float64(len(free))
		maxDev := 0.0
		for i, t := range free {
			adj := math.Exp(0.5 * (logMean - math.Log(ms[i])))
			xs[t] = max(1, xs[t]*adj)
			if d := math.Abs(adj - 1); d > maxDev {
				maxDev = d
			}
		}
		scaleToBoundary()
		if maxDev < 1e-13 {
			break
		}
	}
	return p.constraint(xs) <= x*(1+1e-9)
}

// Rho returns the computational intensity ψ(X)/(X−M) at a given X (> M).
func (p Problem) Rho(x, m float64) float64 {
	psi, _ := p.Psi(x)
	return psi / (x - m)
}

// Bound carries the result of the Lemma 2 optimization.
type Bound struct {
	X0  float64   // argmin of ρ
	Rho float64   // effective computational intensity (after Lemma 6 cap)
	Q   float64   // the I/O lower bound |V|/ρ
	Psi float64   // ψ(X0) = |V_max(X0)|
	Xs  []float64 // maximizing iteration ranges at X0
	p   Problem   // the statement bounded, whose terms AccessSize reads
}

// SequentialBound minimizes ρ(X) over X > M (Lemma 2 / Equations 4–5) by a
// coarse log-space scan followed by golden-section refinement, then applies
// the Lemma 6 cap and returns Q ≥ |V|/ρ.
func (p Problem) SequentialBound(m float64) Bound {
	lo, hi := m*1.000001+1e-9, max(1e4*m, 1e6)
	bestX, bestR := hi, math.Inf(1)
	const scan = 400
	for i := 0; i <= scan; i++ {
		x := lo * math.Pow(hi/lo, float64(i)/scan)
		if r := p.Rho(x, m); r < bestR {
			bestX, bestR = x, r
		}
	}
	// Golden-section refinement around the scan minimum (log space).
	gl := max(lo, bestX/3)
	gh := min(hi, bestX*3)
	phi := (math.Sqrt(5) - 1) / 2
	a, b := math.Log(gl), math.Log(gh)
	c, d := b-phi*(b-a), a+phi*(b-a)
	fc, fd := p.Rho(math.Exp(c), m), p.Rho(math.Exp(d), m)
	for i := 0; i < 120 && b-a > 1e-12; i++ {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - phi*(b-a)
			fc = p.Rho(math.Exp(c), m)
		} else {
			a, c, fc = c, d, fd
			d = a + phi*(b-a)
			fd = p.Rho(math.Exp(d), m)
		}
	}
	x0 := math.Exp((a + b) / 2)
	psi, xs := p.Psi(x0)
	rho := psi / (x0 - m)
	if rho > bestR {
		x0, rho = bestX, bestR
		psi, xs = p.Psi(x0)
	}
	if p.RhoCap > 0 && rho > p.RhoCap {
		rho = p.RhoCap
	}
	return Bound{X0: x0, Rho: rho, Q: p.NumVertices / rho, Psi: psi, Xs: xs, p: p}
}

// ParallelBound applies Lemma 9: with P processors, at least one computes
// |V|/P vertices, so Q_P ≥ |V|/(P·ρ).
func (p Problem) ParallelBound(m float64, procs int) float64 {
	return p.SequentialBound(m).Q / float64(procs)
}

// AccessSize returns |A_j(R_max(X0))|, the size of term j's access at the
// optimum — the per-subcomputation access size the reuse bound (Eq. 6)
// reads.
func (b Bound) AccessSize(term int) float64 {
	if b.Xs == nil {
		return math.Inf(1)
	}
	return b.p.Terms[term].size(b.Xs)
}

// ReuseBound implements Lemma 7 / Eq. (6) for an array that term sTerm of
// statement s and term tTerm of statement t both read, given the two
// statements' bounds: Reuse(A) = min over the statements of
// |A(R_max(X0))| · |V| / |V_max(X0)|.
func ReuseBound(s, t Bound, sTerm, tTerm int) float64 {
	r := func(b Bound, term int) float64 {
		if math.IsInf(b.Psi, 1) {
			return math.Inf(1)
		}
		return b.AccessSize(term) * b.p.NumVertices / b.Psi
	}
	return min(r(s, sTerm), r(t, tTerm))
}
