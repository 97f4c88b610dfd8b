// Package xpart implements the paper's general I/O lower-bound method
// (§3–§5): the optimization problem (3) that yields ψ(X) = |V_max| for a
// DAAP statement, the computational-intensity minimization of Lemma 2, the
// out-degree-one cap of Lemma 6, the input-reuse bound of Lemma 7 / Eq. (6),
// the output-reuse corollary of §4.2, and the parallel bound of Lemma 9.
//
// ψ(X) is the optimum of the geometric program
//
//	max Π_t x_t   s.t.   Σ_j scale_j · Π_{k ∈ vars(φ_j)} x_k ≤ X,  x_t ≥ 1,
//
// which is convex in y = log x. Psi solves it by Newton's method and returns
// a weighted AM–GM bound proven at the point it reached, so every bound
// built on ψ is a lower bound however the iteration ended. Tests hold that
// certificate within 1e-12 of the point's product and check it against
// every closed form in the paper (MMM, LU S1/S2, the §4 examples).
package xpart

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/blas"
	"repro/internal/daap"
	"repro/internal/lapack"
	"repro/internal/mat"
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
// at the bound x_t = 1. Depth is small for DAAP kernels (≤4 in every paper
// example), so every clamp pattern is solved by Newton's method and the
// best feasible point wins. The ψ returned is an upper bound proven at that
// point, whatever the iteration reached, and it equals Π xs at the optimum.
func (p Problem) Psi(x float64) (float64, []float64) {
	var covered uint64
	for _, term := range p.Terms {
		for _, v := range term.Vars {
			covered |= 1 << v
		}
	}
	if covered != 1<<p.Depth-1 {
		return math.Inf(1), nil
	}
	if p.Depth > 16 {
		panic("xpart: depth too large for clamp-pattern enumeration")
	}
	// One scratch buffer: the Newton system and its right-hand side, the
	// point y = log x and the last accepted one, the marginals c and the
	// term shares w.
	d, n := p.Depth, (p.Depth+1)*(p.Depth+2)
	buf := make([]float64, n+3*d+len(p.Terms))
	jac, rhs, y, y0 := buf[:n-d-1], buf[n-d-1:n], buf[n:][:d], buf[n+d:][:d]
	c, w := buf[n+2*d:][:d], buf[n+3*d:]
	logX, bestSum, xs := math.Log(x), math.Inf(-1), []float64(nil)
	for pattern := 0; pattern < 1<<d; pattern++ {
		if !p.newton(logX, pattern, y, y0, c, w, jac, rhs) {
			continue
		}
		sum := 0.0
		for _, v := range y {
			sum += v
		}
		if sum > bestSum {
			bestSum, xs = sum, append(xs[:0], y...)
		}
	}
	if xs == nil {
		return 0, nil // even x = 1 exceeds X
	}
	// The certificate is weighted AM–GM at the point's shares w. Every x ≥ 1
	// within budget has X ≥ Σ_j s_j·Π_{k∈j} x_k ≥ Π_j (s_j·Π_{k∈j} x_k/w_j)^w_j,
	// that is Σ_t c_t·log x_t ≤ log X − Σ_j w_j·log(s_j/w_j), and the left
	// side is at least min_t c_t · log Π x because every log x_t ≥ 0. So it
	// bounds ψ for any shares, and at the optimum's it is tight (KKT).
	// Rounding may put the point's own product an ulp above it; the larger
	// is still an upper bound.
	p.shares(xs, c, w)
	e := logX
	for j, term := range p.Terms {
		if w[j] > 0 {
			e -= w[j] * math.Log(term.Scale/w[j])
		}
	}
	prod := 1.0
	for t, v := range xs {
		xs[t] = math.Exp(v)
		prod *= xs[t]
	}
	return max(math.Exp(e/slices.Min(c)), prod), xs
}

// size evaluates the term at iteration ranges xs: scale · Π_{k∈vars} xs_k.
func (term Term) size(xs []float64) float64 {
	v := term.Scale
	for _, k := range term.Vars {
		v *= xs[k]
	}
	return v
}

// shares sets w_j to term j's share of the constraint at y = log x and
// c_t = Σ_{j∋t} w_j = ∂g/∂y_t, and returns g(y) = log Σ_j s_j·Π_{k∈j} x_k.
func (p Problem) shares(y, c, w []float64) float64 {
	total := 0.0
	for j, term := range p.Terms {
		e := 0.0
		for _, k := range term.Vars {
			e += y[k]
		}
		w[j] = term.Scale * math.Exp(e)
		total += w[j]
	}
	clear(c)
	for j, term := range p.Terms {
		w[j] /= total
		for _, k := range term.Vars {
			c[k] += w[j]
		}
	}
	return math.Log(total)
}

// newton solves problem (3) in y = log x with the variables of pattern
// (bit t set) clamped at y_t = 0. At the KKT point of the convex program
// max Σ y_t s.t. g(y) = log X every free t has the same marginal c_t = κ, so
// Newton's method runs on r(y, κ) = (κ − c_t for free t, log X − g(y)),
// whose Jacobian over (y, κ) is [∇²g, −1; cᵀ, 0] with
// ∇²g = Σ_j w_j·a_j·a_jᵀ − c·cᵀ (a_j the term's incidence vector). A 1e-14
// ridge on its diagonal keeps it solvable along directions g cannot see
// (variables that only ever appear together). Newton starts inside the
// budget with the free y_t equal and halves a step until ‖r‖ falls: a full
// step on a small share can overshoot by orders of magnitude. It leaves the
// point in y and reports whether it converged to a feasible one.
func (p Problem) newton(logX float64, pattern int, y, y0, c, w, jac, rhs []float64) bool {
	d := len(y)
	clear(y)
	g := p.shares(y, c, w)
	if g > logX || pattern == 1<<d-1 {
		return g <= logX // x = 1 exceeds X, or is the pattern's only point
	}
	free := func(t int) bool { return pattern&(1<<t) == 0 }
	nFree := float64(d - bits.OnesCount(uint(pattern)))
	for t := range y {
		if free(t) {
			y[t] = (logX - g) / nFree
		}
	}
	a := mat.Matrix{Rows: d + 1, Cols: d + 1, Stride: d + 1, Data: jac}
	b := mat.Matrix{Rows: d + 1, Cols: 1, Stride: 1, Data: rhs}
	var ipiv [17]int
	kappa, kappa0, alpha, r0 := 1.0, 1.0, 1.0, math.Inf(1)
	for range 200 {
		// −r into rhs and ‖r‖² into r; clamped variables drop out of c.
		rhs[d] = logX - p.shares(y, c, w)
		r := rhs[d] * rhs[d]
		for t := range y {
			rhs[t] = kappa - c[t]
			if !free(t) {
				rhs[t], c[t] = 0, 0
			}
			r += rhs[t] * rhs[t]
		}
		if !(r <= (1-alpha/2)*r0) { // NaN too: a step that overflowed
			if alpha /= 2; alpha < 1e-9 {
				// No step reduces ‖r‖: converged if it is at rounding
				// level, where an ill-conditioned system's steps stay large.
				copy(y, y0)
				return r0 <= 1e-20 && slices.Min(y) >= 0
			}
			for t := range y {
				y[t] = (y0[t] + y[t]) / 2
			}
			kappa = (kappa0 + kappa) / 2
			continue
		}
		copy(y0, y)
		kappa0, alpha, r0 = kappa, 1, r
		clear(jac)
		for j, term := range p.Terms {
			for _, t := range term.Vars {
				for _, u := range term.Vars {
					if free(t) && free(u) {
						jac[t*(d+1)+u] += w[j]
					}
				}
			}
		}
		for t := range y {
			if !free(t) {
				jac[t*(d+2)] = 1 // y_t stays 0
				continue
			}
			for u := range y {
				jac[t*(d+1)+u] -= c[t] * c[u]
			}
			jac[t*(d+2)] += 1e-14
			jac[t*(d+1)+d], jac[d*(d+1)+t] = -1, c[t]
		}
		if lapack.Getrf2(&a, ipiv[:d+1]) != nil {
			return false
		}
		lapack.Laswp(&b, ipiv[:d+1])
		blas.TrsmLowerLeft(&a, &b, true)
		blas.TrsmUpperLeft(&a, &b)
		step := 0.0
		for t := range y {
			step = max(step, math.Abs(rhs[t]))
			y[t] += rhs[t]
		}
		kappa += rhs[d]
		if step <= 1e-10 {
			return slices.Min(y) >= 0
		}
	}
	return false
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
