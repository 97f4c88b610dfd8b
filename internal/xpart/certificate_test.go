package xpart

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/daap"
)

// budget returns Σ_j s_j·Π_{k∈j} xs_k, the left side of problem (3)'s
// constraint.
func budget(p Problem, xs []float64) float64 {
	total := 0.0
	for _, term := range p.Terms {
		total += term.size(xs)
	}
	return total
}

// checkCertificate solves ψ(X) and requires a feasible point whose product
// the certified ψ bounds from above within 1e-12 relative. It returns ψ.
func checkCertificate(t *testing.T, name string, p Problem, x float64) float64 {
	t.Helper()
	psi, xs := p.Psi(x)
	if len(xs) != p.Depth {
		t.Fatalf("%s: Psi(%v) = %v with xs %v", name, x, psi, xs)
	}
	prod := 1.0
	for i, v := range xs {
		if !(v >= 1) {
			t.Fatalf("%s: Psi(%v): xs[%d] = %v < 1", name, x, i, v)
		}
		prod *= v
	}
	if got := budget(p, xs); got > x*(1+1e-12) {
		t.Fatalf("%s: Psi(%v): xs %v spends %v", name, x, xs, got)
	}
	if !(psi >= prod) {
		t.Fatalf("%s: Psi(%v) = %v below the product %v of its own point", name, x, psi, prod)
	}
	if gap := (psi - prod) / psi; gap > 1e-12 {
		t.Fatalf("%s: Psi(%v) = %v, point %v: certified gap %.3g", name, x, psi, prod, gap)
	}
	return psi
}

// certifiedProblems is every problem the xpart tests and the LowerBound*
// entry points solve. |V| does not enter ψ, so each is built at one size.
func certifiedProblems() map[string]Problem {
	s1, s2 := LUStatementProblems(32)
	fused := daap.FusedMMMProgram()
	chol := daap.CholeskyProgram()
	return map[string]Problem{
		"MMM":          MMMProblem(64),
		"LU S1":        s1,
		"LU S2":        s2,
		"fused-MMM S":  FromStatement(fused.Statements[0], nil, 1),
		"fused-MMM T":  FromStatement(fused.Statements[1], nil, 1),
		"modified MMM": FromStatement(daap.MMMProgram().Statements[0], map[int]float64{0: 0}, 1),
		"contraction":  contractionProblem(64, 8, 8),
		"Cholesky S2":  FromStatement(chol.Statements[1], nil, 1),
		"Cholesky S3":  FromStatement(chol.Statements[2], nil, 1),
	}
}

// TestPsiCertificate holds every solved ψ to its certificate over a log
// grid of X from just above the all-ones point's cost to 1e9.
func TestPsiCertificate(t *testing.T) {
	for name, p := range certifiedProblems() {
		lo := budget(p, []float64{1, 1, 1, 1}[:p.Depth]) * (1 + 1e-9)
		for i := 0; i <= 200; i++ {
			checkCertificate(t, name, p, lo*math.Pow(1e9/lo, float64(i)/200))
		}
	}
}

// FuzzPsi draws problems of depth ≤ 4 with ≤ 4 terms of 1–3 variables,
// scales in [1/8, 8] and every variable covered, and a budget X. Besides
// checkCertificate's assertions, the certified ψ must bound the product at a
// random feasible point: a random y ≥ 0 scaled to just inside the budget.
func FuzzPsi(f *testing.F) {
	f.Add(int64(1), 0.5)
	f.Add(int64(7), 0.0)
	f.Add(int64(42), 1.0)
	f.Fuzz(func(t *testing.T, seed int64, at float64) {
		if !(at >= 0 && at <= 1) {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		var p Problem
		for covered := -1; covered != 1<<p.Depth-1; {
			p, covered = Problem{Depth: 1 + rng.Intn(4)}, 0
			for range 1 + rng.Intn(4) {
				vars := rng.Perm(p.Depth)[:1+rng.Intn(min(3, p.Depth))]
				p.Terms = append(p.Terms, Term{Vars: vars, Scale: math.Exp2(6*rng.Float64() - 3)})
				for _, v := range vars {
					covered |= 1 << v
				}
			}
		}
		lo := budget(p, []float64{1, 1, 1, 1}[:p.Depth]) * (1 + 1e-9)
		x := lo * math.Pow(1e9/lo, at)
		name := fmt.Sprintf("%+v", p.Terms)
		psi := checkCertificate(t, name, p, x)

		dir := make([]float64, p.Depth)
		for i := range dir {
			dir[i] = rng.Float64()
		}
		point := func(s float64) []float64 {
			xs := make([]float64, p.Depth)
			for i, d := range dir {
				xs[i] = math.Exp(s * d)
			}
			return xs
		}
		// The point spends at most X·(1−1e-12), so its product is below ψ by
		// more than rounding: dlogψ/dlogX = 1/min_t c_t ≥ 1.
		inside := x * (1 - 1e-12)
		sLo, sHi := 0.0, 1.0
		for budget(p, point(sHi)) <= inside {
			sHi *= 2
		}
		for range 100 {
			if mid := (sLo + sHi) / 2; budget(p, point(mid)) <= inside {
				sLo = mid
			} else {
				sHi = mid
			}
		}
		prod := 1.0
		for _, v := range point(sLo) {
			prod *= v
		}
		if !(psi >= prod) {
			t.Fatalf("%s: Psi(%v) = %v below the product %v at the feasible point %v", name, x, psi, prod, point(sLo))
		}
	})
}
