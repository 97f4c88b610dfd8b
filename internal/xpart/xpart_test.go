package xpart

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/daap"
)

func close(a, b, rel float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))
}

// pin fails the test if got's bits differ from the recorded want. The
// solver's results are pinned exactly so that a refactor of it provably
// changes no bound. Only amd64 is checked: compiled Go fuses no
// multiply-add there, but may on arm64, ppc64le and s390x, where the
// tolerances of the closed-form checks are what holds.
func pin(t *testing.T, name string, got float64, want uint64) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		return
	}
	if bits := math.Float64bits(got); bits != want {
		t.Errorf("%s = %v (%#016x), recorded %v (%#016x)", name, got, bits, math.Float64frombits(want), want)
	}
}

// pinBound pins X0, Rho, Q and every Xs entry of b.
func pinBound(t *testing.T, name string, b Bound, x0, rho, q uint64, xs ...uint64) {
	t.Helper()
	pin(t, name+".X0", b.X0, x0)
	pin(t, name+".Rho", b.Rho, rho)
	pin(t, name+".Q", b.Q, q)
	if len(b.Xs) != len(xs) {
		t.Fatalf("%s.Xs = %v, recorded %d entries", name, b.Xs, len(xs))
	}
	for i, want := range xs {
		pin(t, fmt.Sprintf("%s.Xs[%d]", name, i), b.Xs[i], want)
	}
}

// §3.2 / classic MMM: ψ(X) = (X/3)^{3/2}, X0 = 3M, ρ = √M/2, Q = 2N³/√M.
func TestMMMClosedForm(t *testing.T) {
	p := MMMProblem(64)
	for _, x := range []float64{30, 300, 3000} {
		psi, xs := p.Psi(x)
		want := math.Pow(x/3, 1.5)
		if !close(psi, want, 1e-6) {
			t.Fatalf("psi(%v)=%v want %v (xs=%v)", x, psi, want, xs)
		}
	}
	m := 100.0
	b := p.SequentialBound(m)
	if !close(b.X0, 3*m, 0.02) {
		t.Fatalf("X0=%v want %v", b.X0, 3*m)
	}
	if !close(b.Rho, math.Sqrt(m)/2, 0.02) {
		t.Fatalf("rho=%v want %v", b.Rho, math.Sqrt(m)/2)
	}
	n := 64.0
	if !close(b.Q, 2*n*n*n/math.Sqrt(m), 0.02) {
		t.Fatalf("Q=%v want %v", b.Q, MMMSequentialLowerBound(64, m))
	}
	pinBound(t, "MMM", b, 0x4072c000034f7943, 0x4013fffffffffffe, 0x40e999999999999c,
		0x4024000001c3fc67, 0x4024000001c3fc67, 0x4024000001c3fc67)
}

// §6 S1: ψ(X) = X−1 (K=1, I=X−1), but Lemma 6 caps ρ at 1 → Q = N(N−1)/2.
func TestLUS1ClosedForm(t *testing.T) {
	s1, _ := LUStatementProblems(32)
	psi, xs := s1.Psi(100)
	if !close(psi, 99, 1e-9) {
		t.Fatalf("psi=%v want 99 (xs=%v)", psi, xs)
	}
	if xs[0] > 1.0001 { // K clamps to 1
		t.Fatalf("K=%v want 1", xs[0])
	}
	b := s1.SequentialBound(10)
	if !close(b.Rho, 1, 1e-9) {
		t.Fatalf("rho=%v want 1 (Lemma 6 cap)", b.Rho)
	}
	if !close(b.Q, 32*31/2, 1e-9) {
		t.Fatalf("Q=%v want %v", b.Q, 32*31/2)
	}
	pinBound(t, "S1", b, 0x412e848000000000, 0x3ff0000000000000, 0x407f000000000000,
		0x3ff0000000000000, 0x412e847dfffffffa)
}

// §6 S2: same structure as MMM → ρ = √M/2, Q = 2|V_S2|/√M.
func TestLUS2ClosedForm(t *testing.T) {
	n, m := 48, 64.0
	_, s2 := LUStatementProblems(n)
	b := s2.SequentialBound(m)
	if !close(b.Rho, math.Sqrt(m)/2, 0.02) {
		t.Fatalf("rho=%v want %v", b.Rho, math.Sqrt(m)/2)
	}
	_, v2 := daap.CountLUVertices(n)
	if !close(b.Q, 2*float64(v2)/math.Sqrt(m), 0.02) {
		t.Fatalf("Q=%v want %v", b.Q, 2*float64(v2)/math.Sqrt(m))
	}
	pinBound(t, "S2", b, 0x40680000047b4076, 0x400ffffffffffffa, 0x40c1710000000003,
		0x40200000017e6ad1, 0x40200000017e6ad1, 0x40200000017e6ad1)
}

// Full §6 pipeline vs the closed form 2N³−6N²+4N)/(3√M) + N(N−1)/2.
func TestLUDerivedMatchesClosedForm(t *testing.T) {
	for _, tc := range []struct {
		n, p int
		m    float64
		bits uint64 // the derived bound, recorded
	}{
		{64, 1, 64, 0x40d6ce0000000004}, {128, 4, 256, 0x40d7118000000003}, {256, 16, 1024, 0x40d7336000000000},
	} {
		derived := LUDerivedLowerBound(tc.n, tc.p, tc.m)
		closed := LUParallelLowerBound(tc.n, tc.p, tc.m)
		if !close(derived, closed, 0.03) {
			t.Fatalf("n=%d p=%d m=%v: derived %v vs closed %v", tc.n, tc.p, tc.m, derived, closed)
		}
		pin(t, fmt.Sprintf("LUDerivedLowerBound(%d, %d, %v)", tc.n, tc.p, tc.m), derived, tc.bits)
	}
}

// §4.1 example: Q_S = Q_T = N³/M, Reuse(B) = N³/M, Q_tot = N³/M.
func TestFusedMMMExample(t *testing.T) {
	n, m := 64, 32.0
	nf := float64(n)
	qs, qt, reuse, qtot := FusedMMMTotalBound(n, m)
	want := nf * nf * nf / m
	if !close(qs, want, 0.05) || !close(qt, want, 0.05) {
		t.Fatalf("Q_S=%v Q_T=%v want %v", qs, qt, want)
	}
	if !close(reuse, want, 0.05) {
		t.Fatalf("Reuse(B)=%v want %v", reuse, want)
	}
	if !close(qtot, want, 0.05) {
		t.Fatalf("Q_tot=%v want %v", qtot, want)
	}
	pin(t, "Q_S", qs, 0x40c0000000000001)
	pin(t, "Q_T", qt, 0x40c0000000000001)
	pin(t, "Reuse(B)", reuse, 0x40c0000000071dbe)
	pin(t, "Q_tot", qtot, 0x40bffffffff1c488)
}

// §4.2 example: dropping A's dominator term (ρ_S → ∞) gives Q = N³/M
// instead of 2N³/√M.
func TestModifiedMMMExample(t *testing.T) {
	n, m := 64, 100.0
	nf := float64(n)
	got := ModifiedMMMBound(n, m)
	if !close(got, nf*nf*nf/m, 0.05) {
		t.Fatalf("Q=%v want %v", got, nf*nf*nf/m)
	}
	// Must be far below the no-recomputation bound.
	if got > MMMSequentialLowerBound(n, m)/2 {
		t.Fatalf("output reuse did not reduce the bound: %v", got)
	}
	pin(t, "ModifiedMMMBound", got, 0x40a47ae147ae147c)
}

// ψ(X0) for the fused-MMM statement: X0 = 2M with B's access size = M
// (K=1, I=J=M), reproducing the Reuse(B) pieces of §4.1.
func TestFusedMMMAccessSizes(t *testing.T) {
	m := 50.0
	prog := daap.FusedMMMProgram()
	s := FromStatement(prog.Statements[0], nil, 1e6)
	b := s.SequentialBound(m)
	if !close(b.X0, 2*m, 0.05) {
		t.Fatalf("X0=%v want %v", b.X0, 2*m)
	}
	acc := b.AccessSize(1)
	if !close(acc, m, 0.05) {
		t.Fatalf("|B(R)|=%v want %v", acc, m)
	}
	pinBound(t, "fused S", b, 0x40590000017ce8e7, 0x4048ffffffffffff, 0x40d3880000000001,
		0x40490000017ce8e6, 0x40490000017ce8e6, 0x3ff0000000000000)
	pin(t, "|B(R)|", acc, 0x40490000017ce8e6)
}

func TestUnboundedStatement(t *testing.T) {
	// A statement with an unreferenced iteration variable has ψ = ∞.
	p := Problem{Depth: 2, Terms: []Term{{Vars: []int{0}, Scale: 1}}, NumVertices: 100}
	psi, _ := p.Psi(50)
	if !math.IsInf(psi, 1) {
		t.Fatalf("psi=%v want +Inf", psi)
	}
}

func TestParallelBoundLemma9(t *testing.T) {
	p := MMMProblem(64)
	m := 64.0
	seq := p.SequentialBound(m).Q
	if got := p.ParallelBound(m, 8); !close(got, seq/8, 1e-9) {
		t.Fatalf("parallel bound %v want %v", got, seq/8)
	}
}

func TestCholeskyBound(t *testing.T) {
	n, m := 96, 64.0
	nf := float64(n)
	got := CholeskyLowerBound(n, m)
	want := nf * nf * nf / (3 * math.Sqrt(m)) // leading term
	if got < 0.8*want || got > 1.5*want {
		t.Fatalf("Cholesky bound %v, want ≈ %v", got, want)
	}
	pin(t, "CholeskyLowerBound", got, 0x40e4398000000003)
}

func TestCOnfLUXOptimalityRatio(t *testing.T) {
	// The headline claim: COnfLUX's leading term is 3/2× the lower bound.
	// The N(N−1)/2P term in the denominator pulls the ratio slightly under
	// 3/2 at finite sizes; it approaches 1.5 from below as N²/√M shrinks
	// relative to N³/√M... i.e. as N grows.
	r := COnfLUXOverLowerBound(1<<20, 1024, 1e9)
	if r < 1.40 || r > 1.5 {
		t.Fatalf("ratio %v want ≈1.5 (from below)", r)
	}
	r2 := COnfLUXOverLowerBound(1<<26, 1024, 1e9)
	if r2 < r || r2 > 1.5 {
		t.Fatalf("ratio must approach 1.5 from below: %v then %v", r, r2)
	}
}

func TestLUSequentialMatchesOlivry(t *testing.T) {
	// §6 cites Olivry et al.'s sequential bound 2N³/(3√M): our closed form's
	// leading term must agree.
	n, m := 1<<12, 1e6
	nf := float64(n)
	got := LUSequentialLowerBound(n, m)
	lead := 2*nf*nf*nf/(3*math.Sqrt(m)) + nf*(nf-1)/2
	// Exact form carries the −6N²+4N correction; 1% at this size.
	if !close(got, lead, 0.01) {
		t.Fatalf("bound %v want ≈%v", got, lead)
	}
}

func TestTensorContractionBound(t *testing.T) {
	// With K=L=√N the contraction is exactly MMM over a fused index of size
	// N, so the bounds must coincide.
	n, m := 64, 100.0
	k := 8 // k·l = 64 = n
	tc := TensorContractionBound(n, k, k, m)
	mmm := MMMSequentialLowerBound(n, m)
	if tc < 0.9*mmm || tc > 1.1*mmm {
		t.Fatalf("TC bound %v vs MMM %v", tc, mmm)
	}
	// Bigger contraction dimension → proportionally bigger bound.
	tc2 := TensorContractionBound(n, 2*k, k, m)
	if tc2 < 1.8*tc || tc2 > 2.2*tc {
		t.Fatalf("TC scaling: %v vs %v", tc2, tc)
	}
	pin(t, "TensorContractionBound(64, 8, 8)", tc, 0x40e999999999999c)
	pin(t, "TensorContractionBound(64, 16, 8)", tc2, 0x40f999999999999c)
}

// Property: ψ is monotone in X and ρ-minimization never returns X0 <= M.
func TestQuickPsiMonotone(t *testing.T) {
	p := MMMProblem(32)
	f := func(a8, b8 uint16) bool {
		x1 := 10 + float64(a8%1000)
		x2 := x1 + 1 + float64(b8%1000)
		p1, _ := p.Psi(x1)
		p2, _ := p.Psi(x2)
		return p2 >= p1-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the derived LU bound scales like 1/P (Lemma 9).
func TestQuickParallelScaling(t *testing.T) {
	f := func(p8 uint8) bool {
		p := int(p8%31) + 1
		b1 := LUParallelLowerBound(256, 1, 128)
		bp := LUParallelLowerBound(256, p, 128)
		return close(bp, b1/float64(p), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Psi allocates per call, never per clamp pattern or solver step: the
// scratch buffer and the best point, 2 in all. One allocation per pattern
// would exceed the ceiling of 4 even at LU S1's four patterns; one per
// Newton step makes dozens.
func TestPsiAllocs(t *testing.T) {
	mmm := MMMProblem(64)
	s1, _ := LUStatementProblems(32)
	for _, tc := range []struct {
		name string
		p    Problem
		x    float64
	}{
		{"MMM", mmm, 300}, {"LU S1", s1, 100},
	} {
		if got := testing.AllocsPerRun(10, func() { tc.p.Psi(tc.x) }); got > 4 {
			t.Errorf("%s: Psi(%v) made %v allocations, want at most 4", tc.name, tc.x, got)
		}
	}
}
