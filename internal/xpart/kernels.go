package xpart

import (
	"math"

	"repro/internal/daap"
)

// This file assembles the paper's end-to-end kernel bounds from the generic
// machinery: the §6 LU derivation (S1 via Lemma 6, S2 via the dominator
// optimization with the output-reuse correction), the §4.1 fused-MMM reuse
// example, and the Cholesky bound the conclusions nominate as future work.

// LUStatementProblems returns the two LU statement problems exactly as §6
// sets them up: S1 with the Lemma 6 cap ρ ≤ 1 (A[i,k] has out-degree one),
// S2 with the output-reuse scale 1/ρ_S1 = 1 on A[i,k] (which leaves its
// access size unchanged — "it is not beneficial to recompute vertices if the
// recomputation cost is not lower than loading").
func LUStatementProblems(n int) (s1, s2 Problem) {
	prog := daap.LUProgram()
	v1, v2 := daap.CountLUVertices(n)
	s1 = FromStatement(prog.Statements[0], nil, float64(v1))
	s1.RhoCap = 1
	s2 = FromStatement(prog.Statements[1], map[int]float64{1: 1.0 / 1.0}, float64(v2))
	return s1, s2
}

// LUSequentialLowerBound returns the paper's §6 sequential bound
// Q ≥ (2N³−6N²+4N)/(3√M) + N(N−1)/2 (closed form).
func LUSequentialLowerBound(n int, m float64) float64 {
	nf := float64(n)
	return (2*nf*nf*nf-6*nf*nf+4*nf)/(3*math.Sqrt(m)) + nf*(nf-1)/2
}

// LUParallelLowerBound returns the paper's headline parallel bound
// Q_P ≥ 2N³/(3P√M) + O(N²/P) (closed form, Lemma 9 applied to §6).
func LUParallelLowerBound(n, p int, m float64) float64 {
	return LUSequentialLowerBound(n, m) / float64(p)
}

// LUDerivedLowerBound runs the full generic pipeline (problem 3 → Lemma 2 →
// Lemma 6 → Lemma 9) on the LU program and returns the derived parallel
// bound. Tests assert it matches the closed form to within the numeric
// optimizer's tolerance.
func LUDerivedLowerBound(n, p int, m float64) float64 {
	s1, s2 := LUStatementProblems(n)
	return s1.ParallelBound(m, p) + s2.ParallelBound(m, p)
}

// MMMSequentialLowerBound returns the classic 2N³/√M bound, which the
// generic machinery reproduces from the three-access MMM statement
// (ψ(X) = (X/3)^{3/2}, X0 = 3M, ρ = √M/2).
func MMMSequentialLowerBound(n int, m float64) float64 {
	return 2 * float64(n) * float64(n) * float64(n) / math.Sqrt(m)
}

// MMMProblem builds the MMM statement problem with |V| = n³.
func MMMProblem(n int) Problem {
	prog := daap.MMMProgram()
	nf := float64(n)
	return FromStatement(prog.Statements[0], nil, nf*nf*nf)
}

// FusedMMMTotalBound reproduces the §4.1 example end to end:
// Q_S = Q_T = N³/M, Reuse(B) = N³/M, so Q_tot ≥ N³/M.
func FusedMMMTotalBound(n int, m float64) (qs, qt, reuse, qtot float64) {
	prog := daap.FusedMMMProgram()
	nf := float64(n)
	s := FromStatement(prog.Statements[0], nil, nf*nf*nf)
	t := FromStatement(prog.Statements[1], nil, nf*nf*nf)
	bs, bt := s.SequentialBound(m), t.SequentialBound(m)
	// B is input index 1 in both statements; term order follows input order.
	reuse = ReuseBound(bs, bt, 1, 1)
	return bs.Q, bt.Q, reuse, bs.Q + bt.Q - reuse
}

// ModifiedMMMBound reproduces the §4.2 output-reuse example: statement S
// computes A for free (ρ_S → ∞), so A's dominator term vanishes from T and
// Q_{T+S} ≥ N³/M (stream B against M−1 cached C elements).
func ModifiedMMMBound(n int, m float64) float64 {
	prog := daap.MMMProgram()
	nf := float64(n)
	// Drop A (input 0): infinite producer intensity → scale 0.
	t := FromStatement(prog.Statements[0], map[int]float64{0: 0}, nf*nf*nf)
	return t.SequentialBound(m).Q
}

// CholeskyLowerBound applies the same machinery to the Cholesky program
// (the conclusions' "exploration … to algorithms such as Cholesky"):
// S3 has the MMM-like three-access structure with |V_S3| ≈ N³/6, giving
// Q ≥ N³/(3√M) + lower-order terms.
func CholeskyLowerBound(n int, m float64) float64 {
	prog := daap.CholeskyProgram()
	nf := float64(n)
	var v3 float64
	for k := 0; k < n; k++ {
		r := nf - float64(k) - 1
		v3 += r * (r + 1) / 2
	}
	s3 := FromStatement(prog.Statements[2], nil, v3)
	s2 := FromStatement(prog.Statements[1], nil, nf*(nf-1)/2)
	s2.RhoCap = 1
	return s3.SequentialBound(m).Q + s2.SequentialBound(m).Q
}

// TensorContractionBound demonstrates the §2.2 claim that the machinery
// covers "more general tensor contractions": the 4-index contraction
//
//	C[i,j] += A[i,k,l] · B[k,l,j]
//
// has dominator terms (i,k,l), (k,l,j), (i,j); by symmetry of the KKT
// system its ψ(X) matches MMM's (X/3)^{3/2} shape with the (k,l) pair
// acting as a fused index, so Q ≥ 2·N²·(KL)/√M for an N×N output
// contracting over K·L terms. The numeric optimizer derives it directly
// from the statement.
func TensorContractionBound(n, k, l int, m float64) float64 {
	return contractionProblem(n, k, l).SequentialBound(m).Q
}

// contractionProblem builds TensorContractionBound's statement problem.
func contractionProblem(n, k, l int) Problem {
	// Iteration variables: i=0, j=1, k=2, l=3.
	s := daap.Statement{
		Name:   "TC",
		Depth:  4,
		Output: daap.Access{Array: "C", Vars: []int{0, 1}},
		Inputs: []daap.Access{
			{Array: "A", Vars: []int{0, 2, 3}},
			{Array: "B", Vars: []int{2, 3, 1}},
			{Array: "C", Vars: []int{0, 1}},
		},
	}
	if err := s.Validate(); err != nil {
		panic(err)
	}
	vertices := float64(n) * float64(n) * float64(k) * float64(l)
	return FromStatement(s, nil, vertices)
}

// COnfLUXOverLowerBound returns the paper's headline optimality ratio: the
// COnfLUX leading term N³/(P√M) over the lower bound 2N³/(3P√M) — exactly
// 3/2 asymptotically ("only a factor of 1/3 over our established lower
// bound" as the paper phrases the 1→3/2 gap).
func COnfLUXOverLowerBound(n, p int, m float64) float64 {
	nf := float64(n)
	conflux := nf * nf * nf / (float64(p) * math.Sqrt(m))
	return conflux / LUParallelLowerBound(n, p, m)
}
