package conflux

import (
	"errors"
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/testutil"
	"repro/internal/trisolve"
)

// mustNew builds a session or fails the test.
func mustNew(t *testing.T, opts ...Option) *Session {
	t.Helper()
	s, err := New(opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestSolveRoundTrip(t *testing.T) {
	n := 48
	a := RandomMatrix(n, 11)
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < n; j++ {
			s += a.At(i, j) * x[j]
		}
		b[i] = s
	}
	got, err := mustNew(t, WithRanks(4)).Solve(t.Context(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(got[i]-x[i]) > 1e-8 {
			t.Fatalf("x[%d]=%v want %v", i, got[i], x[i])
		}
	}
}

func TestSolveFactoredReuse(t *testing.T) {
	n := 32
	a := RandomMatrix(n, 5)
	res, err := mustNew(t, WithRanks(4)).Factorize(t.Context(), a)
	if err != nil {
		t.Fatal(err)
	}
	// Two different right-hand sides against one factorization.
	for seed := 0; seed < 2; seed++ {
		b := make([]float64, n)
		for i := range b {
			b[i] = float64((i*7+seed)%5) - 2
		}
		x, err := res.SolveFactoredContext(t.Context(), b)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			var s float64
			for j := 0; j < n; j++ {
				s += a.At(i, j) * x[j]
			}
			if math.Abs(s-b[i]) > 1e-8 {
				t.Fatalf("seed %d: residual at %d: %v", seed, i, s-b[i])
			}
		}
	}
}

// TestSolveManyPropertyAndDeterminism is the solve-path property test:
// random A, random multi-RHS B, backward error below tolerance, and the
// solve volume/time reports bit-deterministic across repetitions.
func TestSolveManyPropertyAndDeterminism(t *testing.T) {
	n, nrhs := 96, 5
	a := mat.Random(n, n, 71) // general matrix: the factors carry real pivoting
	b := mat.Random(n, nrhs, 72)
	x, res, err := mustNew(t, WithRanks(6), WithSolveRanks(6)).SolveMany(t.Context(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if be := testutil.SolveBackwardError(a, x, b); be > 1e-9 {
		t.Fatalf("backward error %v", be)
	}
	if res.SolveBytes <= 0 || res.SolveTime <= 0 || res.SolveVolume == nil {
		t.Fatalf("solve not metered: bytes=%d time=%v", res.SolveBytes, res.SolveTime)
	}
	fwd := res.SolveVolume.ByPhase[trisolve.PhaseFwd]
	back := res.SolveVolume.ByPhase[trisolve.PhaseBack]
	if fwd <= 0 || back <= 0 {
		t.Fatalf("solve phases missing: %v", res.SolveVolume.ByPhase)
	}
	// Repeat the identical solve: metered bytes and simulated makespan must
	// accumulate by bit-identical increments.
	bytes1, time1 := res.SolveBytes, res.SolveTime
	if _, err := res.SolveManyFactoredContext(t.Context(), b); err != nil {
		t.Fatal(err)
	}
	if res.SolveBytes != 2*bytes1 || res.SolveTime != 2*time1 {
		t.Fatalf("solve replay not deterministic: %d/%v then %d/%v",
			bytes1, time1, res.SolveBytes-bytes1, res.SolveTime-time1)
	}
}

// TestSolveRanksIndependentOfFactorRanks: the solve phase may run on a
// different simulated machine size than the factorization.
func TestSolveRanksIndependentOfFactorRanks(t *testing.T) {
	n := 64
	a := RandomMatrix(n, 9)
	b := mat.Random(n, 2, 10)
	x, res, err := mustNew(t, WithRanks(4), WithSolveRanks(9)).SolveMany(t.Context(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if be := testutil.SolveBackwardError(a, x, b); be > 1e-10 {
		t.Fatalf("backward error %v", be)
	}
	if res.SolveVolume.P != 9 {
		t.Fatalf("solve world size %d, want 9", res.SolveVolume.P)
	}
}

// TestSolveRefinement: bounded iterative refinement keeps the answer at
// direct-solve quality (or better) and meters every extra distributed sweep.
func TestSolveRefinement(t *testing.T) {
	n := 80
	a := mat.Random(n, n, 33)
	b := mat.Random(n, 3, 34)
	direct, dres, err := mustNew(t, WithRanks(4)).SolveMany(t.Context(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	refined, rres, err := mustNew(t, WithRanks(4), WithRefineSweeps(2)).SolveMany(t.Context(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	beDirect := testutil.SolveBackwardError(a, direct, b)
	beRefined := testutil.SolveBackwardError(a, refined, b)
	if beRefined > beDirect*10 || beRefined > 1e-10 {
		t.Fatalf("refined backward error %v vs direct %v", beRefined, beDirect)
	}
	if rres.SolveTime < dres.SolveTime {
		t.Fatalf("refinement sweeps unmetered: %v < %v", rres.SolveTime, dres.SolveTime)
	}
}

// TestCommVolumeSolveEndToEnd: one volume-mode world replays factorization
// plus the distributed solve; the report carries both phase families, scales
// linearly in WithRHS, and is deterministic.
func TestCommVolumeSolveEndToEnd(t *testing.T) {
	n := 128
	one, err := mustNew(t, WithRanks(8), WithRHS(1)).CommVolumeSolve(t.Context(), n)
	if err != nil {
		t.Fatal(err)
	}
	four, err := mustNew(t, WithRanks(8), WithRHS(4)).CommVolumeSolve(t.Context(), n)
	if err != nil {
		t.Fatal(err)
	}
	solveBytes := func(rep *VolumeReport) int64 {
		return rep.ByPhase[trisolve.PhaseFwd] + rep.ByPhase[trisolve.PhaseBack]
	}
	if solveBytes(one) <= 0 {
		t.Fatalf("no solve traffic: %v", one.ByPhase)
	}
	if got := solveBytes(four); got != 4*solveBytes(one) {
		t.Fatalf("solve bytes %d not 4x %d", got, solveBytes(one))
	}
	if AlgorithmBytes(one) <= solveBytes(one) {
		t.Fatal("factorization phases missing from the end-to-end report")
	}
	again, err := mustNew(t, WithRanks(8), WithRHS(1)).CommVolumeSolve(t.Context(), n)
	if err != nil {
		t.Fatal(err)
	}
	if again.TotalBytes() != one.TotalBytes() || again.Time.Makespan != one.Time.Makespan {
		t.Fatal("end-to-end replay not deterministic")
	}
}

// TestCommVolumeSolveHonorsSolveRanks: the volume replay must put the solve
// phase on WithSolveRanks like the numeric path, not on WithRanks. At
// SolveRanks=4 (2x2 grid) each pass moves (2+2-2)·N·NRHS elements.
func TestCommVolumeSolveHonorsSolveRanks(t *testing.T) {
	n, nrhs := 128, 2
	rep, err := mustNew(t, WithRanks(8), WithSolveRanks(4), WithRHS(nrhs)).CommVolumeSolve(t.Context(), n)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(2 * n * nrhs * 8)
	if rep.ByPhase[trisolve.PhaseFwd] != want || rep.ByPhase[trisolve.PhaseBack] != want {
		t.Fatalf("fwd=%d back=%d want %d", rep.ByPhase[trisolve.PhaseFwd], rep.ByPhase[trisolve.PhaseBack], want)
	}
	// SolveRanks larger than Ranks grows the world to fit both phases.
	big, err := mustNew(t, WithRanks(4), WithSolveRanks(9), WithRHS(nrhs)).CommVolumeSolve(t.Context(), n)
	if err != nil {
		t.Fatal(err)
	}
	if big.P != 9 {
		t.Fatalf("world size %d, want 9", big.P)
	}
	wantBig := int64((3 + 3 - 2) * n * nrhs * 8) // 3x3 grid
	if big.ByPhase[trisolve.PhaseFwd] != wantBig {
		t.Fatalf("fwd=%d want %d", big.ByPhase[trisolve.PhaseFwd], wantBig)
	}
}

func TestCommVolumeOrdering(t *testing.T) {
	// The paper's claim at API level: COnfLUX communicates less than the 2D
	// codes at moderate scale.
	n, p := 256, 16
	cfx, err := mustNew(t, WithRanks(p), WithAlgorithm(COnfLUX)).CommVolume(t.Context(), n)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := mustNew(t, WithRanks(p), WithAlgorithm(LibSci)).CommVolume(t.Context(), n)
	if err != nil {
		t.Fatal(err)
	}
	if AlgorithmBytes(cfx) >= AlgorithmBytes(lib) {
		t.Fatalf("COnfLUX %d >= LibSci %d", AlgorithmBytes(cfx), AlgorithmBytes(lib))
	}
}

func TestResultExposesSimulatedTime(t *testing.T) {
	a := RandomMatrix(48, 5)
	res, err := mustNew(t, WithRanks(4)).Factorize(t.Context(), a)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 || res.CommTime <= 0 {
		t.Fatalf("no simulated time: Time=%v CommTime=%v", res.Time, res.CommTime)
	}
	if res.CommTime > res.Time {
		t.Fatalf("CommTime %v exceeds makespan %v", res.CommTime, res.Time)
	}
	if res.Volume.Time == nil || res.Volume.Time.Makespan != res.Time {
		t.Fatal("Result.Time must mirror Volume.Time.Makespan")
	}
}

func TestMachineScalesTime(t *testing.T) {
	n, p := 128, 8
	slow, err := mustNew(t, WithRanks(p), WithMachine(Machine{Alpha: 1e-5, Beta: 1e-9})).CommVolume(t.Context(), n)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := mustNew(t, WithRanks(p), WithMachine(Machine{Alpha: 1e-7, Beta: 1e-11})).CommVolume(t.Context(), n)
	if err != nil {
		t.Fatal(err)
	}
	// Bytes are machine-independent; time is not.
	if slow.TotalBytes() != fast.TotalBytes() {
		t.Fatalf("volume changed with machine: %d vs %d", slow.TotalBytes(), fast.TotalBytes())
	}
	if slow.Time.Makespan <= fast.Time.Makespan {
		t.Fatalf("slower machine not slower: %v <= %v", slow.Time.Makespan, fast.Time.Makespan)
	}
}

func TestLowerBoundsPositiveAndOrdered(t *testing.T) {
	n, p, m := 4096, 64, 1e6
	lu := LowerBoundLU(n, p, m)
	mmm := LowerBoundMMM(n, p, m)
	chol := LowerBoundCholesky(n, p, m)
	if lu <= 0 || mmm <= 0 || chol <= 0 {
		t.Fatalf("bounds must be positive: %v %v %v", lu, mmm, chol)
	}
	// MMM moves 3× the leading volume of LU's 2/3·N³ (N³ vs N³/3 vertices).
	if mmm <= lu {
		t.Fatalf("MMM bound %v should exceed LU bound %v", mmm, lu)
	}
	// Cholesky does half of LU's work.
	if chol >= lu {
		t.Fatalf("Cholesky bound %v should be below LU bound %v", chol, lu)
	}
}

func TestFactorizeSPD(t *testing.T) {
	n := 48
	// SPD input: AᵀA + n·I from a random seed.
	g := RandomMatrix(n, 21)
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += g.At(k, i) * g.At(k, j)
			}
			a.Set(i, j, s)
		}
		a.Add(i, i, float64(n))
	}
	l, rep, err := mustNew(t, WithRanks(4)).FactorizeSPD(t.Context(), a)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalBytes() == 0 {
		t.Fatal("no volume metered")
	}
	if r := testutil.ResidualCholesky(a, l); r > 1e-10 {
		t.Fatalf("Cholesky residual %v", r)
	}
}

// A negative or a NaN diagonal entry is not positive definite: FactorizeSPD
// says so with the typed error, and a NaN never comes back inside L.
func TestFactorizeSPDNotPositiveDefinite(t *testing.T) {
	for _, d := range []float64{-1, math.NaN()} {
		a := NewMatrix(32, 32)
		for i := range 32 {
			a.Set(i, i, 1)
		}
		a.Set(20, 20, d)
		l, _, err := mustNew(t, WithRanks(4)).FactorizeSPD(t.Context(), a)
		if !errors.Is(err, ErrNotPositiveDefinite) || l != nil {
			t.Fatalf("A[20][20] = %v: err = %v, L nil = %v; want ErrNotPositiveDefinite and no L", d, err, l == nil)
		}
	}
}

func TestModelPerRankElementsExported(t *testing.T) {
	// memory <= 0 resolves to the paper's maximum-replication setting; the
	// Table 2 value at N=16384, P=1024 is ≈44.8 GB total.
	v := ModelPerRankElements(COnfLUX, 16384, 1024, 0)
	gb := v * 1024 * 8 / 1e9
	if gb < 38 || gb > 52 {
		t.Fatalf("model %v GB, Table 2 reports 44.77", gb)
	}
}
