package trisolve

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/blas"
	"repro/internal/grid"
	"repro/internal/lapack"
	"repro/internal/mat"
	"repro/internal/smpi"
	"repro/internal/trace"
)

const testTimeout = 60 * time.Second

// combinedLU builds a well-conditioned combined factor matrix: unit-lower L
// below the diagonal (implicit unit diagonal), upper U on and above with a
// boosted diagonal.
func combinedLU(n int, seed uint64) *mat.Matrix {
	r := mat.Random(n, n, seed)
	lu := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := r.At(i, j) / float64(n)
			if i == j {
				v = 2 + math.Abs(r.At(i, j))
			}
			lu.Set(i, j, v)
		}
	}
	return lu
}

func runSolve(t *testing.T, p int, lu, b *mat.Matrix, opt Options) (*mat.Matrix, *trace.Report, error) {
	t.Helper()
	var x *mat.Matrix
	rep, err := smpi.Exec(context.Background(), smpi.Config{P: p, Payload: lu != nil, Timeout: testTimeout}, func(c *smpi.Comm) error {
		var l, rhs *mat.Matrix
		if c.Rank() == 0 {
			l, rhs = lu, b
		}
		res, err := Run(c, l, rhs, opt)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			x = res.X
		}
		return nil
	})
	return x, rep, err
}

func TestSolveMatchesDirect(t *testing.T) {
	cases := []struct {
		n, nrhs, v, p int
	}{
		{16, 1, 4, 1},
		{32, 3, 8, 4},  // 2x2 grid
		{37, 2, 8, 6},  // 2x3 grid, ragged last tile
		{33, 4, 8, 5},  // 1x5 grid, ragged
		{24, 5, 8, 3},  // 1x3 grid
		{48, 2, 8, 12}, // 3x4 grid, more ranks than diagonal tiles per row
	}
	for _, tc := range cases {
		lu := combinedLU(tc.n, uint64(tc.n)*13+uint64(tc.p))
		l, u := lapack.SplitLU(lu)
		want := mat.Random(tc.n, tc.nrhs, 99)
		// B = L·(U·X): feed the exact product so X is recoverable to
		// rounding error.
		ux := mat.New(tc.n, tc.nrhs)
		blas.Gemm(1, u, want, 0, ux)
		b := mat.New(tc.n, tc.nrhs)
		blas.Gemm(1, l, ux, 0, b)
		opt := Options{N: tc.n, NRHS: tc.nrhs, V: tc.v, Grid: grid.Square2D(tc.p)}
		x, rep, err := runSolve(t, tc.p, lu, b, opt)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if d := mat.MaxAbsDiff(x, want); d > 1e-9 {
			t.Fatalf("%+v: max |X - want| = %v", tc, d)
		}
		if tc.p > 1 {
			fwd, back := rep.ByPhase[PhaseFwd], rep.ByPhase[PhaseBack]
			if fwd <= 0 || back <= 0 {
				t.Fatalf("%+v: solve phases not metered: fwd=%d back=%d", tc, fwd, back)
			}
		}
	}
}

func TestSolveSingularFactorSurfacesAsError(t *testing.T) {
	n, p := 16, 4
	lu := combinedLU(n, 5)
	lu.Set(9, 9, 0) // zero U pivot
	b := mat.Random(n, 1, 1)
	_, _, err := runSolve(t, p, lu, b, Options{N: n, NRHS: 1, V: 4, Grid: grid.Square2D(p)})
	if err == nil || !strings.Contains(err.Error(), "singular factor") {
		t.Fatalf("expected singular-factor error, got %v", err)
	}
}

// TestSolveVolumeExactModel pins the schedule's communication volume: each
// pass reduces (Pc-1)·rows·NRHS and broadcasts (Pr-1)·rows·NRHS elements per
// step, so fwd and back each move exactly (Pr+Pc-2)·N·NRHS elements.
func TestSolveVolumeExactModel(t *testing.T) {
	cases := []struct{ n, nrhs, v, p int }{
		{64, 1, 8, 4},
		{64, 4, 8, 6},
		{40, 3, 8, 5},
		{96, 2, 32, 9},
	}
	for _, tc := range cases {
		g := grid.Square2D(tc.p)
		opt := Options{N: tc.n, NRHS: tc.nrhs, V: tc.v, Grid: g}
		_, rep, err := runSolve(t, tc.p, nil, nil, opt)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		want := int64(g.Pr+g.Pc-2) * int64(tc.n) * int64(tc.nrhs) * trace.BytesPerElement
		if rep.ByPhase[PhaseFwd] != want || rep.ByPhase[PhaseBack] != want {
			t.Fatalf("%+v: fwd=%d back=%d want %d", tc, rep.ByPhase[PhaseFwd], rep.ByPhase[PhaseBack], want)
		}
	}
}

// TestSolveReplayDeterministic pins the acceptance criterion: repeated
// volume-mode replays meter identical bytes and bit-identical simulated
// makespans.
func TestSolveReplayDeterministic(t *testing.T) {
	opt := DefaultOptions(128, 6, 4)
	var bytes int64
	var makespan float64
	for i := 0; i < 3; i++ {
		_, rep, err := runSolve(t, 6, nil, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		got := rep.ByPhase[PhaseFwd] + rep.ByPhase[PhaseBack]
		if got <= 0 || rep.Time.Makespan <= 0 {
			t.Fatalf("run %d: no metered solve traffic/time: %d bytes, %v s", i, got, rep.Time.Makespan)
		}
		if i == 0 {
			bytes, makespan = got, rep.Time.Makespan
			continue
		}
		if got != bytes || rep.Time.Makespan != makespan {
			t.Fatalf("run %d: %d bytes / %v s vs %d / %v", i, got, rep.Time.Makespan, bytes, makespan)
		}
	}
}

// TestSolveHousekeepingExcluded: the factor scatter, RHS scatter, and
// solution gather are metered under layout/collect and excluded from
// algorithm-attributed bytes.
func TestSolveHousekeepingExcluded(t *testing.T) {
	opt := DefaultOptions(64, 4, 2)
	_, rep, err := runSolve(t, 4, nil, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ByPhase[trace.PhaseLayout] <= 0 || rep.ByPhase[trace.PhaseCollect] <= 0 {
		t.Fatalf("housekeeping not metered: %v", rep.ByPhase)
	}
	algo := rep.AlgorithmBytes()
	if algo != rep.ByPhase[PhaseFwd]+rep.ByPhase[PhaseBack] {
		t.Fatalf("algorithm bytes %d != fwd+back %d", algo, rep.ByPhase[PhaseFwd]+rep.ByPhase[PhaseBack])
	}
}
