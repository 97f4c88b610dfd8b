package conflux

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/grid"
	"repro/internal/mat"
	"repro/internal/smpi"
	"repro/internal/testutil"
	"repro/internal/trace"
)

const testTimeout = 120 * time.Second

func gridFor(pr, pc, c, total int) grid.Grid {
	return grid.Grid{Pr: pr, Pc: pc, Layers: c, Total: total}
}

func factorNumeric(t *testing.T, n, v int, g grid.Grid, seed uint64) (*mat.Matrix, *Result, *trace.Report) {
	t.Helper()
	a := mat.RandomDiagDominant(n, seed)
	var res *Result
	rep, err := smpi.Exec(context.Background(), smpi.Config{P: g.Total, Payload: true, Timeout: testTimeout}, func(c *smpi.Comm) error {
		var in *mat.Matrix
		if c.Rank() == 0 {
			in = a
		}
		r, err := Run(c, in, Options{N: n, V: v, Grid: g})
		if c.Rank() == 0 {
			res = r
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return a, res, rep
}

func TestNumericSingleRank(t *testing.T) {
	a, res, _ := factorNumeric(t, 16, 4, gridFor(1, 1, 1, 1), 1)
	if err := testutil.IsPermutation(res.Perm, 16); err != nil {
		t.Fatalf("perm: %v", err)
	}
	if r := testutil.ResidualLUPerm(a, res.LU, res.Perm); r > 1e-12 {
		t.Fatalf("residual %v", r)
	}
}

func TestNumeric2DGrids(t *testing.T) {
	cases := []struct {
		n, v       int
		pr, pc, cc int
	}{
		{16, 4, 2, 2, 1},
		{32, 4, 2, 2, 1},
		{48, 8, 2, 3, 1},
		{64, 8, 4, 2, 1},
		{40, 8, 2, 2, 1}, // ragged last tile
		{33, 4, 3, 2, 1}, // very ragged
	}
	for _, tc := range cases {
		g := gridFor(tc.pr, tc.pc, tc.cc, tc.pr*tc.pc*tc.cc)
		a, res, _ := factorNumeric(t, tc.n, tc.v, g, uint64(tc.n)+7)
		if err := testutil.IsPermutation(res.Perm, tc.n); err != nil {
			t.Fatalf("%+v perm: %v", tc, err)
		}
		if r := testutil.ResidualLUPerm(a, res.LU, res.Perm); r > 1e-11 {
			t.Fatalf("%+v residual %v", tc, r)
		}
	}
}

func TestNumericLayered25D(t *testing.T) {
	// The heart of COnfLUX: c > 1 layers of lazy Schur accumulators.
	cases := []struct {
		n, v       int
		pr, pc, cc int
	}{
		{32, 4, 2, 2, 2},
		{48, 4, 2, 2, 3},
		{64, 8, 2, 2, 2},
		{64, 4, 2, 2, 4},
		{60, 4, 2, 3, 2},   // ragged + rectangular layers
		{100, 16, 2, 2, 2}, // v ≥ 16: the Schur update runs on the packed kernel
		{96, 32, 1, 2, 2},
	}
	for _, tc := range cases {
		g := gridFor(tc.pr, tc.pc, tc.cc, tc.pr*tc.pc*tc.cc)
		a, res, _ := factorNumeric(t, tc.n, tc.v, g, uint64(tc.n)*31+uint64(tc.cc))
		if r := testutil.ResidualLUPerm(a, res.LU, res.Perm); r > 1e-11 {
			t.Fatalf("%+v residual %v", tc, r)
		}
	}
}

func TestNumericGeneralMatrixNeedsPivoting(t *testing.T) {
	n, v := 48, 4
	g := gridFor(2, 2, 2, 8)
	a := mat.Random(n, n, 1234) // no diagonal dominance
	var res *Result
	_, err := smpi.Exec(context.Background(), smpi.Config{P: g.Total, Payload: true, Timeout: testTimeout}, func(c *smpi.Comm) error {
		var in *mat.Matrix
		if c.Rank() == 0 {
			in = a
		}
		r, err := Run(c, in, Options{N: n, V: v, Grid: g})
		if c.Rank() == 0 {
			res = r
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := testutil.ResidualLUPerm(a, res.LU, res.Perm); r > 1e-9 {
		t.Fatalf("residual %v", r)
	}
}

func TestDisabledRanksIdle(t *testing.T) {
	// Grid uses 4 of 5 ranks; the 5th must return immediately and the
	// result must still be correct.
	n, v := 32, 4
	g := grid.Grid{Pr: 2, Pc: 2, Layers: 1, Total: 5}
	a := mat.RandomDiagDominant(n, 3)
	var res *Result
	_, err := smpi.Exec(context.Background(), smpi.Config{P: 5, Payload: true, Timeout: testTimeout}, func(c *smpi.Comm) error {
		var in *mat.Matrix
		if c.Rank() == 0 {
			in = a
		}
		r, err := Run(c, in, Options{N: n, V: v, Grid: g})
		if c.Rank() == 0 {
			res = r
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := testutil.ResidualLUPerm(a, res.LU, res.Perm); r > 1e-11 {
		t.Fatalf("residual %v", r)
	}
}

func TestRowMaskingNeverMovesRows(t *testing.T) {
	// Perm must be a permutation and pivot rows must be spread (tournament
	// picks the numerically largest rows, which for this seeded matrix are
	// not the identity order).
	_, res, _ := factorNumeric(t, 32, 4, gridFor(2, 2, 1, 4), 99)
	if err := testutil.IsPermutation(res.Perm, 32); err != nil {
		t.Fatal(err)
	}
}

func runVolume(t *testing.T, n, v int, g grid.Grid) *trace.Report {
	t.Helper()
	rep, err := smpi.Exec(context.Background(), smpi.Config{P: g.Total, Timeout: testTimeout}, func(c *smpi.Comm) error {
		_, err := Run(c, nil, Options{N: n, V: v, Grid: g})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func algoBytes(rep *trace.Report) int64 {
	return rep.AlgorithmBytes(trace.PhaseLayout, trace.PhaseCollect)
}

func TestVolumeModeCloseToNumeric(t *testing.T) {
	n, v := 48, 4
	g := gridFor(2, 2, 2, 8)
	_, _, repN := factorNumeric(t, n, v, g, 11)
	repV := runVolume(t, n, v, g)
	rn, rv := algoBytes(repN), algoBytes(repV)
	ratio := float64(rv) / float64(rn)
	if ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("volume-mode %d vs numeric %d (ratio %.3f)", rv, rn, ratio)
	}
}

func TestVolumeBeats2DLawAtScale(t *testing.T) {
	// Strong-scaling shape: with replication (c=4), per-rank COnfLUX volume
	// must drop faster than the 2D 1/√P law when P quadruples.
	n := 256
	repA := runVolume(t, n, 4, gridFor(2, 2, 4, 16))
	repB := runVolume(t, n, 4, gridFor(4, 4, 4, 64))
	perA := float64(algoBytes(repA)) / 16
	perB := float64(algoBytes(repB)) / 64
	if perB >= perA {
		t.Fatalf("per-rank volume did not shrink: %.0f -> %.0f", perA, perB)
	}
}

func TestVolumeNearFittedModel(t *testing.T) {
	n, p := 256, 16
	g := gridFor(2, 2, 4, p)
	rep := runVolume(t, n, 4, g)
	meas := float64(algoBytes(rep)) / float64(p) / trace.BytesPerElement
	params := costmodel.Params{N: n, P: p, M: float64(n) * float64(n) * 4 / float64(p)}
	model := ModelPerRankElements(params)
	ratio := meas / model
	if ratio < 0.3 || ratio > 3 {
		t.Fatalf("measured %.0f vs fitted model %.0f elements/rank (ratio %.2f)", meas, model, ratio)
	}
}

func TestSingularReported(t *testing.T) {
	n, v := 16, 4
	g := gridFor(2, 2, 1, 4)
	_, err := smpi.Exec(context.Background(), smpi.Config{P: 4, Payload: true, Timeout: testTimeout}, func(c *smpi.Comm) error {
		var in *mat.Matrix
		if c.Rank() == 0 {
			in = mat.New(n, n) // zero matrix
		}
		_, err := Run(c, in, Options{N: n, V: v, Grid: g})
		return err
	})
	if err == nil {
		t.Fatal("expected singular failure")
	}
}

func TestDefaultOptionsRespectConstraints(t *testing.T) {
	for _, p := range []int{1, 4, 7, 8, 64, 1000, 1024} {
		n := 1024
		mem := float64(n) * float64(n) // huge memory -> c = P^{1/3}
		opt := DefaultOptions(n, p, mem)
		if opt.V < opt.Grid.Layers {
			t.Fatalf("p=%d: v=%d < c=%d", p, opt.V, opt.Grid.Layers)
		}
		if !opt.Grid.Valid() || opt.Grid.Used() > p {
			t.Fatalf("p=%d: invalid grid %+v", p, opt.Grid)
		}
		if used := opt.Grid.Used(); float64(used) < 0.85*float64(p) {
			t.Fatalf("p=%d: grid wastes too much (%d used)", p, used)
		}
	}
}

// One rule, one place: the planner's closed-form message count is N over the
// v the engine actually runs with, at every (N, P) the harness reaches.
func TestApproxMsgsUseEngineBlockSize(t *testing.T) {
	for n := 128; n <= 16384; n *= 2 {
		for p := 4; p <= 1024; p *= 2 {
			params := costmodel.MaxMemoryParams(n, p)
			v := DefaultOptions(n, p, params.M).V
			if got, want := costmodel.ApproxPerRankMsgs(costmodel.COnfLUX, params, 0), float64((n+v-1)/v); got != want {
				t.Fatalf("N=%d P=%d: ApproxPerRankMsgs = %v, ⌈N/v⌉ = %v at the engine's v=%d", n, p, got, want, v)
			}
		}
	}
}

func TestPermuteRowsInPlace(t *testing.T) {
	g := mat.NewRNG(11)
	for _, n := range []int{1, 2, 7, 64} {
		perm := g.RandomPerm(n)
		perm[n/2], perm[slices.Index(perm, n/2)] = n/2, perm[n/2] // at least one fixed point
		a := mat.Random(n, 5, uint64(n)).View(0, 1, n, 3)         // strided
		want := mat.PermuteRows(a, perm)
		permuteRowsInPlace(a, perm)
		if d := mat.MaxAbsDiff(a, want); d != 0 {
			t.Fatalf("n=%d perm=%v: differs from mat.PermuteRows by %v", n, perm, d)
		}
	}
}

func TestVBelowLayersPanics(t *testing.T) {
	_, err := smpi.Exec(context.Background(), smpi.Config{P: 8, Timeout: testTimeout}, func(c *smpi.Comm) error {
		_, err := Run(c, nil, Options{N: 32, V: 1, Grid: gridFor(2, 2, 2, 8)})
		return err
	})
	if err == nil {
		t.Fatal("expected v >= c constraint panic")
	}
}

// Property: random small configurations (grid shape, layers, block size,
// matrix size, raggedness) all factor correctly.
func TestQuickRandomConfigurations(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	g := mat.NewRNG(2027)
	for i := 0; i < 20; i++ {
		pr := 1 + g.Intn(3)
		pc := 1 + g.Intn(3)
		cc := 1 + g.Intn(3)
		v := 2 + g.Intn(5)
		if v < cc {
			v = cc
		}
		n := v*(2+g.Intn(5)) + g.Intn(v) // often ragged
		if n < 2*v {
			n = 2 * v
		}
		gr := gridFor(pr, pc, cc, pr*pc*cc)
		a, res, _ := factorNumeric(t, n, v, gr, uint64(i)*1297+5)
		if err := testutil.IsPermutation(res.Perm, n); err != nil {
			t.Fatalf("cfg %d (n=%d v=%d %dx%dx%d): %v", i, n, v, pr, pc, cc, err)
		}
		if r := testutil.ResidualLUPerm(a, res.LU, res.Perm); r > 1e-10 {
			t.Fatalf("cfg %d (n=%d v=%d %dx%dx%d): residual %v", i, n, v, pr, pc, cc, r)
		}
	}
}

func TestPhaseBreakdownPresent(t *testing.T) {
	rep := runVolume(t, 64, 4, gridFor(2, 2, 2, 8))
	for _, ph := range []string{"COnfLUX.pivot", "COnfLUX.bcast-a00", "COnfLUX.panel-a10", "COnfLUX.panel-a01"} {
		if rep.ByPhase[ph] == 0 {
			t.Fatalf("phase %s not metered: %v", ph, rep.ByPhase)
		}
	}
}

// The engine's per-step cost rests on two facts, checked here on every rank of
// a volume world with a ragged last tile on a non-square grid (517 on 3×4×1)
// and of a layered one (256 on 2×2×2): after every step the own-row active
// list, maintained by deleting the step's pivots, is exactly what a scan of
// the mask finds in this rank's grid row; and the slot tables a rank builds
// for its own row and column hold a communicator exactly where the rank is in
// the group (grid's TestPanelGroupsStayInOwnRowAndColumn shows no group of
// another row or column can contain it).
func TestOwnRowInvariants(t *testing.T) {
	for _, tc := range []struct {
		n, v int
		g    grid.Grid
	}{
		{517, 8, gridFor(3, 4, 1, 12)},
		{256, 4, gridFor(2, 2, 2, 8)},
	} {
		g, c := tc.g, tc.g.Layers
		_, err := smpi.Exec(context.Background(), smpi.Config{P: g.Total, Timeout: testTimeout}, func(cm *smpi.Comm) error {
			e := &engine{world: cm, opt: Options{Name: "COnfLUX", N: tc.n, V: tc.v, Grid: g}}
			e.setup(nil)
			for lstar := 0; lstar < c; lstar++ {
				for ownerCol := 0; ownerCol < g.Pc; ownerCol++ {
					member := slices.Contains(g.PanelRowGroup(e.row, ownerCol, lstar), cm.Rank())
					if built := e.a10Comms[ownerCol*c+lstar] != nil; built != member {
						return fmt.Errorf("rank %d: A10 slot (%d, %d) built=%v, member=%v", cm.Rank(), ownerCol, lstar, built, member)
					}
				}
				member := slices.Contains(g.PanelColGroup(e.col, 0, lstar), cm.Rank())
				if built := e.a01Comms[lstar] != nil; built != member {
					return fmt.Errorf("rank %d: A01 slot %d built=%v, member=%v", cm.Rank(), lstar, built, member)
				}
			}
			for step := 0; step < e.bc.Tiles(); step++ {
				if err := e.step(step); err != nil {
					return err
				}
				var scan []int
				for r, live := range e.mask {
					if live && e.bc.OwnerRow(r/tc.v) == e.row {
						scan = append(scan, r)
					}
				}
				if !slices.Equal(e.active, scan) {
					return fmt.Errorf("rank %d after step %d: active list %v, mask scan %v", cm.Rank(), step, e.active, scan)
				}
			}
			e.collect()
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d %+v: %v", tc.n, g, err)
		}
	}
}
