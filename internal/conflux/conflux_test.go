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

// policies are the two row policies; a case that runs under both runs as one
// subtest per policy, named after the engine it makes.
var policies = []struct {
	name string
	swap bool
}{{"COnfLUX", false}, {"CANDMC", true}}

func forPolicies(t *testing.T, body func(t *testing.T, swap bool)) {
	for _, pol := range policies {
		t.Run(pol.name, func(t *testing.T) { body(t, pol.swap) })
	}
}

func factorNumeric(t *testing.T, a *mat.Matrix, opt Options) (*Result, *trace.Report) {
	t.Helper()
	var res *Result
	rep, err := smpi.Exec(context.Background(), smpi.Config{P: opt.Grid.Total, Payload: true, Timeout: testTimeout}, func(c *smpi.Comm) error {
		var in *mat.Matrix
		if c.Rank() == 0 {
			in = a
		}
		r, err := Run(c, in, opt)
		if c.Rank() == 0 {
			res = r
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, rep
}

// checkFactors asserts that res holds a pivoted LU of a: Perm is a
// permutation and A[Perm,:] = L·U to within tol.
func checkFactors(t *testing.T, what any, a *mat.Matrix, res *Result, tol float64) {
	t.Helper()
	if err := testutil.IsPermutation(res.Perm, a.Rows); err != nil {
		t.Fatalf("%v perm: %v", what, err)
	}
	if r := testutil.ResidualLUPerm(a, res.LU, res.Perm); r > tol {
		t.Fatalf("%v residual %v", what, r)
	}
}

type numericCase struct {
	n, v       int
	pr, pc, cc int
}

func (tc numericCase) opt(swap bool) Options {
	return Options{N: tc.n, V: tc.v, Grid: gridFor(tc.pr, tc.pc, tc.cc, tc.pr*tc.pc*tc.cc), Swap: swap}
}

func TestNumericSingleRank(t *testing.T) {
	forPolicies(t, func(t *testing.T, swap bool) {
		a := mat.RandomDiagDominant(16, 1)
		res, _ := factorNumeric(t, a, numericCase{16, 4, 1, 1, 1}.opt(swap))
		checkFactors(t, "n=16", a, res, 1e-12)
	})
}

func TestNumeric2DGrids(t *testing.T) {
	forPolicies(t, func(t *testing.T, swap bool) {
		for _, tc := range []numericCase{
			{16, 4, 2, 2, 1},
			{32, 4, 2, 2, 1},
			{48, 8, 2, 3, 1},
			{64, 8, 4, 2, 1},
			{40, 8, 2, 2, 1}, // ragged last tile
			{33, 4, 3, 2, 1}, // very ragged
		} {
			a := mat.RandomDiagDominant(tc.n, uint64(tc.n)+7)
			res, _ := factorNumeric(t, a, tc.opt(swap))
			checkFactors(t, tc, a, res, 1e-11)
		}
	})
}

func TestNumericLayered25D(t *testing.T) {
	// The heart of both engines: c > 1 layers of lazy Schur accumulators.
	forPolicies(t, func(t *testing.T, swap bool) {
		for _, tc := range []numericCase{
			{32, 4, 2, 2, 2},
			{48, 4, 2, 2, 3},
			{64, 8, 2, 2, 2},
			{64, 4, 2, 2, 4},
			{40, 8, 2, 2, 2},   // ragged
			{60, 4, 2, 3, 2},   // ragged + rectangular layers
			{100, 16, 2, 2, 2}, // v ≥ 16: the Schur update runs on the packed kernel
			{96, 32, 1, 2, 2},
		} {
			a := mat.RandomDiagDominant(tc.n, uint64(tc.n)*31+uint64(tc.cc))
			res, _ := factorNumeric(t, a, tc.opt(swap))
			checkFactors(t, tc, a, res, 1e-11)
		}
	})
}

func TestNumericGeneralMatrixNeedsPivoting(t *testing.T) {
	// A general matrix forces genuine tournament pivoting: pivots leave the
	// identity order, by masking or by physical row movement.
	forPolicies(t, func(t *testing.T, swap bool) {
		a := mat.Random(48, 48, 1234) // no diagonal dominance
		res, _ := factorNumeric(t, a, numericCase{48, 4, 2, 2, 2}.opt(swap))
		checkFactors(t, "n=48", a, res, 1e-9)
		moved := 0
		for i, p := range res.Perm {
			if i != p {
				moved++
			}
		}
		if moved == 0 {
			t.Fatal("expected pivoting to reorder rows for a general matrix")
		}
	})
}

func TestDisabledRanksIdle(t *testing.T) {
	// Grid uses 4 of 5 ranks; the 5th must return immediately and the
	// result must still be correct.
	forPolicies(t, func(t *testing.T, swap bool) {
		a := mat.RandomDiagDominant(32, 3)
		res, _ := factorNumeric(t, a, Options{N: 32, V: 4, Grid: grid.Grid{Pr: 2, Pc: 2, Layers: 1, Total: 5}, Swap: swap})
		checkFactors(t, "n=32", a, res, 1e-11)
	})
}

func TestRowMaskingNeverMovesRows(t *testing.T) {
	// Perm must be a permutation and pivot rows must be spread (tournament
	// picks the numerically largest rows, which for this seeded matrix are
	// not the identity order).
	res, _ := factorNumeric(t, mat.RandomDiagDominant(32, 99), numericCase{32, 4, 2, 2, 1}.opt(false))
	if err := testutil.IsPermutation(res.Perm, 32); err != nil {
		t.Fatal(err)
	}
}

func runVolume(t *testing.T, opt Options) *trace.Report {
	t.Helper()
	rep, err := smpi.Exec(context.Background(), smpi.Config{P: opt.Grid.Total, Timeout: testTimeout}, func(c *smpi.Comm) error {
		_, err := Run(c, nil, opt)
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

// Masking only: under swapping the volume depends on which rows win, since
// every pivot outside its slot costs a row exchange, and volume mode's
// tournament picks its winners without values.
func TestVolumeModeCloseToNumeric(t *testing.T) {
	opt := numericCase{48, 4, 2, 2, 2}.opt(false)
	_, repN := factorNumeric(t, mat.RandomDiagDominant(48, 11), opt)
	repV := runVolume(t, opt)
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
	repA := runVolume(t, Options{N: n, V: 4, Grid: gridFor(2, 2, 4, 16)})
	repB := runVolume(t, Options{N: n, V: 4, Grid: gridFor(4, 4, 4, 64)})
	perA := float64(algoBytes(repA)) / 16
	perB := float64(algoBytes(repB)) / 64
	if perB >= perA {
		t.Fatalf("per-rank volume did not shrink: %.0f -> %.0f", perA, perB)
	}
}

func TestVolumeNearFittedModel(t *testing.T) {
	n, p := 256, 16
	rep := runVolume(t, Options{N: n, V: 4, Grid: gridFor(2, 2, 4, p)})
	meas := float64(algoBytes(rep)) / float64(p) / trace.BytesPerElement
	params := costmodel.Params{N: n, P: p, M: float64(n) * float64(n) * 4 / float64(p)}
	model := ModelPerRankElements(params)
	ratio := meas / model
	if ratio < 0.3 || ratio > 3 {
		t.Fatalf("measured %.0f vs fitted model %.0f elements/rank (ratio %.2f)", meas, model, ratio)
	}
}

func TestSwappingCostsMoreThanMasking(t *testing.T) {
	// The paper's §7.3 ablation: physical row swapping inflates the leading
	// term versus COnfLUX's row masking. Verified end-to-end in the bench
	// harness; here we check the swap phase is a visible share of traffic.
	rep := runVolume(t, numericCase{128, 4, 2, 2, 2}.opt(true))
	swap := rep.ByPhase["CANDMC.swap"]
	if swap == 0 {
		t.Fatal("no swap traffic metered")
	}
	if total := algoBytes(rep); float64(swap) < 0.10*float64(total) {
		t.Fatalf("swap traffic %.1f%% of %d bytes — too small to be physical swapping",
			100*float64(swap)/float64(total), total)
	}
}

func TestSingularReported(t *testing.T) {
	forPolicies(t, func(t *testing.T, swap bool) {
		opt := numericCase{16, 4, 2, 2, 1}.opt(swap)
		_, err := smpi.Exec(context.Background(), smpi.Config{P: 4, Payload: true, Timeout: testTimeout}, func(c *smpi.Comm) error {
			var in *mat.Matrix
			if c.Rank() == 0 {
				in = mat.New(16, 16) // zero matrix
			}
			_, err := Run(c, in, opt)
			return err
		})
		if err == nil {
			t.Fatal("expected singular failure")
		}
	})
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

func TestCANDMCOptions(t *testing.T) {
	n := 1024
	mem := float64(n) * float64(n) // plenty: c = P^{1/3}
	opt := CANDMCOptions(n, 64, mem)
	if opt.Grid.Layers != 4 || opt.Grid.Used() != 64 || !opt.Swap {
		t.Fatalf("options %+v", opt)
	}
	// Prime p: c must divide p, so replication collapses to 1 (greedy).
	opt = CANDMCOptions(n, 7, mem)
	if opt.Grid.Layers != 1 || opt.Grid.Used() != 7 {
		t.Fatalf("grid %+v", opt.Grid)
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

func TestPlanSwapsBringsPivotsToSlots(t *testing.T) {
	// Simulate the plan on an explicit array and verify pivots land on top.
	n, v, tt := 16, 4, 1
	pivIDs := []int{9, 4, 14, 6} // rows to land at slots 4,5,6,7
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	for _, sw := range planSwaps(pivIDs, tt, v) {
		rows[sw[0]], rows[sw[1]] = rows[sw[1]], rows[sw[0]]
	}
	for i, p := range pivIDs {
		if rows[tt*v+i] != p {
			t.Fatalf("slot %d holds %d, want %d (rows=%v)", tt*v+i, rows[tt*v+i], p, rows)
		}
	}
}

func TestPlanSwapsChainedCollisions(t *testing.T) {
	// Pivot rows that collide with target slots must still resolve.
	n, v := 8, 4
	pivIDs := []int{1, 0, 3, 2} // all within the target tile, permuted
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	for _, sw := range planSwaps(pivIDs, 0, v) {
		rows[sw[0]], rows[sw[1]] = rows[sw[1]], rows[sw[0]]
	}
	for i, p := range pivIDs {
		if rows[i] != p {
			t.Fatalf("slot %d holds %d want %d", i, rows[i], p)
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
// matrix size, raggedness) all factor correctly under both policies.
func TestQuickRandomConfigurations(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	forPolicies(t, func(t *testing.T, swap bool) {
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
			a := mat.RandomDiagDominant(n, uint64(i)*1297+5)
			res, _ := factorNumeric(t, a, numericCase{n, v, pr, pc, cc}.opt(swap))
			checkFactors(t, fmt.Sprintf("cfg %d (n=%d v=%d %dx%dx%d)", i, n, v, pr, pc, cc), a, res, 1e-10)
		}
	})
}

func TestPhaseBreakdownPresent(t *testing.T) {
	forPolicies(t, func(t *testing.T, swap bool) {
		rep := runVolume(t, numericCase{64, 4, 2, 2, 2}.opt(swap))
		name := "COnfLUX" // Run's default labels
		if swap {
			name = "CANDMC"
		}
		phases := []string{".pivot", ".bcast-a00", ".panel-a10", ".panel-a01"}
		if swap {
			phases = append(phases, ".swap")
		} else if rep.ByPhase[name+".swap"] != 0 {
			t.Fatalf("masking metered swap traffic: %v", rep.ByPhase)
		}
		for _, ph := range phases {
			if rep.ByPhase[name+ph] == 0 {
				t.Fatalf("phase %s not metered: %v", name+ph, rep.ByPhase)
			}
		}
	})
}

// The engine's per-step cost rests on two facts, checked here under both row
// policies on every rank of a volume world with a ragged last tile on a
// non-square grid (517 on 3×4×1) and of a layered one (256 on 2×2×2): after
// every step the own-row active list, maintained by deleting the step's
// pivots, is exactly what a scan of the mask finds in this rank's grid row —
// and, under swapping, the suffix of the grid row's rows below tile row t;
// and the slot tables a rank builds for its own row and column hold a
// communicator exactly where the rank is in the group and the policy can use
// the slot (grid's TestPanelGroupsStayInOwnRowAndColumn shows no group of
// another row or column can contain it).
func TestOwnRowInvariants(t *testing.T) {
	forPolicies(t, func(t *testing.T, swap bool) {
		for _, tc := range []struct {
			n, v int
			g    grid.Grid
		}{
			{517, 8, gridFor(3, 4, 1, 12)},
			{256, 4, gridFor(2, 2, 2, 8)},
		} {
			g, c := tc.g, tc.g.Layers
			_, err := smpi.Exec(context.Background(), smpi.Config{P: g.Total, Timeout: testTimeout}, func(cm *smpi.Comm) error {
				e := &engine{world: cm, opt: Options{Name: "test", N: tc.n, V: tc.v, Grid: g, Swap: swap}}
				e.setup(nil)
				for lstar := 0; lstar < c; lstar++ {
					for ownerCol := 0; ownerCol < g.Pc; ownerCol++ {
						member := slices.Contains(g.PanelRowGroup(e.row, ownerCol, lstar), cm.Rank())
						if built := e.a10Comms[ownerCol*c+lstar] != nil; built != member {
							return fmt.Errorf("rank %d: A10 slot (%d, %d) built=%v, member=%v", cm.Rank(), ownerCol, lstar, built, member)
						}
					}
					for asmRow := 0; asmRow < g.Pr; asmRow++ {
						usable := (swap || asmRow == 0) && slices.Contains(g.PanelColGroup(e.col, asmRow, lstar), cm.Rank())
						if built := e.a01Comms[asmRow*c+lstar] != nil; built != usable {
							return fmt.Errorf("rank %d: A01 slot (%d, %d) built=%v, usable=%v", cm.Rank(), asmRow, lstar, built, usable)
						}
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
					if suffix := e.bc.RowsInGridRow(e.row, min(tc.n, (step+1)*tc.v)); swap && !slices.Equal(e.active, suffix) {
						return fmt.Errorf("rank %d after step %d: active list %v, rows below tile row %d %v", cm.Rank(), step, e.active, step, suffix)
					}
				}
				e.collect()
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d %+v: %v", tc.n, g, err)
			}
		}
	})
}
