package conflux

import (
	"context"
	"errors"
	"testing"

	"repro/internal/grid"
	"repro/internal/lapack"
	"repro/internal/mat"
	"repro/internal/smpi"
	"repro/internal/testutil"
	"repro/internal/trace"
	"repro/internal/xpart"
)

func choleskyCase(n, v, pr, cc int) Options {
	return Options{N: n, V: v, Grid: gridFor(pr, pr, cc, pr*pr*cc), Rows: Symmetric}
}

func TestCholeskyNumericSingleRank(t *testing.T) {
	a := testutil.SPD(16, 1)
	res, _ := factorNumeric(t, a, choleskyCase(16, 4, 1, 1))
	if r := testutil.ResidualCholesky(a, res.LU); r > 1e-12 {
		t.Fatalf("residual %v", r)
	}
	if res.Perm != nil {
		t.Fatalf("symmetric policy returned a perm %v", res.Perm)
	}
}

func TestCholeskyNumericDistributed(t *testing.T) {
	for _, tc := range []struct{ n, v, pr, cc int }{
		{16, 4, 2, 1},
		{32, 4, 2, 1},
		{32, 4, 2, 2},
		{48, 4, 2, 3},
		{64, 8, 2, 2},
		{40, 8, 2, 2}, // ragged tiles
		{48, 4, 3, 1}, // 3x3 layer
		// v ≥ 16: the update runs on GemmRows' packed micro-kernel.
		{96, 16, 2, 2},
		{100, 32, 2, 2}, // ragged tiles
	} {
		a := testutil.SPD(tc.n, uint64(tc.n)*7+uint64(tc.cc))
		res, _ := factorNumeric(t, a, choleskyCase(tc.n, tc.v, tc.pr, tc.cc))
		if r := testutil.ResidualCholesky(a, res.LU); r > 1e-10 {
			t.Fatalf("%+v residual %v", tc, r)
		}
	}
}

func TestCholeskyNonSquareLayerRejected(t *testing.T) {
	_, err := smpi.Exec(context.Background(), smpi.Config{P: 6, Timeout: testTimeout}, func(c *smpi.Comm) error {
		_, err := Run(c, nil, Options{N: 16, V: 4, Grid: gridFor(2, 3, 1, 6), Rows: Symmetric})
		return err
	})
	if err == nil {
		t.Fatal("expected square-layer panic")
	}
}

func TestCholeskyNotPDReported(t *testing.T) {
	_, err := smpi.Exec(context.Background(), smpi.Config{P: 4, Payload: true, Timeout: testTimeout}, func(c *smpi.Comm) error {
		var in *mat.Matrix
		if c.Rank() == 0 {
			in = mat.New(16, 16) // zero matrix, not PD
		}
		_, err := Run(c, in, choleskyCase(16, 4, 2, 1))
		return err
	})
	if !errors.Is(err, lapack.ErrNotPD) {
		t.Fatalf("err = %v, want lapack.ErrNotPD", err)
	}
}

// The measured volume sits above the Cholesky lower bound xpart derives.
func TestCholeskyVolumeWithinBound(t *testing.T) {
	n, p := 128, 8
	bytes := algoBytes(runVolume(t, choleskyCase(n, 4, 2, 2)))
	if bytes <= 0 {
		t.Fatal("no traffic")
	}
	m := float64(n) * float64(n) * 2 / float64(p)
	if lower := xpart.CholeskyLowerBound(n, m) * trace.BytesPerElement; float64(bytes) < lower {
		t.Fatalf("measured %d below lower bound %.0f", bytes, lower)
	}
}

func TestCholeskyOptionsSquare(t *testing.T) {
	for _, p := range []int{1, 4, 8, 27, 64, 100} {
		opt := CholeskyOptions(1024, p, 1024*1024)
		if opt.Grid.Pr != opt.Grid.Pc || !opt.Grid.Valid() || opt.Rows != Symmetric {
			t.Fatalf("p=%d: options %+v", p, opt)
		}
		if opt.V < opt.Grid.Layers {
			t.Fatalf("p=%d: v < c", p)
		}
	}
}

// Every rank's slots hold a communicator exactly where it is in the group of
// its grid row (a10Comms) or of its grid column when that differs (a01Comms),
// on a layered grid and on a 3×3 layer with idle ranks and a ragged tile.
func TestCholeskyCommSlots(t *testing.T) {
	for _, tc := range []struct {
		n, v int
		g    grid.Grid
	}{
		{256, 4, gridFor(2, 2, 2, 8)},
		{517, 8, gridFor(3, 3, 1, 12)},
	} {
		g, c := tc.g, tc.g.Layers
		_, err := smpi.Exec(context.Background(), smpi.Config{P: g.Total, Timeout: testTimeout}, func(cm *smpi.Comm) error {
			if cm.Rank() >= g.Used() {
				return nil
			}
			e := &engine{world: cm, opt: Options{N: tc.n, V: tc.v, Grid: g, Rows: Symmetric}}
			e.setup(nil)
			for lstar := range c {
				for ownerCol := range g.Pc {
					row := e.a10Comms[ownerCol*c+lstar] != nil
					inRow := lstar == e.layer || (e.layer == 0 && ownerCol == e.col)
					col := e.a01Comms[ownerCol*c+lstar] != nil
					inCol := lstar == e.layer && e.col != e.row
					if row != inRow || col != inCol {
						t.Errorf("rank %d slot (%d, %d): row group %v want %v, column group %v want %v",
							cm.Rank(), ownerCol, lstar, row, inRow, col, inCol)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
