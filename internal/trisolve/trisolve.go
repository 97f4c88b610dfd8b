// Package trisolve implements the distributed multi-right-hand-side
// triangular solve (block forward/back substitution) that turns the LU
// harness into an end-to-end solver: given the combined factors L\U of P·A
// in the block-cyclic layout the engines produce, it solves L·U·X = P·B on
// a 2D processor grid inside smpi, so the solve phase is metered (trace
// phases "solve.fwd" / "solve.back") and timed under the α-β machine
// exactly like factorization.
//
// Schedule — one step per tile row/column k, forward pass ascending with
// the unit-lower L, back pass descending with the non-unit upper U:
//
//  1. the partial update sums −Σ A(k,j)·X(j) accumulated so far by the
//     ranks of grid row OwnerRow(k) are reduced along that row onto the
//     diagonal owner (volume (Pc−1)·v·NRHS elements),
//  2. the diagonal owner folds the sum into its right-hand-side block and
//     solves the v×NRHS diagonal system (TrsmLowerLeft with unit diagonal
//     on the forward pass, TrsmUpperLeft on the back pass, where a zero
//     U diagonal surfaces as a "singular factor" error),
//  3. the solved block is broadcast down grid column OwnerCol(k) (volume
//     (Pr−1)·v·NRHS), whose ranks fold it into their local accumulators
//     for the steps that still need it.
//
// Each pass therefore moves exactly (Pr+Pc−2)·N·NRHS elements in timed
// phases, but puts 2·nt·O(log Pr + log Pc) messages on the critical path:
// the solve is latency-bound for small NRHS, which is why batching
// right-hand sides is nearly free in simulated time (see DESIGN.md §8).
//
// The RHS scatter from rank 0 and the solution gather back are labeled
// trace.PhaseLayout / trace.PhaseCollect, mirroring the factorization
// harness: the paper assumes operands are already distributed (§7.4), so
// housekeeping is metered but excluded from algorithm volume and time.
package trisolve

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/blas"
	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/mat"
	"repro/internal/smpi"
	"repro/internal/trace"
)

// Phase labels of the two timed solve phases.
const (
	PhaseFwd  = "solve.fwd"
	PhaseBack = "solve.back"
)

// ErrSingular is the sentinel wrapped by solves that hit a zero U pivot.
// The public API re-surfaces it as conflux.ErrSingular.
var ErrSingular = errors.New("singular factor")

// Options configures a distributed triangular solve.
type Options struct {
	N    int       // global matrix dimension
	NRHS int       // number of right-hand sides (columns of B)
	V    int       // tile size
	Grid grid.Grid // 2D grid (Layers == 1) using every rank
}

// DefaultOptions picks the squarest 2D grid over all p ranks and the
// harness-standard tile size 32 (capped at n).
func DefaultOptions(n, p, nrhs int) Options {
	v := 32
	if v > n {
		v = n
	}
	if nrhs < 1 {
		nrhs = 1
	}
	return Options{N: n, NRHS: nrhs, V: v, Grid: grid.Square2D(p)}
}

// Result carries the solve output: in numeric mode, world rank 0 holds the
// N×NRHS solution X of L·U·X = B.
type Result struct {
	X *mat.Matrix
}

// Run executes the solve on an existing world. lu (the combined in-place
// factors, unit-lower L below the diagonal, U on and above) and b (N×NRHS,
// already row-permuted to P·B) are consulted at world rank 0 only — nil
// selects volume mode, where the schedule and the metered bytes are
// identical but no arithmetic happens.
func Run(c *smpi.Comm, lu, b *mat.Matrix, opt Options) (*Result, error) {
	if opt.Grid.Layers != 1 {
		panic("trisolve: requires a 2D grid")
	}
	if opt.Grid.Used() != opt.Grid.Total {
		panic("trisolve: the solve grid uses every rank")
	}
	if c.Size() != opt.Grid.Total {
		panic(fmt.Sprintf("trisolve: world %d != grid total %d", c.Size(), opt.Grid.Total))
	}
	if opt.V < 1 || opt.NRHS < 1 || opt.N < 1 {
		panic(fmt.Sprintf("trisolve: invalid options N=%d V=%d NRHS=%d", opt.N, opt.V, opt.NRHS))
	}
	e := &engine{c: c, opt: opt}
	return e.run(lu, b)
}

// rhsTag is the first point-to-point tag of the solve's own traffic on the
// world communicator.
const rhsTag = dist.Tag + 1

type engine struct {
	c   *smpi.Comm
	opt Options

	g        grid.Grid
	bc       grid.BlockCyclic
	row, col int
	rowComm  *smpi.Comm // my grid row, for both passes' reductions
	colComm  *smpi.Comm // my grid column, for both passes' broadcasts
	myRows   []int      // my tile rows, ascending: tile row k sits at k / Pr
	store    *dist.Store
	bTiles   []*mat.Matrix // by position in myRows: right-hand-side blocks at diagonal owners
	// acc[pos(j)] holds −Σ A(j,k)·X(k) over the steps k of the current pass
	// this rank's grid column has already seen; it is reduced row-wise, and
	// cleared, when j becomes the pivot, so every pass leaves it all nil.
	acc []*mat.Matrix
}

func (e *engine) run(lu, b *mat.Matrix) (*Result, error) {
	e.g = e.opt.Grid
	e.bc = grid.BlockCyclic{G: e.g, V: e.opt.V, N: e.opt.N}
	e.row, e.col, _ = e.g.Coords(e.c.Rank())
	// One row and one column communicator serve every step of both passes:
	// each step reduces over its owner's grid row and broadcasts down its
	// owner's grid column, and every member of a row (column) takes part in
	// each of its steps, so the members advance the communicator's collective
	// sequence — which gives each collective its tag — in lockstep.
	e.rowComm = e.c.Sub(fmt.Sprintf("solve.row.%d", e.row), e.g.RowComm(e.row, 0))
	e.colComm = e.c.Sub(fmt.Sprintf("solve.col.%d", e.col), e.g.ColComm(e.col, 0))
	e.myRows = e.bc.LocalTileRows(e.row, 0)
	e.acc = make([]*mat.Matrix, len(e.myRows))
	e.store = dist.NewStore(e.bc, e.row, e.col, 0, e.c.Payload())
	nt := e.bc.Tiles()
	// RHS tags [rhsTag, rhsTag+nt) and solution tags [rhsTag+nt, rhsTag+2nt)
	// sit directly above the one tag dist's factor scatter uses.
	if rhsTag+2*nt >= 1<<30 {
		panic(fmt.Sprintf("trisolve: %d tiles exhaust the point-to-point tag space", nt))
	}
	dist.Scatter(e.c, 0, lu, e.g, e.store)
	e.scatterRHS(b)
	if err := e.pass(false); err != nil {
		return nil, err
	}
	if err := e.pass(true); err != nil {
		return nil, err
	}
	e.store.Release()
	return e.gather(), nil
}

// scatterRHS distributes the right-hand-side blocks from rank 0 to the
// diagonal-tile owners (block k lives where tile (k,k) lives). Labeled
// layout: input distribution is housekeeping, like the factor scatter.
func (e *engine) scatterRHS(b *mat.Matrix) {
	prev := e.c.Phase()
	defer e.c.SetPhase(prev)
	e.c.SetPhase(trace.PhaseLayout)
	nt := e.bc.Tiles()
	e.bTiles = make([]*mat.Matrix, len(e.myRows))
	if e.c.Rank() == 0 {
		if b != nil && (b.Rows != e.opt.N || b.Cols != e.opt.NRHS) {
			panic(fmt.Sprintf("trisolve: rhs %dx%d != %dx%d", b.Rows, b.Cols, e.opt.N, e.opt.NRHS))
		}
		for k := 0; k < nt; k++ {
			rows, _ := e.bc.TileDims(k, k)
			var src *mat.Matrix
			if b != nil {
				src = b.View(k*e.opt.V, 0, rows, e.opt.NRHS)
			} else {
				src = mat.NewPhantom(rows, e.opt.NRHS)
			}
			if owner := e.bc.Owner(k, k, 0); owner != 0 {
				e.c.SendMat(owner, rhsTag+k, src)
			} else {
				t := e.store.NewBuffer(rows, e.opt.NRHS)
				t.CopyFrom(src)
				e.bTiles[e.pos(k)] = t
			}
		}
		return
	}
	for k := 0; k < nt; k++ {
		if e.bc.Owner(k, k, 0) != e.c.Rank() {
			continue
		}
		rows, _ := e.bc.TileDims(k, k)
		t := e.store.NewBuffer(rows, e.opt.NRHS)
		e.c.RecvMat(0, rhsTag+k, t)
		e.bTiles[e.pos(k)] = t
	}
}

// pass runs one substitution sweep: forward over the unit-lower factor
// (upper=false, ascending steps) or backward over the upper factor
// (upper=true, descending steps).
func (e *engine) pass(upper bool) error {
	nt := e.bc.Tiles()
	if upper {
		e.c.SetPhase(PhaseBack)
	} else {
		e.c.SetPhase(PhaseFwd)
	}
	for s := 0; s < nt; s++ {
		k := s
		if upper {
			k = nt - 1 - s
		}
		gr, gc := e.bc.OwnerRow(k), e.bc.OwnerCol(k)
		rows, _ := e.bc.TileDims(k, k)
		if e.row == gr {
			m := e.acc[e.pos(k)]
			if m == nil {
				m = e.store.NewBuffer(rows, e.opt.NRHS)
			}
			e.acc[e.pos(k)] = nil
			e.rowComm.ReduceMatSum(gc, m)
			if e.col == gc {
				bk := e.bTiles[e.pos(k)]
				bk.AddFrom(m)
				diag := e.store.Tile(k, k)
				if upper {
					if err := checkPivots(diag, k*e.opt.V); err != nil {
						return err
					}
					blas.TrsmUpperLeft(diag, bk)
				} else {
					blas.TrsmLowerLeft(diag, bk, true)
				}
			}
		}
		if e.col == gc {
			x := e.store.NewBuffer(rows, e.opt.NRHS)
			if e.row == gr {
				x.CopyFrom(e.bTiles[e.pos(k)])
			}
			e.colComm.BcastMat(gr, x)
			lo, hi := e.remaining(k, upper)
			for i := lo; i < hi; i++ {
				tj := e.myRows[i]
				a := e.acc[i]
				if a == nil {
					r2, _ := e.bc.TileDims(tj, tj)
					a = e.store.NewBuffer(r2, e.opt.NRHS)
					e.acc[i] = a
				}
				blas.Gemm(-1, e.store.Tile(tj, k), x, 1, a)
			}
		}
	}
	return nil
}

// pos is the position of tile row k, one of this rank's, in myRows.
func (e *engine) pos(k int) int { return k / e.g.Pr }

// remaining returns the span [lo, hi) of myRows still to be solved after
// step k: below the diagonal on the forward pass, above it on the back pass.
func (e *engine) remaining(k int, upper bool) (lo, hi int) {
	if !upper {
		i, _ := slices.BinarySearch(e.myRows, k+1)
		return i, len(e.myRows)
	}
	i, _ := slices.BinarySearch(e.myRows, k)
	return 0, i
}

// checkPivots rejects a zero U diagonal before dividing by it — the factors
// of a singular matrix must surface as an error, not as Inf/NaN in X.
func checkPivots(diag *mat.Matrix, row0 int) error {
	if diag.Phantom() {
		return nil
	}
	for d := 0; d < diag.Rows; d++ {
		if diag.At(d, d) == 0 {
			return fmt.Errorf("trisolve: %w: zero pivot on row %d", ErrSingular, row0+d)
		}
	}
	return nil
}

// gather collects the solved blocks back to rank 0 (labeled collect).
func (e *engine) gather() *Result {
	prev := e.c.Phase()
	defer e.c.SetPhase(prev)
	e.c.SetPhase(trace.PhaseCollect)
	nt := e.bc.Tiles()
	base := rhsTag + nt
	if e.c.Rank() != 0 {
		for k := 0; k < nt; k++ {
			if e.bc.Owner(k, k, 0) == e.c.Rank() {
				e.c.SendMat(0, base+k, e.bTiles[e.pos(k)])
			}
		}
		return &Result{}
	}
	var x *mat.Matrix
	if e.c.Payload() {
		x = mat.New(e.opt.N, e.opt.NRHS)
	} else {
		x = mat.NewPhantom(e.opt.N, e.opt.NRHS)
	}
	for k := 0; k < nt; k++ {
		rows, _ := e.bc.TileDims(k, k)
		dst := x.View(k*e.opt.V, 0, rows, e.opt.NRHS)
		if owner := e.bc.Owner(k, k, 0); owner != 0 {
			e.c.RecvMat(owner, base+k, dst)
		} else {
			dst.CopyFrom(e.bTiles[e.pos(k)])
		}
	}
	return &Result{X: x}
}
