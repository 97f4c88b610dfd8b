// Package lu2d implements the 2D block-cyclic right-looking LU factorization
// with partial pivoting that the paper measures as Cray LibSci (ScaLAPACK)
// and SLATE: "both LibSci and SLATE base on the standard partial pivoting
// algorithm using the 2D decomposition" (§8). Its per-rank I/O cost is
// N²/√P + O(N²/P) (Table 2).
//
// The engine performs distributed column-by-column pivot search
// (AllreduceMaxLoc down the grid column — the O(N) latency partial-pivoting
// path the paper contrasts with tournament pivoting), physical row swaps
// across the whole matrix, L-panel broadcasts along grid rows and U-panel
// broadcasts along grid columns, and local trailing GEMM updates.
package lu2d

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/blas"
	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/mat"
	"repro/internal/smpi"
)

// Options configures the 2D engine.
type Options struct {
	Name string // preset name for phase labels / reports
	N    int    // global matrix dimension
	NB   int    // block (tile) size
	Grid grid.Grid
	// RingBcast selects ring-pipelined panel broadcasts (SLATE-style)
	// instead of binomial trees (LibSci-style). Volume is identical; the
	// flag exists to mirror the libraries' different broadcast engines.
	RingBcast bool
}

// LibSciOptions mirrors the vendor ScaLAPACK setup: user-specified block
// size (the paper's Table 2 lists LibSci as "user param required"), square
// greedy grid over all P ranks.
func LibSciOptions(n, p, nb int) Options {
	return Options{Name: "LibSci", N: n, NB: nb, Grid: grid.Square2D(p)}
}

// SLATEOptions mirrors SLATE's defaults (block size 16 per Table 2) and its
// ring broadcasts.
func SLATEOptions(n, p int) Options {
	return Options{Name: "SLATE", N: n, NB: 16, Grid: grid.Square2D(p), RingBcast: true}
}

// Result carries the factorization output, at world rank 0 only: the
// LAPACK-style pivot vector Ipiv and LU, the combined in-place factors of P·A
// (a phantom in volume mode). Every other rank gets a nil LU and a nil Ipiv,
// so no rank but the one that returns them keeps an N-length array.
type Result struct {
	LU   *mat.Matrix
	Ipiv []int
}

// ErrSingular is returned when no nonzero pivot exists in some column.
var ErrSingular = errors.New("lu2d: matrix is singular to working precision")

// Run executes the factorization on an existing world. a is consulted at
// world rank 0 only (nil in volume mode). The result is rank 0's; every other
// rank gets an empty one (see Result).
func Run(c *smpi.Comm, a *mat.Matrix, opt Options) (*Result, error) {
	if opt.Grid.Layers != 1 {
		panic("lu2d: requires a 2D grid")
	}
	if c.Size() != opt.Grid.Total {
		panic(fmt.Sprintf("lu2d: world %d != grid total %d", c.Size(), opt.Grid.Total))
	}
	if opt.Grid.Used() != opt.Grid.Total {
		panic("lu2d: 2D engine greedily uses all ranks (paper §8)")
	}
	e := &engine{c: c, opt: opt}
	return e.run(a)
}

type engine struct {
	c   *smpi.Comm
	opt Options

	g        grid.Grid
	bc       grid.BlockCyclic
	row, col int
	rowComm  *smpi.Comm
	colComm  *smpi.Comm
	store    *dist.Store
	phase    struct{ panel, swap, lpanel, trsm, upanel, update string }

	// The tile rows and columns this rank owns, ascending, fixed for the
	// run; every step works on the suffix from its k. colWidths[i] is the
	// width of tile column myCols[i].
	myRows, myCols []int
	colWidths      []int
	// Per-step caches of received panel tiles, indexed by position in
	// myRows/myCols (nil before the step's k) and reset every step.
	lPanel []*mat.Matrix // tiles (ti, k) for local tile rows
	uPanel []*mat.Matrix // tiles (k, tj) for local tile cols
	piv    []int         // panel's pivot buffer, reused every step (see panel)
}

// suffix returns the part of an ascending local tile list with indices >= k,
// and its position in the list.
func suffix(local []int, k int) (int, []int) {
	i, _ := slices.BinarySearch(local, k)
	return i, local[i:]
}

func (e *engine) run(a *mat.Matrix) (*Result, error) {
	e.g = e.opt.Grid
	e.bc = grid.BlockCyclic{G: e.g, V: e.opt.NB, N: e.opt.N}
	e.row, e.col, _ = e.g.Coords(e.c.Rank())
	e.rowComm = e.c.Sub(fmt.Sprintf("row.%d", e.row), e.g.RowComm(e.row, 0))
	e.colComm = e.c.Sub(fmt.Sprintf("col.%d", e.col), e.g.ColComm(e.col, 0))
	e.store = dist.NewStore(e.bc, e.row, e.col, 0, e.c.Payload())
	name := e.opt.Name
	e.phase.panel, e.phase.swap, e.phase.lpanel = name+".panel", name+".swap", name+".lpanel"
	e.phase.trsm, e.phase.upanel, e.phase.update = name+".trsm", name+".upanel", name+".update"
	e.myRows, e.myCols = e.bc.LocalTileRows(e.row, 0), e.bc.LocalTileCols(e.col, 0)
	e.colWidths = make([]int, len(e.myCols))
	for i, tj := range e.myCols {
		_, e.colWidths[i] = e.bc.TileDims(tj, tj)
	}
	e.lPanel = make([]*mat.Matrix, len(e.myRows))
	e.uPanel = make([]*mat.Matrix, len(e.myCols))
	e.piv = make([]int, min(e.opt.NB, e.opt.N)) // the widest tile: nb has no upper bound
	dist.Scatter(e.c, 0, a, e.g, e.store)

	n := e.opt.N
	nt := e.bc.Tiles()
	var ipiv []int // the pivot vector, kept where it is returned
	if e.c.Rank() == 0 {
		ipiv = make([]int, n)
	}
	for k := 0; k < nt; k++ {
		piv, err := e.panel(k)
		if err != nil {
			return nil, err
		}
		if ipiv != nil {
			copy(ipiv[k*e.opt.NB:], piv)
		}
		e.applySwaps(k, piv)
		e.broadcastLPanel(k)
		e.trsmU(k)
		e.broadcastUPanel(k)
		e.update(k)
	}

	var lu *mat.Matrix
	if e.c.Rank() == 0 {
		if e.c.Payload() {
			lu = mat.New(n, n)
		} else {
			lu = mat.NewPhantom(n, n)
		}
	}
	dist.Gather(e.c, 0, lu, e.g, e.store)
	return &Result{LU: lu, Ipiv: ipiv}, nil
}

// pseudoPriority gives volume-mode runs a deterministic pseudo-random pivot
// choice so that physical-swap traffic matches the evenly-distributed-pivot
// behaviour of numeric runs (instead of degenerating to no-op swaps).
func pseudoPriority(col, row int) float64 {
	x := uint64(col)*0x9E3779B97F4A7C15 ^ uint64(row)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return 1 + float64(x>>11)/(1<<53)
}

// panel factorizes tile column k with distributed partial pivoting and
// returns the global pivot row chosen for each panel column (LAPACK style),
// read-only and valid until the next step: the owning column's ranks fill
// the engine's one pivot buffer, and BcastInts hands the root that buffer
// back and every other rank the copy the root sent.
func (e *engine) panel(k int) ([]int, error) {
	e.c.SetPhase(e.phase.panel)
	_, b := e.bc.TileDims(k, k)
	j0 := k * e.opt.NB
	piv := e.piv[:b]
	inCol := e.bc.OwnerCol(k) == e.col
	_, myTiles := suffix(e.myRows, k) // tile rows >= k in this column

	for j := 0; j < b; j++ {
		kk := j0 + j
		// Local pivot candidate among global rows > kk... (>= kk).
		best := smpi.MaxLoc{Loc: -1}
		if inCol {
			for _, ti := range myTiles {
				t := e.store.Tile(ti, k)
				for r := 0; r < t.Rows; r++ {
					gr := ti*e.opt.NB + r
					if gr < kk {
						continue
					}
					v := pseudoPriority(kk, gr)
					if e.c.Payload() {
						v = t.At(r, j)
					}
					if best.Loc < 0 || absf(v) > absf(best.Val) {
						best = smpi.MaxLoc{Val: v, Loc: gr}
					}
				}
			}
		}
		if !inCol {
			// Not part of this panel; skip to next panel column.
			continue
		}
		got := e.colComm.AllreduceMaxLoc(best)
		if got.Loc < 0 || (e.c.Payload() && got.Val == 0) {
			return nil, ErrSingular
		}
		p := got.Loc
		piv[j] = p
		e.swapPanelRows(k, j, kk, p, b)
		e.eliminateColumn(k, j, kk, b, myTiles)
	}
	// Everyone learns the pivots (the paper's "pivot rows are broadcast to
	// all processors").
	piv = e.c.BcastInts(e.g.Rank(0, e.bc.OwnerCol(k), 0), piv)
	return piv, nil
}

// swapPanelRows exchanges rows kk and p within the panel columns only
// (deferred swaps elsewhere happen in applySwaps).
func (e *engine) swapPanelRows(k, j, kk, p int, b int) {
	if kk == p {
		return
	}
	ti1, ti2 := kk/e.opt.NB, p/e.opt.NB
	o1, o2 := e.bc.OwnerRow(ti1), e.bc.OwnerRow(ti2)
	r1, r2 := kk-ti1*e.opt.NB, p-ti2*e.opt.NB
	tag := 2*kk + 1
	switch {
	case o1 == e.row && o2 == e.row:
		t1, t2 := e.store.Tile(ti1, k), e.store.Tile(ti2, k)
		if !t1.Phantom() {
			blas.Swap(t1.Row(r1), t2.Row(r2))
		}
	case o1 == e.row:
		e.colComm.SwapRows(o2, tag, true, e.store.Tile(ti1, k).View(r1, 0, 1, b), []int{b})
	case o2 == e.row:
		e.colComm.SwapRows(o1, tag, false, e.store.Tile(ti2, k).View(r2, 0, 1, b), []int{b})
	}
}

// eliminateColumn broadcasts the pivot row remainder down the grid column
// and applies the rank-1 elimination to local rows below kk (myTiles: the
// local tile rows >= k).
func (e *engine) eliminateColumn(k, j, kk int, b int, myTiles []int) {
	ti1 := kk / e.opt.NB
	rowOwner := e.bc.OwnerRow(ti1)
	pivRow := e.store.NewBuffer(1, b-j)
	if e.row == rowOwner {
		t := e.store.Tile(ti1, k)
		pivRow.CopyFrom(t.View(kk-ti1*e.opt.NB, j, 1, b-j))
	}
	e.colComm.BcastMat(rowOwner, pivRow)
	if !e.c.Payload() {
		return
	}
	pv := pivRow.At(0, 0)
	for _, ti := range myTiles {
		t := e.store.Tile(ti, k)
		for r := 0; r < t.Rows; r++ {
			gr := ti*e.opt.NB + r
			if gr <= kk {
				continue
			}
			l := t.At(r, j) / pv
			t.Set(r, j, l)
			for jj := j + 1; jj < b; jj++ {
				t.Add(r, jj, -l*pivRow.At(0, jj-j))
			}
		}
	}
}

// applySwaps applies the panel's pivots to all other tile columns (physical
// row swapping — the design choice COnfLUX's row masking removes). The local
// tile columns before and after the panel's are one run of the local panel
// each — a single run when this rank does not own tile column k — so a pivot
// moves as at most two exchanges of one message per tile column each way.
func (e *engine) applySwaps(k int, piv []int) {
	e.c.SetPhase(e.phase.swap)
	all := e.store.Trailing(0)
	lo, _ := suffix(e.myCols, k)
	hi, _ := suffix(e.myCols, k+1)
	if lo == hi {
		lo, hi = len(e.myCols), len(e.myCols)
	}
	for j, p := range piv {
		if kk := k*e.opt.NB + j; p != kk {
			e.swapRun(all, kk, p, 0, lo)
			e.swapRun(all, kk, p, hi, len(e.myCols))
		}
	}
}

// swapRun exchanges global rows kk and p across the local tile columns
// myCols[a:b], a contiguous run of the local panel all.
func (e *engine) swapRun(all *mat.Matrix, kk, p, a, b int) {
	if a == b {
		return
	}
	nb := e.opt.NB
	x, w := a*nb, min((b-a)*nb, all.Cols-a*nb) // only the last tile can be short
	o1, o2 := e.bc.OwnerRow(kk/nb), e.bc.OwnerRow(p/nb)
	switch {
	case o1 == e.row && o2 == e.row:
		if !all.Phantom() {
			blas.Swap(all.Row(e.store.LocalRow(kk))[x:x+w], all.Row(e.store.LocalRow(p))[x:x+w])
		}
	case o1 == e.row:
		e.colComm.SwapRows(o2, 2*kk, true, all.View(e.store.LocalRow(kk), x, 1, w), e.colWidths[a:b])
	case o2 == e.row:
		e.colComm.SwapRows(o1, 2*kk, false, all.View(e.store.LocalRow(p), x, 1, w), e.colWidths[a:b])
	}
}

// broadcastLPanel sends the factored panel tiles along each grid row; after
// it, every rank holds the L tiles matching its local tile rows.
func (e *engine) broadcastLPanel(k int) {
	e.c.SetPhase(e.phase.lpanel)
	root := e.bc.OwnerCol(k)
	clear(e.lPanel)
	i0, rows := suffix(e.myRows, k)
	for i, ti := range rows {
		r, c := e.bc.TileDims(ti, k)
		var buf *mat.Matrix
		if e.col == root {
			buf = e.store.Tile(ti, k)
		} else {
			buf = e.store.NewBuffer(r, c)
		}
		e.bcastRow(root, buf)
		e.lPanel[i0+i] = buf
	}
}

// trsmU solves L00·U01 = A01 on the pivot grid row.
func (e *engine) trsmU(k int) {
	e.c.SetPhase(e.phase.trsm)
	if e.bc.OwnerRow(k) != e.row {
		return
	}
	i, _ := suffix(e.myRows, k) // tile row k is local: myRows[i] == k
	l00 := e.lPanel[i]
	if l00 == nil {
		panic("lu2d: missing diagonal tile after panel broadcast")
	}
	_, cols := suffix(e.myCols, k+1)
	for _, tj := range cols {
		blas.TrsmLowerLeft(l00, e.store.Tile(k, tj), true)
	}
}

// broadcastUPanel sends the solved U tiles down each grid column.
func (e *engine) broadcastUPanel(k int) {
	e.c.SetPhase(e.phase.upanel)
	root := e.bc.OwnerRow(k)
	clear(e.uPanel)
	j0, cols := suffix(e.myCols, k+1)
	for j, tj := range cols {
		r, c := e.bc.TileDims(k, tj)
		var buf *mat.Matrix
		if e.row == root {
			buf = e.store.Tile(k, tj)
		} else {
			buf = e.store.NewBuffer(r, c)
		}
		e.bcastCol(root, buf)
		e.uPanel[j0+j] = buf
	}
}

// update applies the local trailing GEMM A11 -= L10·U01.
func (e *engine) update(k int) {
	e.c.SetPhase(e.phase.update)
	i0, rows := suffix(e.myRows, k+1)
	j0, cols := suffix(e.myCols, k+1)
	for i, ti := range rows {
		l := e.lPanel[i0+i]
		for j, tj := range cols {
			blas.Gemm(-1, l, e.uPanel[j0+j], 1, e.store.Tile(ti, tj))
		}
	}
}

// bcastRow broadcasts along the rank's row communicator, using ring or tree
// per the preset. Ring and tree move the same number of bytes.
func (e *engine) bcastRow(root int, m *mat.Matrix) {
	if e.opt.RingBcast {
		ringBcast(e.rowComm, root, m)
		return
	}
	e.rowComm.BcastMat(root, m)
}

func (e *engine) bcastCol(root int, m *mat.Matrix) {
	if e.opt.RingBcast {
		ringBcast(e.colComm, root, m)
		return
	}
	e.colComm.BcastMat(root, m)
}

func ringBcast(c *smpi.Comm, root int, m *mat.Matrix) {
	p := c.Size()
	if p == 1 {
		return
	}
	// Pass the block around the ring: p-1 hops, volume (p-1)·len — identical
	// to the tree, but pipelined in real libraries.
	me := (c.Rank() - root + p) % p
	const tag = 0x51A7E
	if me != 0 {
		c.RecvMat((c.Rank()-1+p)%p, tag, m)
	}
	if me != p-1 {
		c.SendMat((c.Rank()+1)%p, tag, m)
	}
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
