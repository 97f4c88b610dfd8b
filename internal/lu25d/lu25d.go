// Package lu25d implements a CANDMC-style 2.5D LU factorization (Solomonik &
// Demmel) — the communication-avoiding baseline of the paper's evaluation.
// Like COnfLUX it uses tournament pivoting, c replication layers with lazy
// Schur-update accumulators, and per-layer update assignment; unlike COnfLUX
// it performs PHYSICAL ROW SWAPPING: pivot rows are moved into the diagonal
// block across every replication layer, which is exactly the design choice
// the paper charges with "increas[ing] the row swapping cost … to
// O(N³/(P√M))" (§7.3). Its modeled I/O cost is 5N³/(P√M) per rank (Table 2,
// model taken from the CANDMC authors).
package lu25d

import (
	"fmt"
	"slices"

	"repro/internal/costmodel"
	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/lapack"
	"repro/internal/mat"
	"repro/internal/smpi"
)

// Options configures the 2.5D baseline.
type Options struct {
	Name string
	N    int
	V    int // block size
	Grid grid.Grid
}

// CANDMCOptions returns the paper's CANDMC configuration for p ranks with
// local memory mem: replication c = min(PM/N², P^{1/3}) on a greedy grid
// (CANDMC does not disable ranks — "other implementations … greedily try to
// utilize all resources", §8).
func CANDMCOptions(n, p int, mem float64) Options {
	c := grid.MaxReplication(p, mem, n)
	// Greedy: the largest c' <= c dividing p, squarest layer grid.
	for c > 1 && p%c != 0 {
		c--
	}
	layer := grid.Square2D(p / c)
	g := grid.Grid{Pr: layer.Pr, Pc: layer.Pc, Layers: c, Total: p}
	return Options{Name: "CANDMC", N: n, V: costmodel.BaselineBlockSize(n, c), Grid: g}
}

// Result mirrors lu2d: LU (at world rank 0, numeric mode) holds the in-place
// factors of the row-permuted matrix; Perm[i] is the original row now at
// position i.
type Result struct {
	LU   *mat.Matrix
	Perm []int
}

// Run executes the factorization. a is consulted at world rank 0 only.
func Run(c *smpi.Comm, a *mat.Matrix, opt Options) (*Result, error) {
	if opt.Name == "" {
		opt.Name = "CANDMC"
	}
	if opt.V < opt.Grid.Layers {
		panic(fmt.Sprintf("lu25d: v=%d must be >= c=%d", opt.V, opt.Grid.Layers))
	}
	if c.Size() != opt.Grid.Total {
		panic(fmt.Sprintf("lu25d: world %d != grid total %d", c.Size(), opt.Grid.Total))
	}
	if c.WorldRank() >= opt.Grid.Used() {
		return &Result{}, nil
	}
	e := &engine{world: c, opt: opt}
	return e.run(a)
}

type engine struct {
	world *smpi.Comm
	opt   Options

	g               grid.Grid
	bc              grid.BlockCyclic
	row, col, layer int
	ac              *smpi.Comm
	fiber           *smpi.Comm
	tourn           *smpi.Comm
	colc            *smpi.Comm // my (col, layer) column communicator, for swaps
	store           *dist.Store
	phase           struct{ reduceCol, pivot, bcastA00, swap, panelA10, panelA01, update string }

	// Panel broadcast communicators (see panelComms); nil where this rank is
	// outside the group.
	a10Comms []*smpi.Comm // by ownerCol·c + assigned layer, for my grid row
	a01Comms []*smpi.Comm // by ownerRow·c + assigned layer, for my grid column

	perm []int

	a00    *mat.Matrix
	pivIDs []int
	a10    *mat.Matrix // consumer rows (contiguous below the diagonal block)
	a10Lo  int         // first global row of a10 in my grid row
	a01    *mat.Matrix
}

func (e *engine) run(a *mat.Matrix) (*Result, error) {
	e.g = e.opt.Grid
	e.bc = grid.BlockCyclic{G: e.g, V: e.opt.V, N: e.opt.N}
	e.row, e.col, e.layer = e.g.Coords(e.world.Rank())
	e.ac = e.world.Sub("active", e.g.ActiveComm())
	e.fiber = e.ac.Sub(fmt.Sprintf("fiber.%d.%d", e.row, e.col), e.g.FiberComm(e.row, e.col))
	if e.layer == 0 {
		e.tourn = e.ac.Sub(fmt.Sprintf("tourn.%d", e.col), e.g.ColComm(e.col, 0))
	}
	e.colc = e.ac.Sub(fmt.Sprintf("colc.%d.%d", e.col, e.layer), e.g.ColComm(e.col, e.layer))
	e.panelComms()
	name := e.opt.Name
	e.phase.reduceCol, e.phase.pivot, e.phase.bcastA00, e.phase.swap = name+".reduce-col", name+".pivot", name+".bcast-a00", name+".swap"
	e.phase.panelA10, e.phase.panelA01, e.phase.update = name+".panel-a10", name+".panel-a01", name+".update"
	e.store = dist.NewStore(e.bc, e.row, e.col, e.layer, e.world.Payload())
	e.perm = make([]int, e.opt.N)
	for i := range e.perm {
		e.perm[i] = i
	}
	if e.layer == 0 {
		dist.Scatter(e.world, 0, a, e.g, e.store)
	}

	nt := e.bc.Tiles()
	for t := 0; t < nt; t++ {
		stack, lo := e.reduceColumn(t)
		if err := e.tournament(t, stack, lo); err != nil {
			return nil, err
		}
		e.broadcastA00(t)
		e.applySwaps(t)
		e.factorizeA10(t)
		e.factorizeA01(t)
		e.update(t)
	}

	res := &Result{Perm: e.perm}
	if e.layer == 0 {
		if e.world.Rank() == 0 {
			lu := mat.NewPhantom(e.opt.N, e.opt.N)
			if e.world.Payload() {
				lu = mat.New(e.opt.N, e.opt.N)
			}
			dist.Gather(e.world, 0, lu, e.g, e.store)
			res.LU = lu
		} else {
			dist.Gather(e.world, 0, nil, e.g, e.store)
		}
	}
	return res, nil
}

// panelComms builds, once, the A10 and A01 broadcast communicators of this
// rank's grid row and column: one per (owner column, assigned layer) and per
// (owner row, assigned layer). conflux's panelComms says why the steps that
// map to one slot may share its communicator.
func (e *engine) panelComms() {
	c, me := e.g.Layers, e.world.Rank()
	e.a10Comms, e.a01Comms = make([]*smpi.Comm, e.g.Pc*c), make([]*smpi.Comm, e.g.Pr*c)
	for lstar := 0; lstar < c; lstar++ {
		for ownerCol := 0; ownerCol < e.g.Pc; ownerCol++ {
			if m := e.g.PanelRowGroup(e.row, ownerCol, lstar); slices.Contains(m, me) {
				e.a10Comms[ownerCol*c+lstar] = e.ac.Sub(fmt.Sprintf("a10.%d.%d.%d", e.row, ownerCol, lstar), m)
			}
		}
		for ownerRow := 0; ownerRow < e.g.Pr; ownerRow++ {
			if m := e.g.PanelColGroup(e.col, ownerRow, lstar); slices.Contains(m, me) {
				e.a01Comms[ownerRow*c+lstar] = e.ac.Sub(fmt.Sprintf("a01.%d.%d.%d", e.col, ownerRow, lstar), m)
			}
		}
	}
}

// reduceColumn sums the trailing rows (>= t·v) of block column t across the
// replication layers onto the layer-0 owners.
func (e *engine) reduceColumn(t int) (*mat.Matrix, []int) {
	if e.col != e.bc.OwnerCol(t) {
		return nil, nil
	}
	e.ac.SetPhase(e.phase.reduceCol)
	rows := e.bc.RowsInGridRow(e.row, t*e.opt.V)
	if len(rows) == 0 {
		return nil, nil
	}
	stack := e.store.StackColumnRows(t, rows)
	e.fiber.ReduceMatSum(0, stack)
	if e.layer == 0 {
		e.store.UnstackColumnRows(t, rows, stack)
		return stack, rows
	}
	if e.store.Payload() {
		_, w := e.bc.TileDims(t, t)
		e.store.UnstackColumnRows(t, rows, mat.New(len(rows), w))
	}
	return nil, nil
}

// tournament selects the w pivot rows via butterfly playoff rounds. CANDMC
// uses the same CALU tournament as COnfLUX (§7.3 cites Grigori et al. for
// both).
func (e *engine) tournament(t int, stack *mat.Matrix, rows []int) error {
	e.pivIDs, e.a00 = nil, nil
	if e.layer != 0 || e.col != e.bc.OwnerCol(t) {
		return nil
	}
	e.ac.SetPhase(e.phase.pivot)
	_, w := e.bc.TileDims(t, t)
	win, err := lapack.SelectCandidates(lapack.StackCandidates(stack, rows), w)
	if err != nil {
		return err
	}
	res := e.tourn.Butterfly(win.Msg(w), func(mine, theirs smpi.Msg) smpi.Msg {
		m := lapack.MergeCandidates(lapack.CandidatesFromMsg(mine, w), lapack.CandidatesFromMsg(theirs, w))
		nxt, err := lapack.SelectCandidates(m, w)
		if err != nil {
			panic(err) // converted to a run error by the runtime
		}
		return nxt.Msg(w)
	})
	winners := lapack.CandidatesFromMsg(res, w)
	if len(winners.IDs) < w {
		return fmt.Errorf("lu25d: only %d rows available for a %d-wide panel", len(winners.IDs), w)
	}
	a00, ids, err := lapack.FactorA00(winners)
	if err != nil {
		return err
	}
	e.a00, e.pivIDs = a00, ids
	return nil
}

func (e *engine) broadcastA00(t int) {
	e.ac.SetPhase(e.phase.bcastA00)
	_, w := e.bc.TileDims(t, t)
	root := e.g.Rank(0, e.bc.OwnerCol(t), 0)
	if e.a00 == nil {
		e.a00 = e.store.NewBuffer(w, w)
	}
	e.ac.BcastMat(root, e.a00)
	e.pivIDs = e.ac.BcastInts(root, e.pivIDs)
	// The factored A00 is written into the diagonal tile AFTER the swaps
	// bring the pivot rows into place (see applySwaps).
}
