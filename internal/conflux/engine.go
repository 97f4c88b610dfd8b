package conflux

import (
	"fmt"
	"slices"

	"repro/internal/blas"
	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/lapack"
	"repro/internal/mat"
	"repro/internal/smpi"
)

// Result carries the factorization output. Perm is the pivot order:
// Perm[k] is the PHYSICAL row that became the k-th pivot (rows are never
// moved — COnfLUX masks instead of swapping). In numeric mode world rank 0
// additionally holds LU, the combined in-place factors in logical (pivot)
// row order, so A[Perm,:] = L·U.
type Result struct {
	Perm []int
	LU   *mat.Matrix
}

// Run executes COnfLUX on an existing world. The input matrix a is consulted
// at world rank 0 only (nil in volume mode). Ranks outside the optimized
// grid (opt.Grid.Used() ≤ world size) idle, exactly as the paper's Processor
// Grid Optimization "possibly disabl[es] a minor fraction of nodes".
func Run(c *smpi.Comm, a *mat.Matrix, opt Options) (*Result, error) {
	if opt.Name == "" {
		opt.Name = "COnfLUX"
	}
	if opt.V < opt.Grid.Layers {
		panic(fmt.Sprintf("conflux: v=%d must be at least the layer count c=%d (paper §7.2)", opt.V, opt.Grid.Layers))
	}
	if c.Size() != opt.Grid.Total {
		panic(fmt.Sprintf("conflux: world %d != grid total %d", c.Size(), opt.Grid.Total))
	}
	if c.WorldRank() >= opt.Grid.Used() {
		return &Result{}, nil // disabled rank
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
	ac              *smpi.Comm // active ranks
	fiber           *smpi.Comm // my (row, col) fiber across layers
	tourn           *smpi.Comm // layer-0 column communicator (nil off layer 0)
	store           *dist.Store

	mask        []bool // mask[r]: physical row r not yet chosen as pivot
	perm        []int
	activeByRow [][]int // per-step cache: active rows per grid row

	// Per-step panels are carved from slab (see buffer); used is the mark.
	slab []float64
	used int

	// Per-step caches.
	a00    *mat.Matrix // factored w×w diagonal block (L00\U00)
	pivIDs []int       // this step's pivot rows in factor order
	a10    *mat.Matrix // consumer copy: L10 rows for my grid row
	a10IDs []int
	a01    *mat.Matrix // consumer copy: U01 for my grid-column tile cols
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
	e.store = dist.NewStore(e.bc, e.row, e.col, e.layer, e.world.Payload())
	e.mask = make([]bool, e.opt.N)
	for i := range e.mask {
		e.mask[i] = true
	}
	e.activeByRow = nil // rebuilt from the fresh mask on first refresh
	if e.layer == 0 {
		dist.Scatter(e.world, 0, a, e.g, e.store)
	}

	nt := e.bc.Tiles()
	for t := 0; t < nt; t++ {
		e.used = 0 // every panel of step t−1 has had its last reader
		e.refreshActive()
		stack, rows := e.reduceColumn(t)
		if err := e.tournament(t, stack, rows); err != nil {
			return nil, err
		}
		e.broadcastA00(t)
		e.retirePivots()
		e.refreshActive() // pivot rows left the active set
		e.factorizeA10(t, stack, rows)
		e.factorizeA01(t)
		e.update(t)
	}

	res := &Result{Perm: e.perm}
	if e.layer == 0 {
		var lu *mat.Matrix
		if e.world.Rank() == 0 {
			phys := mat.NewPhantom(e.opt.N, e.opt.N)
			if e.world.Payload() {
				phys = mat.New(e.opt.N, e.opt.N)
			}
			dist.Gather(e.world, 0, phys, e.g, e.store)
			if e.world.Payload() {
				permuteRowsInPlace(phys, e.perm)
			}
			lu = phys
		} else {
			dist.Gather(e.world, 0, nil, e.g, e.store)
		}
		res.LU = lu
	}
	return res, nil
}

// permuteRowsInPlace reorders m so that row k is the old row perm[k] — the
// gathered physical rows into pivot order — by walking perm's cycles with one
// spare row, where a copy would allocate (and zero, and fault in) a second
// N×N matrix per factorization.
func permuteRowsInPlace(m *mat.Matrix, perm []int) {
	done := make([]bool, len(perm))
	spare := make([]float64, m.Cols)
	for start := range perm {
		if done[start] {
			continue
		}
		copy(spare, m.Row(start))
		k := start
		for ; perm[k] != start; k = perm[k] {
			copy(m.Row(k), m.Row(perm[k]))
			done[k] = true
		}
		copy(m.Row(k), spare)
		done[k] = true
	}
}

// refreshActive maintains the per-grid-row active lists; every consumer
// within a step reads the cache (the naive per-call scan was O(N·Pr) per
// step and dominated paper-scale volume runs). The mask only ever clears
// (rows retire as pivots, none return), so after the initial O(N) build
// each refresh just filters the surviving entries in place — O(active),
// which shrinks to nothing as the factorization drains the row set.
func (e *engine) refreshActive() {
	if e.activeByRow == nil {
		e.activeByRow = make([][]int, e.g.Pr)
		for r := 0; r < e.opt.N; r++ {
			if e.mask[r] {
				gr := (r / e.opt.V) % e.g.Pr
				e.activeByRow[gr] = append(e.activeByRow[gr], r)
			}
		}
		return
	}
	for gr, rows := range e.activeByRow {
		live := rows[:0]
		for _, r := range rows {
			if e.mask[r] {
				live = append(live, r)
			}
		}
		e.activeByRow[gr] = live
	}
}

// buffer hands out a rows×cols panel of the current elimination step
// (phantom in volume mode) from the engine's slab, which run rewinds at the
// top of every step: a panel's last reader — the step's solve or update, or
// the send that copies it onto the wire — is always inside the step that
// made it, so a factorization allocates (and the runtime zeroes and collects)
// its panels once instead of once per step. Contents are undefined: every
// caller overwrites the whole panel, by a receive or a copy per row, before
// anything reads it.
func (e *engine) buffer(rows, cols int) *mat.Matrix {
	if !e.store.Payload() {
		return mat.NewPhantom(rows, cols)
	}
	n := rows * cols
	if e.slab == nil || e.used+n > len(e.slab) {
		// Outgrown: the step's earlier panels keep the old slab alive.
		e.slab, e.used = make([]float64, max(2*len(e.slab), n)), 0
	}
	e.used += n
	return mat.FromSlice(rows, cols, e.slab[e.used-n:e.used:e.used])
}

// stackRows is dist's StackColumnRows/StackTrailingRows into a step panel:
// the given global rows of view — a Trailing view of the store, or its
// leading tile column — copied out as a dense len(rows)×view.Cols stack.
func (e *engine) stackRows(view *mat.Matrix, rows []int) *mat.Matrix {
	stack := e.buffer(len(rows), view.Cols)
	if e.store.Payload() {
		for i, r := range rows {
			copy(stack.Row(i), view.Row(e.store.LocalRow(r)))
		}
	}
	return stack
}

// activeRowsInGridRow lists (ascending) the physical rows still active that
// live in grid row gr under the cyclic tile distribution.
func (e *engine) activeRowsInGridRow(gr int) []int {
	return e.activeByRow[gr]
}

// reduceColumn implements Algorithm 1 step 1 ("Reduce next block column"):
// the active rows of tile column t are summed across the c layers onto the
// layer-0 owners. Non-root layers zero their consumed contributions.
// Returns the reduced stack and its row list (meaningful on layer-0 owners).
func (e *engine) reduceColumn(t int) (*mat.Matrix, []int) {
	if e.col != e.bc.OwnerCol(t) {
		return nil, nil
	}
	e.ac.SetPhase(e.opt.Name + ".reduce-col")
	// Copy: the cache backing array is rewritten by the post-retire refresh,
	// but this list must stay valid through factorizeA10.
	rows := append([]int(nil), e.activeRowsInGridRow(e.row)...)
	if len(rows) == 0 {
		return nil, rows
	}
	// Tile column t is mine, so it leads my trailing view.
	_, w := e.bc.TileDims(t, t)
	trailing := e.store.Trailing(t)
	stack := e.stackRows(trailing.View(0, 0, trailing.Rows, w), rows)
	e.fiber.ReduceMatSum(0, stack)
	if e.layer == 0 {
		e.store.UnstackColumnRows(t, rows, stack)
		return stack, rows
	}
	// Contributions consumed: zero the accumulator entries.
	if e.store.Payload() {
		stack.Zero()
		e.store.UnstackColumnRows(t, rows, stack)
	}
	return nil, nil
}

// tournament implements step 2 (TournPivot): local candidate selection by
// LU, then ⌈log₂ Pr⌉ butterfly "playoff" rounds exchanging w×w candidate
// blocks (paper §7.3), after which every participant holds the w winners and
// the factored A00.
func (e *engine) tournament(t int, stack *mat.Matrix, rows []int) error {
	e.pivIDs = nil
	e.a00 = nil
	if e.layer != 0 || e.col != e.bc.OwnerCol(t) {
		return nil
	}
	e.ac.SetPhase(e.opt.Name + ".pivot")
	_, w := e.bc.TileDims(t, t)
	win, err := lapack.SelectCandidates(lapack.StackCandidates(stack, rows), w)
	if err != nil {
		return err
	}
	res := e.tourn.Butterfly(win.Msg(w), func(mine, theirs smpi.Msg) smpi.Msg {
		merged := lapack.MergeCandidates(lapack.CandidatesFromMsg(mine, w), lapack.CandidatesFromMsg(theirs, w))
		next, err := lapack.SelectCandidates(merged, w)
		if err != nil {
			panic(err) // converted to a run error by the runtime
		}
		return next.Msg(w)
	})
	winners := lapack.CandidatesFromMsg(res, w)
	if len(winners.IDs) < w {
		return fmt.Errorf("conflux: only %d active rows for a %d-wide panel", len(winners.IDs), w)
	}
	a00, ids, err := lapack.FactorA00(winners)
	if err != nil {
		return err
	}
	e.a00, e.pivIDs = a00, ids
	return nil
}

// broadcastA00 implements step 3: the factored A00 and the w pivot row
// indices are broadcast to all active ranks (cost v²+v per rank).
func (e *engine) broadcastA00(t int) {
	e.ac.SetPhase(e.opt.Name + ".bcast-a00")
	_, w := e.bc.TileDims(t, t)
	root := e.g.Rank(0, e.bc.OwnerCol(t), 0)
	if e.a00 == nil {
		e.a00 = e.buffer(w, w)
	}
	e.ac.BcastMat(root, e.a00)
	e.pivIDs = e.ac.BcastInts(root, e.pivIDs)

	// Write A00 back into the layer-0 owners' tiles: the pivot rows' final
	// combined L00\U00 values.
	if e.layer == 0 && e.col == e.bc.OwnerCol(t) && e.store.Payload() {
		for i, r := range e.pivIDs {
			ti := r / e.opt.V
			if e.bc.OwnerRow(ti) == e.row {
				e.store.Tile(ti, t).View(r-ti*e.opt.V, 0, 1, w).CopyFrom(e.a00.View(i, 0, 1, w))
			}
		}
	}
}

// retirePivots applies the row mask (§7.3: "we keep track which rows were
// chosen as pivots and we use masks to update remaining rows").
func (e *engine) retirePivots() {
	for _, r := range e.pivIDs {
		if !e.mask[r] {
			panic(fmt.Sprintf("conflux: row %d pivoted twice", r))
		}
		e.mask[r] = false
	}
	e.perm = append(e.perm, e.pivIDs...)
}

// factorizeA10 implements steps 4/7/8 for the column panel: the still-active
// rows of the reduced block column are triangular-solved against U00 at the
// panel owners (see DESIGN.md: the 1D-parallel solve is volume-equivalent),
// written back as final L values, and sent to the assigned layer's consumer
// row (one broadcast per grid row).
func (e *engine) factorizeA10(t int, stack *mat.Matrix, rows []int) {
	e.ac.SetPhase(e.opt.Name + ".panel-a10")
	e.a10, e.a10IDs = nil, nil
	_, w := e.bc.TileDims(t, t)
	lstar := t % e.g.Layers
	ownerCol := e.bc.OwnerCol(t)

	// Every rank can compute every grid row's active list from the shared
	// mask; pivots were already retired above.
	for gr := 0; gr < e.g.Pr; gr++ {
		grRows := e.activeRowsInGridRow(gr)
		members, rootIdx := a10Members(e.g, gr, ownerCol, lstar)
		if !slices.Contains(members, e.world.Rank()) {
			continue
		}
		comm := e.ac.Sub(fmt.Sprintf("a10.%d.%d", t, gr), members)
		buf := e.buffer(len(grRows), w)
		if e.g.Rank(gr, ownerCol, 0) == e.world.Rank() {
			// I am the owner: extract the active rows from the reduced
			// stack, solve, store the L values, and broadcast.
			if e.store.Payload() && stack != nil {
				idx := indexOf(rows)
				for i, r := range grRows {
					buf.View(i, 0, 1, w).CopyFrom(stack.View(idx[r], 0, 1, w))
				}
			}
			blas.TrsmUpperRight(e.a00, buf)
			e.store.UnstackColumnRows(t, grRows, buf)
		}
		if len(grRows) > 0 {
			comm.BcastMat(rootIdx, buf)
		}
		if e.layer == lstar && e.row == gr {
			e.a10, e.a10IDs = buf, grRows
		}
	}
}

// a10Members returns the broadcast group for grid row gr: the layer-0 panel
// owner plus the assigned layer's consumer row, deduplicated, owner first.
func a10Members(g grid.Grid, gr, ownerCol, lstar int) (members []int, rootIdx int) {
	owner := g.Rank(gr, ownerCol, 0)
	members = append(make([]int, 0, g.Pc+1), owner)
	for y := 0; y < g.Pc; y++ {
		r := g.Rank(gr, y, lstar)
		if r != owner {
			members = append(members, r)
		}
	}
	return members, 0
}

func indexOf(rows []int) map[int]int {
	m := make(map[int]int, len(rows))
	for i, r := range rows {
		m[r] = i
	}
	return m
}
