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

// Result carries the factorization output. Perm is the pivot order: Perm[k]
// is the original row that became the k-th pivot. In numeric mode world rank
// 0 additionally holds LU, the combined in-place factors in pivot row order,
// so A[Perm,:] = L·U — under masking rows never move and the gathered factors
// are permuted into that order; under swapping they are already in it.
type Result struct {
	Perm []int
	LU   *mat.Matrix
}

// Run executes the factorization on an existing world. The input matrix a is
// consulted at world rank 0 only (nil in volume mode). Ranks outside the
// optimized grid (opt.Grid.Used() ≤ world size) idle, exactly as the paper's
// Processor Grid Optimization "possibly disabl[es] a minor fraction of
// nodes".
func Run(c *smpi.Comm, a *mat.Matrix, opt Options) (*Result, error) {
	if opt.Name == "" {
		opt.Name = "COnfLUX"
		if opt.Swap {
			opt.Name = "CANDMC"
		}
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
	colc            *smpi.Comm // my (col, layer) column communicator, for swaps (nil when masking)
	store           *dist.Store
	phase           struct{ reduceCol, pivot, bcastA00, swap, panelA10, panelA01, update string }

	// Panel broadcast communicators (see panelComms); nil where this rank is
	// outside the group.
	a10Comms []*smpi.Comm // by ownerCol·c + assigned layer, for my grid row
	a01Comms []*smpi.Comm // by assembler row·c + assigned layer, for my grid column

	mask   []bool // mask[r]: row r not yet chosen as pivot
	perm   []int
	active []int // ascending: the unpivoted rows of MY grid row (see retirePivots)

	// Per-step panels are carved from slab, their headers from hdrs (see
	// buffer); used and nhdr are the marks.
	slab []float64
	used int
	hdrs []mat.Matrix
	nhdr int

	// Per-step caches.
	a00     *mat.Matrix // factored w×w diagonal block (L00\U00)
	pivIDs  []int       // this step's pivot rows in factor order (their slots, once swapped)
	slots   []int       // backing of pivIDs after the swaps
	pivRows [][]int     // pivIDs bucketed by owning grid row, factor order kept
	pivPos  [][]int     // pivPos[gr][i]: index in pivIDs of pivRows[gr][i]
	a10     *mat.Matrix // consumer copy: L10 rows for my grid row (the active ones)
	a01     *mat.Matrix // consumer copy: U01 for my grid-column tile cols
}

func (e *engine) run(a *mat.Matrix) (*Result, error) {
	e.setup(a)
	for t := 0; t < e.bc.Tiles(); t++ {
		if err := e.step(t); err != nil {
			return nil, err
		}
	}
	return e.collect(), nil
}

// setup builds what a rank keeps for the whole factorization — communicators,
// store, mask, its own grid row's active list — and scatters the input.
func (e *engine) setup(a *mat.Matrix) {
	e.g = e.opt.Grid
	e.bc = grid.BlockCyclic{G: e.g, V: e.opt.V, N: e.opt.N}
	e.row, e.col, e.layer = e.g.Coords(e.world.Rank())
	e.ac = e.world.Sub("active", e.g.ActiveComm())
	e.fiber = e.ac.Sub(fmt.Sprintf("fiber.%d.%d", e.row, e.col), e.g.FiberComm(e.row, e.col))
	if e.layer == 0 {
		e.tourn = e.ac.Sub(fmt.Sprintf("tourn.%d", e.col), e.g.ColComm(e.col, 0))
	}
	e.panelComms()
	name := e.opt.Name
	e.phase.reduceCol, e.phase.pivot, e.phase.bcastA00, e.phase.swap = name+".reduce-col", name+".pivot", name+".bcast-a00", name+".swap"
	e.phase.panelA10, e.phase.panelA01, e.phase.update = name+".panel-a10", name+".panel-a01", name+".update"
	e.store = dist.NewStore(e.bc, e.row, e.col, e.layer, e.world.Payload())
	e.mask = make([]bool, e.opt.N)
	for i := range e.mask {
		e.mask[i] = true
	}
	e.perm = make([]int, 0, e.opt.N)
	if e.opt.Swap {
		e.colc = e.ac.Sub(fmt.Sprintf("colc.%d.%d", e.col, e.layer), e.g.ColComm(e.col, e.layer))
		for i := range e.opt.N {
			e.perm = append(e.perm, i)
		}
	}
	e.active = e.bc.RowsInGridRow(e.row, 0)
	e.pivRows, e.pivPos = make([][]int, e.g.Pr), make([][]int, e.g.Pr)
	if e.layer == 0 {
		dist.Scatter(e.world, 0, a, e.g, e.store)
	}
}

// step runs elimination step t of Algorithm 1.
func (e *engine) step(t int) error {
	e.used, e.nhdr = 0, 0 // every panel of step t−1 has had its last reader
	stack := e.reduceColumn(t)
	if err := e.tournament(t, stack); err != nil {
		return err
	}
	e.broadcastA00(t)
	if e.opt.Swap {
		e.applySwaps(t)
	}
	e.retirePivots(t)
	e.factorizeA10(t)
	e.factorizeA01(t)
	e.update(t)
	return nil
}

// collect gathers the factors onto world rank 0 in pivot order.
func (e *engine) collect() *Result {
	res := &Result{Perm: e.perm}
	if e.layer != 0 {
		return res
	}
	if e.world.Rank() != 0 {
		dist.Gather(e.world, 0, nil, e.g, e.store)
		return res
	}
	res.LU = mat.NewPhantom(e.opt.N, e.opt.N)
	if e.world.Payload() {
		res.LU = mat.New(e.opt.N, e.opt.N)
	}
	dist.Gather(e.world, 0, res.LU, e.g, e.store)
	if e.world.Payload() && !e.opt.Swap {
		permuteRowsInPlace(res.LU, e.perm)
	}
	return res
}

// panelComms builds the A10 and A01 broadcast communicators this rank will
// ever use. The A10 group of a step depends only on (grid row, owner column,
// assigned layer) and the A01 group on (grid column, assembler row, assigned
// layer) — the assembler row is 0 under masking, so masking builds only that
// row's — and every member of either has this rank's grid row (column). So a
// rank belongs to at most Pc·c + Pr·c groups, all of its own row and column,
// however many steps there are. Reusing one communicator across the steps
// that share a slot is sound because each collective takes a fresh tag from
// the communicator's own sequence (smpi's nextCollTag), which all members
// advance in lockstep: they run the slot's broadcasts in the same step order,
// and whether a step broadcasts at all (a non-empty row list, a non-zero
// width) is decided from state every member holds identically.
func (e *engine) panelComms() {
	c, me := e.g.Layers, e.world.Rank()
	asmRows := 1
	if e.opt.Swap {
		asmRows = e.g.Pr
	}
	e.a10Comms, e.a01Comms = make([]*smpi.Comm, e.g.Pc*c), make([]*smpi.Comm, e.g.Pr*c)
	for lstar := 0; lstar < c; lstar++ {
		for ownerCol := 0; ownerCol < e.g.Pc; ownerCol++ {
			if m := e.g.PanelRowGroup(e.row, ownerCol, lstar); slices.Contains(m, me) {
				e.a10Comms[ownerCol*c+lstar] = e.ac.Sub(fmt.Sprintf("a10.%d.%d.%d", e.row, ownerCol, lstar), m)
			}
		}
		for asmRow := 0; asmRow < asmRows; asmRow++ {
			if m := e.g.PanelColGroup(e.col, asmRow, lstar); slices.Contains(m, me) {
				e.a01Comms[asmRow*c+lstar] = e.ac.Sub(fmt.Sprintf("a01.%d.%d.%d", e.col, asmRow, lstar), m)
			}
		}
	}
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

// buffer hands out a rows×cols panel of the current elimination step
// (phantom in volume mode) from the engine's slabs — one of matrix headers,
// one of floats — which step rewinds on entry: a panel's last reader — the
// step's solve or update, or the send that copies it onto the wire — is always
// inside the step that made it, so a factorization allocates (and the runtime
// zeroes and collects) its panels once instead of once per step, and a volume
// replay, whose panels are headers only, allocates none. Contents are
// undefined: every caller overwrites the whole panel, by a receive or a copy
// per row, before anything reads it.
func (e *engine) buffer(rows, cols int) *mat.Matrix {
	if e.nhdr == len(e.hdrs) {
		// Outgrown, like the slab: the step's earlier headers keep the old one.
		e.hdrs, e.nhdr = make([]mat.Matrix, max(2*len(e.hdrs), 16)), 0
	}
	m := &e.hdrs[e.nhdr]
	e.nhdr++
	*m = mat.Matrix{Rows: rows, Cols: cols, Stride: cols}
	if !e.store.Payload() {
		return m
	}
	n := rows * cols
	if e.slab == nil || e.used+n > len(e.slab) {
		// Outgrown: the step's earlier panels keep the old slab alive.
		e.slab, e.used = make([]float64, max(2*len(e.slab), n)), 0
	}
	e.used += n
	m.Data = e.slab[e.used-n : e.used : e.used]
	return m
}

// stackRows is dist's StackColumnRows/StackTrailingRows into a step panel:
// the given global rows of the leading cols columns of the store's
// Trailing(from) view, copied out as a dense len(rows)×cols stack.
func (e *engine) stackRows(from, cols int, rows []int) *mat.Matrix {
	stack := e.buffer(len(rows), cols)
	if e.store.Payload() {
		view := e.store.Trailing(from)
		for i, r := range rows {
			copy(stack.Row(i), view.Row(e.store.LocalRow(r)))
		}
	}
	return stack
}

// reduceColumn implements Algorithm 1 step 1 ("Reduce next block column"):
// the active rows of tile column t are summed across the c layers onto the
// layer-0 owners. Non-root layers zero their consumed contributions.
// Returns the reduced stack of e.active (non-nil on layer-0 owners with
// active rows).
func (e *engine) reduceColumn(t int) *mat.Matrix {
	if e.col != e.bc.OwnerCol(t) {
		return nil
	}
	e.ac.SetPhase(e.phase.reduceCol)
	if len(e.active) == 0 {
		return nil
	}
	// Tile column t is mine, so it leads my trailing view.
	_, w := e.bc.TileDims(t, t)
	stack := e.stackRows(t, w, e.active)
	e.fiber.ReduceMatSum(0, stack)
	if e.layer == 0 {
		e.store.UnstackColumnRows(t, e.active, stack)
		return stack
	}
	// Contributions consumed: zero the accumulator entries.
	if e.store.Payload() {
		stack.Zero()
		e.store.UnstackColumnRows(t, e.active, stack)
	}
	return nil
}

// tournament implements step 2 (TournPivot): local candidate selection by
// LU, then ⌈log₂ Pr⌉ butterfly "playoff" rounds exchanging w×w candidate
// blocks (paper §7.3, citing Grigori et al. for both engines), after which
// every participant holds the w winners and the factored A00.
func (e *engine) tournament(t int, stack *mat.Matrix) error {
	e.pivIDs, e.a00 = nil, nil
	if e.layer != 0 || e.col != e.bc.OwnerCol(t) {
		return nil
	}
	e.ac.SetPhase(e.phase.pivot)
	_, w := e.bc.TileDims(t, t)
	win, err := lapack.SelectCandidates(lapack.StackCandidates(stack, e.active), w)
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
	e.ac.SetPhase(e.phase.bcastA00)
	_, w := e.bc.TileDims(t, t)
	root := e.g.Rank(0, e.bc.OwnerCol(t), 0)
	if e.a00 == nil {
		e.a00 = e.buffer(w, w)
	}
	e.ac.BcastMat(root, e.a00)
	e.pivIDs = e.ac.BcastInts(root, e.pivIDs)
}

// retirePivots takes the step's pivots out of play. Under masking (§7.3: "we
// keep track which rows were chosen as pivots and we use masks to update
// remaining rows") they are the tournament's rows wherever they live; under
// swapping applySwaps has moved them to the slots t·v+i, tile row t. Either
// way the pivots are bucketed by owning grid row — every rank computes the
// same buckets — and those of this rank's own row leave its active list; the
// layer-0 owners of tile column t write those rows' final L00\U00 values.
// That list is all a rank ever reads of the mask: the rows it stacks, solves
// and updates are its own grid row's, so maintaining it costs the ≤ v
// deletions of a step, not a pass over the N rows of the grid. Under swapping
// the deleted rows are the list's first w, so the rows left are the suffix
// RowsInGridRow(row, (t+1)·v).
func (e *engine) retirePivots(t int) {
	for gr := range e.pivRows {
		e.pivRows[gr], e.pivPos[gr] = e.pivRows[gr][:0], e.pivPos[gr][:0]
	}
	for i, r := range e.pivIDs {
		if !e.mask[r] {
			panic(fmt.Sprintf("conflux: row %d pivoted twice", r))
		}
		e.mask[r] = false
		gr := e.bc.OwnerRow(r / e.opt.V)
		e.pivRows[gr], e.pivPos[gr] = append(e.pivRows[gr], r), append(e.pivPos[gr], i)
	}
	if !e.opt.Swap {
		e.perm = append(e.perm, e.pivIDs...)
	}
	owner := e.layer == 0 && e.col == e.bc.OwnerCol(t) && e.store.Payload()
	w := len(e.pivIDs)
	for k, r := range e.pivRows[e.row] {
		i, _ := slices.BinarySearch(e.active, r) // found: r was unpivoted and is mine
		e.active = slices.Delete(e.active, i, i+1)
		if owner {
			ti := r / e.opt.V
			e.store.Tile(ti, t).View(r-ti*e.opt.V, 0, 1, w).CopyFrom(e.a00.View(e.pivPos[e.row][k], 0, 1, w))
		}
	}
}

// factorizeA10 implements steps 4/7/8 for the column panel: the active rows
// of the reduced block column are triangular-solved against U00 at the panel
// owners (see DESIGN.md: the 1D-parallel solve is volume-equivalent), written
// back as final L values, and sent to the assigned layer's consumer row (one
// broadcast per grid row — a rank takes part in its own row's).
func (e *engine) factorizeA10(t int) {
	e.ac.SetPhase(e.phase.panelA10)
	e.a10 = nil
	_, w := e.bc.TileDims(t, t)
	lstar := t % e.g.Layers
	ownerCol := e.bc.OwnerCol(t)
	comm := e.a10Comms[ownerCol*e.g.Layers+lstar]
	if comm == nil {
		return
	}
	var buf *mat.Matrix
	if e.layer == 0 && e.col == ownerCol {
		// I am the owner: re-stack the reduced rows, solve, store the L
		// values, and broadcast.
		buf = e.stackRows(t, w, e.active)
		blas.TrsmUpperRight(e.a00, buf)
		e.store.UnstackColumnRows(t, e.active, buf)
	} else {
		buf = e.buffer(len(e.active), w)
	}
	if len(e.active) > 0 {
		comm.BcastMat(0, buf)
	}
	if e.layer == lstar {
		e.a10 = buf
	}
}
