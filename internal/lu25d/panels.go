package lu25d

import (
	"repro/internal/blas"
	"repro/internal/mat"
)

// planSwaps converts this step's tournament pivots into a sequence of row
// interchanges that bring pivot i to slot t·v+i, LAPACK style. Every rank
// computes the identical plan from the broadcast pivot IDs.
func planSwaps(pivIDs []int, t, v int) [][2]int {
	// moved lists the slots that no longer hold the row the step began with
	// there, and that row's name — at most two per swap, so a scan of it
	// costs less than the hashing of a map.
	type entry struct{ slot, row int }
	moved := make([]entry, 0, 2*len(pivIDs))
	swaps := make([][2]int, 0, len(pivIDs))
	for i, p := range pivIDs {
		q := t*v + i
		cur, rq := p, q // p's current slot, the row now in slot q
		iq, ic := -1, -1
		for k, m := range moved {
			if m.row == p {
				cur, ic = m.slot, k
			}
			if m.slot == q {
				rq, iq = m.row, k
			}
		}
		if cur == q {
			continue
		}
		swaps = append(swaps, [2]int{q, cur})
		if iq < 0 {
			iq, moved = len(moved), append(moved, entry{slot: q})
		}
		if ic < 0 {
			ic, moved = len(moved), append(moved, entry{slot: cur})
		}
		moved[iq].row, moved[ic].row = p, rq
	}
	return swaps
}

// applySwaps performs the physical row interchanges across every tile column
// and EVERY replication layer — the 2.5D row-swapping cost the paper's row
// masking avoids. Segments are batched per rank pair (one message per swap
// per grid column per layer).
func (e *engine) applySwaps(t int) {
	e.ac.SetPhase(e.phase.swap)
	swaps := planSwaps(e.pivIDs, t, e.opt.V)
	for _, sw := range swaps {
		e.perm[sw[0]], e.perm[sw[1]] = e.perm[sw[1]], e.perm[sw[0]]
	}
	// A swapped row travels whole: every tile column this rank owns.
	if total := e.store.TrailingCols(0); total > 0 {
		for si, sw := range swaps {
			a, b := sw[0], sw[1]
			o1 := e.bc.OwnerRow(a / e.opt.V)
			o2 := e.bc.OwnerRow(b / e.opt.V)
			tag := 7000 + si
			switch {
			case o1 == e.row && o2 == e.row:
				e.store.UnstackTrailingRows(0, []int{b, a}, e.store.StackTrailingRows(0, []int{a, b}))
			case o1 == e.row:
				e.exchangeRow(a, o2, tag, total)
			case o2 == e.row:
				e.exchangeRow(b, o1, tag, total)
			}
		}
	}
	// With the pivot rows in place, the diagonal block owner stores the
	// factored A00 (rows arrived in tournament order, matching slots).
	if e.layer == 0 && e.col == e.bc.OwnerCol(t) && e.bc.OwnerRow(t) == e.row && e.store.Payload() {
		w := len(e.pivIDs)
		e.store.Tile(t, t).View(0, 0, w, w).CopyFrom(e.a00)
	}
}

// exchangeRow sends local row r to grid row peer of my column communicator
// and replaces it with the row received back.
func (e *engine) exchangeRow(r, peer, tag, total int) {
	e.colc.SendMat(peer, tag, e.store.StackTrailingRows(0, []int{r}))
	buf := e.store.NewBuffer(1, total)
	e.colc.RecvMat(peer, tag, buf)
	e.store.UnstackTrailingRows(0, []int{r}, buf)
}

// factorizeA10 solves the sub-diagonal panel rows against U00 at the layer-0
// column owners and broadcasts them to the assigned layer's consumer rows —
// one broadcast per grid row, and a rank takes part in its own row's.
func (e *engine) factorizeA10(t int) {
	e.ac.SetPhase(e.phase.panelA10)
	e.a10, e.a10Lo = nil, 0
	w := len(e.pivIDs)
	lo := t*e.opt.V + w
	lstar := t % e.g.Layers
	ownerCol := e.bc.OwnerCol(t)
	comm := e.a10Comms[ownerCol*e.g.Layers+lstar]
	if comm == nil {
		return
	}
	rows := e.bc.RowsInGridRow(e.row, lo)
	var buf *mat.Matrix
	if e.layer == 0 && e.col == ownerCol && len(rows) > 0 {
		buf = e.store.StackColumnRows(t, rows)
		blas.TrsmUpperRight(e.a00, buf)
		e.store.UnstackColumnRows(t, rows, buf)
	} else {
		buf = e.store.NewBuffer(len(rows), w)
	}
	if len(rows) > 0 {
		comm.BcastMat(0, buf)
	}
	if e.layer == lstar {
		e.a10, e.a10Lo = buf, lo
	}
}

// factorizeA01 reduces the (now contiguous, tile row t) pivot rows across
// layers, solves them against unit L00, and broadcasts to the assigned
// layer's consumer columns.
func (e *engine) factorizeA01(t int) {
	e.ac.SetPhase(e.phase.panelA01)
	e.a01 = nil
	w := len(e.pivIDs)
	total := e.store.TrailingCols(t + 1)
	if total == 0 {
		return
	}
	tr := e.bc.OwnerRow(t)
	lstar := t % e.g.Layers

	var solved *mat.Matrix
	if e.row == tr {
		pivRows := make([]int, w) // swapped into place: rows t·v .. t·v+w-1
		for i := range pivRows {
			pivRows[i] = t*e.opt.V + i
		}
		stack := e.store.StackTrailingRows(t+1, pivRows)
		e.fiber.ReduceMatSum(0, stack)
		if e.layer == 0 {
			blas.TrsmLowerLeft(e.a00, stack, true)
			e.store.UnstackTrailingRows(t+1, pivRows, stack)
			solved = stack
		} else if e.store.Payload() {
			e.store.UnstackTrailingRows(t+1, pivRows, mat.New(w, total))
		}
	}

	comm := e.a01Comms[tr*e.g.Layers+lstar]
	if comm == nil {
		return
	}
	buf := solved
	if buf == nil {
		buf = e.store.NewBuffer(w, total)
	}
	comm.BcastMat(0, buf)
	if e.layer == lstar {
		e.a01 = buf
	}
}

// update applies the Schur update into the assigned layer's accumulator: one
// rank-w update of every trailing row below the diagonal block.
func (e *engine) update(t int) {
	e.ac.SetPhase(e.phase.update)
	if !e.store.Payload() || e.layer != t%e.g.Layers || e.a10 == nil || e.a01 == nil {
		return
	}
	rows := e.store.LocalRows(e.bc.RowsInGridRow(e.row, e.a10Lo))
	blas.GemmRows(-1, e.a10, e.a01, e.store.Trailing(t+1), rows)
}
