package conflux

import (
	"repro/internal/blas"
	"repro/internal/mat"
)

// factorizeA01 implements Algorithm 1 steps 5/6/9/10 for the pivot-row
// panel: reduce the w pivot rows across layers (step 5), assemble them per
// grid column, solve L00·U01 = A01 (step 9), write the U values back to
// their layer-0 owners, and broadcast the solved panel to the assigned
// layer's consumer column (step 10).
func (e *engine) factorizeA01(t int) {
	e.ac.SetPhase(e.phase.panelA01)
	e.a01 = nil
	w := len(e.pivIDs)
	// My tile columns > t, concatenated: the panel's (and Trailing's) width.
	total := e.store.TrailingCols(t + 1)
	if total == 0 {
		return
	}

	// Step 5: fiber reduction of my grid row's pivot segments.
	myRows := e.pivRows[e.row]
	var reduced *mat.Matrix
	if len(myRows) > 0 {
		stack := e.stackRows(t+1, total, myRows)
		e.fiber.ReduceMatSum(0, stack)
		if e.layer == 0 {
			reduced = stack
		} else if e.store.Payload() {
			stack.Zero() // contributions consumed
			e.store.UnstackTrailingRows(t+1, myRows, stack)
		}
	}

	// Assemble the full w-row panel for my grid column at (asmRow, y, 0): grid
	// row 0 under masking; under swapping the owner of tile row t, which
	// already holds every pivot row, so the gather below sends nothing. The
	// active communicator lists world ranks 0..Used()-1 in order, so a grid
	// rank is its own index in it.
	asmRow := 0
	if e.opt.Rows == Swap {
		asmRow = e.bc.OwnerRow(t)
	}
	asmRank := e.g.Rank(asmRow, e.col, 0)
	var asm *mat.Matrix
	const gatherTag, backTag = 101, 102
	if e.layer == 0 {
		if e.world.Rank() == asmRank {
			asm = e.buffer(w, total)
			for gr, rows := range e.pivRows {
				if len(rows) == 0 {
					continue
				}
				part := reduced // my own grid row's segment, non-nil: rows is not empty
				if e.g.Rank(gr, e.col, 0) != asmRank {
					part = e.buffer(len(rows), total)
					e.ac.RecvMat(e.g.Rank(gr, e.col, 0), gatherTag+gr, part)
				}
				if e.store.Payload() {
					for i, pos := range e.pivPos[gr] {
						copy(asm.Row(pos), part.Row(i))
					}
				}
			}
			// Step 9: FactorizeA01 (triangular solve against unit L00).
			blas.TrsmLowerLeft(e.a00, asm, true)
			// Write the solved U rows back to their owners.
			for gr, rows := range e.pivRows {
				if len(rows) == 0 {
					continue
				}
				part := e.buffer(len(rows), total)
				if e.store.Payload() {
					for i, pos := range e.pivPos[gr] {
						copy(part.Row(i), asm.Row(pos))
					}
				}
				if e.g.Rank(gr, e.col, 0) == asmRank {
					e.store.UnstackTrailingRows(t+1, rows, part)
				} else {
					e.ac.SendMat(e.g.Rank(gr, e.col, 0), backTag+gr, part)
				}
			}
		} else if len(myRows) > 0 {
			e.ac.SendMat(asmRank, gatherTag+e.row, reduced)
			back := e.buffer(len(myRows), total)
			e.ac.RecvMat(asmRank, backTag+e.row, back)
			e.store.UnstackTrailingRows(t+1, myRows, back)
		}
	}

	// Step 10: broadcast the solved panel to the assigned layer's consumers.
	lstar := t % e.g.Layers
	comm := e.a01Comms[asmRow*e.g.Layers+lstar]
	if comm == nil {
		return
	}
	buf := asm
	if buf == nil {
		buf = e.buffer(w, total)
	}
	comm.BcastMat(0, buf)
	if e.layer == lstar {
		e.a01 = buf
	}
}

// update implements step 11 (FactorizeA11): the assigned layer applies the
// Schur-complement update to its accumulator, restricted to active rows — one
// rank-w update of the whole trailing sub-matrix, fed with the compacted A10
// and A01 panels as they arrived.
func (e *engine) update(t int) {
	e.ac.SetPhase(e.phase.update)
	if !e.store.Payload() || e.layer != t%e.g.Layers || e.a01 == nil || e.a10 == nil {
		return
	}
	blas.GemmRows(-1, e.a10, e.a01, e.store.Trailing(t+1), e.store.LocalRows(e.active))
}
