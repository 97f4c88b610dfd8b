package conflux

import (
	"fmt"
	"slices"

	"repro/internal/blas"
	"repro/internal/grid"
	"repro/internal/mat"
)

// pivotGroups buckets this step's pivot rows by owning grid row, keeping the
// factor order within each bucket. Every rank computes the same grouping.
func (e *engine) pivotGroups() map[int][]int {
	groups := map[int][]int{}
	for _, r := range e.pivIDs {
		gr := (r / e.opt.V) % e.g.Pr
		groups[gr] = append(groups[gr], r)
	}
	return groups
}

// factorizeA01 implements Algorithm 1 steps 5/6/9/10 for the pivot-row
// panel: reduce the w pivot rows across layers (step 5), assemble them per
// grid column, solve L00·U01 = A01 (step 9), write the U values back to
// their layer-0 owners, and broadcast the solved panel to the assigned
// layer's consumer column (step 10).
func (e *engine) factorizeA01(t int) {
	e.ac.SetPhase(e.opt.Name + ".panel-a01")
	e.a01 = nil
	w := len(e.pivIDs)
	// My tile columns > t, concatenated: the panel's (and Trailing's) width.
	total := e.store.Trailing(t + 1).Cols
	groups := e.pivotGroups()
	lstar := t % e.g.Layers

	// Step 5: fiber reduction of my grid row's pivot segments.
	myRows := groups[e.row]
	var reduced *mat.Matrix
	if len(myRows) > 0 && total > 0 {
		stack := e.stackRows(e.store.Trailing(t+1), myRows)
		e.fiber.ReduceMatSum(0, stack)
		if e.layer == 0 {
			reduced = stack
		} else if e.store.Payload() {
			stack.Zero() // contributions consumed
			e.store.UnstackTrailingRows(t+1, myRows, stack)
		}
	}
	if total == 0 {
		return
	}

	// Assemble the full w-row panel for my grid column at (0, y, 0).
	asmRank := e.g.Rank(0, e.col, 0)
	var asm *mat.Matrix
	const gatherTag, backTag = 101, 102
	if e.layer == 0 {
		if e.world.Rank() == asmRank {
			asm = e.buffer(w, total)
			idx := indexOf(e.pivIDs)
			for gr := 0; gr < e.g.Pr; gr++ {
				rows := groups[gr]
				if len(rows) == 0 {
					continue
				}
				part := reduced // my own grid row's segment, non-nil: rows is not empty
				if e.g.Rank(gr, e.col, 0) != asmRank {
					part = e.buffer(len(rows), total)
					e.ac.RecvMat(acIndex(e.g, gr, e.col, 0), gatherTag+gr, part)
				}
				if e.store.Payload() {
					for i, r := range rows {
						asm.View(idx[r], 0, 1, total).CopyFrom(part.View(i, 0, 1, total))
					}
				}
			}
			// Step 9: FactorizeA01 (triangular solve against unit L00).
			blas.TrsmLowerLeft(e.a00, asm, true)
			// Write the solved U rows back to their owners.
			for gr := 0; gr < e.g.Pr; gr++ {
				rows := groups[gr]
				if len(rows) == 0 {
					continue
				}
				part := e.buffer(len(rows), total)
				if e.store.Payload() {
					for i, r := range rows {
						part.View(i, 0, 1, total).CopyFrom(asm.View(idx[r], 0, 1, total))
					}
				}
				if e.g.Rank(gr, e.col, 0) == asmRank {
					e.store.UnstackTrailingRows(t+1, rows, part)
				} else {
					e.ac.SendMat(acIndex(e.g, gr, e.col, 0), backTag+gr, part)
				}
			}
		} else if len(myRows) > 0 {
			e.ac.SendMat(acIndex(e.g, 0, e.col, 0), gatherTag+e.row, reduced)
			back := e.buffer(len(myRows), total)
			e.ac.RecvMat(acIndex(e.g, 0, e.col, 0), backTag+e.row, back)
			e.store.UnstackTrailingRows(t+1, myRows, back)
		}
	}

	// Step 10: broadcast the solved panel to the assigned layer's consumers.
	members, rootIdx := a01Members(e.g, e.col, lstar)
	if !slices.Contains(members, e.world.Rank()) {
		return
	}
	comm := e.ac.Sub(fmt.Sprintf("a01.%d.%d", t, e.col), members)
	buf := asm
	if buf == nil {
		buf = e.buffer(w, total)
	}
	comm.BcastMat(rootIdx, buf)
	if e.layer == lstar {
		e.a01 = buf
	}
}

// a01Members returns the broadcast group for grid column y: the assembling
// rank (0, y, 0) plus the assigned layer's consumer column.
func a01Members(g grid.Grid, y, lstar int) (members []int, rootIdx int) {
	root := g.Rank(0, y, 0)
	members = []int{root}
	for x := 0; x < g.Pr; x++ {
		r := g.Rank(x, y, lstar)
		if r != root {
			members = append(members, r)
		}
	}
	return members, 0
}

// acIndex maps grid coordinates to the rank index within the active
// communicator (identical to the world rank for active ranks, since the
// active communicator lists world ranks 0..Used()-1 in order).
func acIndex(g grid.Grid, row, col, layer int) int {
	return g.Rank(row, col, layer)
}

// update implements step 11 (FactorizeA11): the assigned layer applies the
// Schur-complement update to its accumulator, masked to active rows — one
// rank-w update of the whole trailing sub-matrix, fed with the compacted A10
// and A01 panels as they arrived.
func (e *engine) update(t int) {
	e.ac.SetPhase(e.opt.Name + ".update")
	if !e.store.Payload() || e.layer != t%e.g.Layers || e.a01 == nil || e.a10 == nil {
		return
	}
	blas.GemmRows(-1, e.a10, e.a01, e.store.Trailing(t+1), e.store.LocalRows(e.a10IDs))
}
