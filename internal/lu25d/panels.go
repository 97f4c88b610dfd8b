package lu25d

import (
	"fmt"
	"slices"

	"repro/internal/blas"
	"repro/internal/mat"
)

// rowLayout concatenates a rank's tile columns tj >= from.
type rowLayout struct {
	tjs    []int
	offs   []int
	widths []int
	total  int
}

func (e *engine) colsFrom(from int) rowLayout {
	tjs := e.bc.LocalTileCols(e.col, from)
	cl := rowLayout{tjs: tjs, offs: make([]int, len(tjs)), widths: make([]int, len(tjs))}
	for i, tj := range tjs {
		_, w := e.bc.TileDims(tj, tj)
		cl.offs[i] = cl.total
		cl.widths[i] = w
		cl.total += w
	}
	return cl
}

func (e *engine) packRow(r int, cl rowLayout) *mat.Matrix {
	buf := e.store.NewBuffer(1, cl.total)
	if e.store.Payload() {
		ti := r / e.opt.V
		lr := r - ti*e.opt.V
		for k, tj := range cl.tjs {
			buf.View(0, cl.offs[k], 1, cl.widths[k]).
				CopyFrom(e.store.Tile(ti, tj).View(lr, 0, 1, cl.widths[k]))
		}
	}
	return buf
}

func (e *engine) unpackRow(r int, cl rowLayout, buf *mat.Matrix) {
	if !e.store.Payload() {
		return
	}
	ti := r / e.opt.V
	lr := r - ti*e.opt.V
	for k, tj := range cl.tjs {
		e.store.Tile(ti, tj).View(lr, 0, 1, cl.widths[k]).
			CopyFrom(buf.View(0, cl.offs[k], 1, cl.widths[k]))
	}
}

// planSwaps converts this step's tournament pivots into a sequence of row
// interchanges that bring pivot i to slot t·v+i, LAPACK style. Every rank
// computes the identical plan from the broadcast pivot IDs.
func planSwaps(pivIDs []int, t, v int) [][2]int {
	where := map[int]int{} // row -> current slot
	at := map[int]int{}    // slot -> row currently there
	slotOf := func(r int) int {
		if s, ok := where[r]; ok {
			return s
		}
		return r
	}
	rowAt := func(s int) int {
		if r, ok := at[s]; ok {
			return r
		}
		return s
	}
	var swaps [][2]int
	for i, p := range pivIDs {
		q := t*v + i
		cur := slotOf(p)
		if cur == q {
			continue
		}
		swaps = append(swaps, [2]int{q, cur})
		rq := rowAt(q)
		at[q], at[cur] = p, rq
		where[p], where[rq] = q, cur
	}
	return swaps
}

// applySwaps performs the physical row interchanges across every tile column
// and EVERY replication layer — the 2.5D row-swapping cost the paper's row
// masking avoids. Segments are batched per rank pair (one message per swap
// per grid column per layer).
func (e *engine) applySwaps(t int) {
	e.ac.SetPhase(e.opt.Name + ".swap")
	swaps := planSwaps(e.pivIDs, t, e.opt.V)
	for _, sw := range swaps {
		e.perm[sw[0]], e.perm[sw[1]] = e.perm[sw[1]], e.perm[sw[0]]
	}
	cl := e.colsFrom(0)
	if cl.total > 0 {
		for si, sw := range swaps {
			a, b := sw[0], sw[1]
			o1 := e.bc.OwnerRow(a / e.opt.V)
			o2 := e.bc.OwnerRow(b / e.opt.V)
			tag := 7000 + si
			switch {
			case o1 == e.row && o2 == e.row:
				if e.store.Payload() {
					ra, rb := e.packRow(a, cl), e.packRow(b, cl)
					e.unpackRow(a, cl, rb)
					e.unpackRow(b, cl, ra)
				}
			case o1 == e.row:
				e.colc.SendMat(o2, tag, e.packRow(a, cl))
				buf := e.store.NewBuffer(1, cl.total)
				e.colc.RecvMat(o2, tag, buf)
				e.unpackRow(a, cl, buf)
			case o2 == e.row:
				e.colc.SendMat(o1, tag, e.packRow(b, cl))
				buf := e.store.NewBuffer(1, cl.total)
				e.colc.RecvMat(o1, tag, buf)
				e.unpackRow(b, cl, buf)
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

// factorizeA10 solves the sub-diagonal panel rows against U00 at the layer-0
// column owners and broadcasts them to the assigned layer's consumer rows.
func (e *engine) factorizeA10(t int) {
	e.ac.SetPhase(e.opt.Name + ".panel-a10")
	e.a10, e.a10Lo = nil, 0
	w := len(e.pivIDs)
	lo := t*e.opt.V + w
	lstar := t % e.g.Layers
	ownerCol := e.bc.OwnerCol(t)
	for gr := 0; gr < e.g.Pr; gr++ {
		grRows := e.bc.RowsInGridRow(gr, lo)
		owner := e.g.Rank(gr, ownerCol, 0)
		members := []int{owner}
		for y := 0; y < e.g.Pc; y++ {
			if r := e.g.Rank(gr, y, lstar); r != owner {
				members = append(members, r)
			}
		}
		if !slices.Contains(members, e.world.Rank()) {
			continue
		}
		comm := e.ac.Sub(fmt.Sprintf("a10.%d.%d", t, gr), members)
		buf := e.store.NewBuffer(len(grRows), w)
		if owner == e.world.Rank() && len(grRows) > 0 {
			if e.store.Payload() {
				for i, r := range grRows {
					ti := r / e.opt.V
					buf.View(i, 0, 1, w).CopyFrom(e.store.Tile(ti, t).View(r-ti*e.opt.V, 0, 1, w))
				}
			}
			blas.TrsmUpperRight(e.a00, buf)
			if e.store.Payload() {
				for i, r := range grRows {
					ti := r / e.opt.V
					e.store.Tile(ti, t).View(r-ti*e.opt.V, 0, 1, w).CopyFrom(buf.View(i, 0, 1, w))
				}
			}
		}
		if len(grRows) > 0 {
			comm.BcastMat(0, buf)
		}
		if e.layer == lstar && e.row == gr {
			e.a10, e.a10Lo = buf, lo
		}
	}
}

// factorizeA01 reduces the (now contiguous, tile row t) pivot rows across
// layers, solves them against unit L00, and broadcasts to the assigned
// layer's consumer columns.
func (e *engine) factorizeA01(t int) {
	e.ac.SetPhase(e.opt.Name + ".panel-a01")
	e.a01 = nil
	w := len(e.pivIDs)
	cl := e.colsFrom(t + 1)
	if cl.total == 0 {
		return
	}
	tr := e.bc.OwnerRow(t)
	lstar := t % e.g.Layers

	var solved *mat.Matrix
	if e.row == tr {
		stack := e.store.NewBuffer(w, cl.total)
		if e.store.Payload() {
			for i := 0; i < w; i++ {
				r := t*e.opt.V + i
				stack.View(i, 0, 1, cl.total).CopyFrom(e.packRowCols(r, cl))
			}
		}
		e.fiber.ReduceMatSum(0, stack)
		if e.layer == 0 {
			blas.TrsmLowerLeft(e.a00, stack, true)
			if e.store.Payload() {
				for i := 0; i < w; i++ {
					e.unpackRow(t*e.opt.V+i, cl, stack.View(i, 0, 1, cl.total))
				}
			}
			solved = stack
		} else if e.store.Payload() {
			for i := 0; i < w; i++ {
				e.unpackRow(t*e.opt.V+i, cl, mat.New(1, cl.total))
			}
		}
	}

	root := e.g.Rank(tr, e.col, 0)
	members := []int{root}
	for x := 0; x < e.g.Pr; x++ {
		if r := e.g.Rank(x, e.col, lstar); r != root {
			members = append(members, r)
		}
	}
	if !slices.Contains(members, e.world.Rank()) {
		return
	}
	comm := e.ac.Sub(fmt.Sprintf("a01.%d.%d", t, e.col), members)
	buf := solved
	if buf == nil {
		buf = e.store.NewBuffer(w, cl.total)
	}
	comm.BcastMat(0, buf)
	if e.layer == lstar {
		e.a01 = buf
	}
}

func (e *engine) packRowCols(r int, cl rowLayout) *mat.Matrix {
	return e.packRow(r, cl)
}

// update applies the Schur update into the assigned layer's accumulators.
func (e *engine) update(t int) {
	e.ac.SetPhase(e.opt.Name + ".update")
	if e.layer != t%e.g.Layers || e.a10 == nil || e.a01 == nil {
		return
	}
	w := len(e.pivIDs)
	cl := e.colsFrom(t + 1)
	rows := e.bc.RowsInGridRow(e.row, e.a10Lo)
	idx := make(map[int]int, len(rows))
	for i, r := range rows {
		idx[r] = i
	}
	for _, ti := range e.bc.LocalTileRows(e.row, t) {
		h, _ := e.bc.TileDims(ti, ti)
		tileL := e.store.NewBuffer(h, w)
		any := false
		for lr := 0; lr < h; lr++ {
			r := ti*e.opt.V + lr
			if i, ok := idx[r]; ok {
				any = true
				if e.store.Payload() {
					tileL.View(lr, 0, 1, w).CopyFrom(e.a10.View(i, 0, 1, w))
				}
			}
		}
		if !any {
			continue
		}
		for k, tj := range cl.tjs {
			blas.Gemm(-1, tileL, e.a01.View(0, cl.offs[k], w, cl.widths[k]), 1, e.store.Tile(ti, tj))
		}
	}
}
