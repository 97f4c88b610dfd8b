package conflux

import (
	"fmt"
	"slices"

	"repro/internal/blas"
	"repro/internal/lapack"
	"repro/internal/mat"
	"repro/internal/smpi"
)

// symmetricStep is step t of 2.5D Cholesky, after the shared reduceColumn:
// POTRF of the diagonal block replaces the tournament, and the solved column
// panel, sent to the rows and to the columns that consume it, replaces A01.
// The step ends in the shared update, A11 −= L10·L10ᵀ, as one GemmRows call
// over the whole trailing view, although no later step reads its strict
// upper triangle.
func (e *engine) symmetricStep(t int, stack *mat.Matrix) error {
	if err := e.potrfA00(t, stack); err != nil {
		return err
	}
	e.retirePivots(t)
	e.symmetricPanel(t)
	e.update(t)
	return nil
}

// potrfA00 replaces steps 2–3: the layer-0 owner of tile t factors the
// reduced diagonal block, the first w rows of its stack, and broadcasts L00.
// The pivots are those w rows in order, so no index list travels.
func (e *engine) potrfA00(t int, stack *mat.Matrix) error {
	e.ac.SetPhase(e.phase.bcastA00)
	_, w := e.bc.TileDims(t, t)
	root := e.bc.Owner(t, t, 0)
	e.a00 = e.buffer(w, w)
	if e.world.Rank() == root {
		e.a00.CopyFrom(stack.View(0, 0, w, w)) // a no-op on phantoms
		if err := lapack.Potrf(e.a00); err != nil {
			return err
		}
	}
	e.ac.BcastMat(root, e.a00)
	e.diagonalPivots(t, w)
	return nil
}

// symmetricPanel replaces steps 4–6. The layer-0 owners of tile column t
// solve their active rows against L00ᵀ into final L values, with the LU
// engines' TrsmUpperRight on a transposed copy of L00. Grid row gr's part
// goes to the A10 group plus the assigned layer's grid column gr, which
// transposes it into A01 = L10ᵀ, the update's right operand. A rank is in its
// grid row's and its grid column's group (layers are square) and broadcasts
// in ascending gr order.
func (e *engine) symmetricPanel(t int) {
	e.ac.SetPhase(e.phase.panelA10)
	e.a10, e.a01 = nil, nil
	_, w := e.bc.TileDims(t, t)
	lstar, ownerCol := t%e.g.Layers, e.bc.OwnerCol(t)
	slot := ownerCol*e.g.Layers + lstar
	for _, gr := range slices.Compact([]int{min(e.row, e.col), max(e.row, e.col)}) {
		comm, rows := e.a10Comms[slot], len(e.active)
		if gr != e.row {
			// Grid row gr's rows below tile t are my trailing columns.
			comm, rows = e.a01Comms[slot], e.store.TrailingCols(t+1)
		}
		if comm == nil {
			continue
		}
		var buf *mat.Matrix
		if gr == e.row && e.layer == 0 && e.col == ownerCol {
			buf = e.stackRows(t, w, e.active)
			blas.TrsmUpperRight(e.transposed(e.a00), buf)
			e.store.UnstackColumnRows(t, e.active, buf)
		} else {
			buf = e.buffer(rows, w)
		}
		if rows > 0 {
			comm.BcastMat(0, buf)
		}
		if e.layer == lstar && gr == e.row {
			e.a10 = buf
		}
		if e.layer == lstar && gr == e.col {
			e.a01 = e.transposed(buf)
		}
	}
}

// transposed returns mᵀ as a step panel; in volume mode a phantom one, so
// nothing is copied.
func (e *engine) transposed(m *mat.Matrix) *mat.Matrix {
	mt := e.buffer(m.Cols, m.Rows)
	if e.store.Payload() {
		for i := range m.Rows {
			for j, x := range m.Row(i) {
				mt.Data[j*mt.Stride+i] = x
			}
		}
	}
	return mt
}

// symmetricComms builds the symmetric policy's panel groups once, in
// panelComms' slots: a10Comms[ownerCol·c + lstar] holds my grid row's group,
// a01Comms my grid column's where that is another grid row. Grid row gr's is
// PanelRowGroup(gr, ownerCol, lstar), then the rest of layer lstar's column gr.
func (e *engine) symmetricComms() {
	c, me := e.g.Layers, e.world.Rank()
	group := func(gr, ownerCol, lstar int) *smpi.Comm {
		m := e.g.PanelRowGroup(gr, ownerCol, lstar)
		for _, r := range e.g.ColComm(gr, lstar) {
			if !slices.Contains(m, r) {
				m = append(m, r)
			}
		}
		if !slices.Contains(m, me) {
			return nil
		}
		return e.ac.Sub(fmt.Sprintf("sym.%d.%d.%d", gr, ownerCol, lstar), m)
	}
	for lstar := range c {
		for ownerCol := range e.g.Pc {
			e.a10Comms[ownerCol*c+lstar] = group(e.row, ownerCol, lstar)
			if e.col != e.row {
				e.a01Comms[ownerCol*c+lstar] = group(e.col, ownerCol, lstar)
			}
		}
	}
}
