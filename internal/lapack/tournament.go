package lapack

import (
	"fmt"

	"repro/internal/mat"
	"repro/internal/smpi"
)

// Candidates is a stack of pivot-candidate rows flowing through a tournament
// round: Rows is the v-column data block, IDs are the global (physical) row
// indices each stacked row came from. COnfLUX never swaps rows — winners are
// identified by ID and masked out of future steps (paper §7.3).
type Candidates struct {
	Rows *mat.Matrix // m×v block of candidate rows
	IDs  []int       // global row index of each stacked row
}

// StackCandidates wraps a rank's local row stack and its global row IDs for
// the tournament; a nil stack (the rank holds no candidate rows) is the
// empty set, which SelectCandidates and MergeCandidates pass through.
func StackCandidates(stack *mat.Matrix, ids []int) Candidates {
	if stack == nil {
		return Candidates{Rows: mat.New(0, 0)}
	}
	return Candidates{Rows: stack, IDs: ids}
}

// Msg encodes the set for a tournament exchange: the row block plus the
// IDs, metered at rows·w + len(IDs) elements (the paper's "exchange v×v
// blocks" plus pivot indices, §7.3).
func (c Candidates) Msg(w int) smpi.Msg {
	return smpi.Msg{F: c.Rows.Pack(), I: append([]int(nil), c.IDs...), N: c.Rows.Rows*w + len(c.IDs)}
}

// CandidatesFromMsg decodes a set encoded by Msg at block width w; a
// message without payload (volume mode) yields a phantom block.
func CandidatesFromMsg(m smpi.Msg, w int) Candidates {
	rows := len(m.I)
	if m.F == nil {
		return Candidates{Rows: mat.NewPhantom(rows, w), IDs: m.I}
	}
	return Candidates{Rows: mat.FromSlice(rows, w, m.F), IDs: m.I}
}

// SelectCandidates picks the (up to) v best pivot rows from the stack by LU
// factorization with partial pivoting, mirroring the local step of
// tournament pivoting (Grigori, Demmel, Xiang — CALU). It returns the
// winning rows (in tournament order) with their IDs. The input is not
// modified; the empty set selects itself.
func SelectCandidates(c Candidates, v int) (Candidates, error) {
	m := c.Rows.Rows
	if m == 0 {
		return c, nil
	}
	if len(c.IDs) != m {
		panic(fmt.Sprintf("lapack: SelectCandidates %d IDs for %d rows", len(c.IDs), m))
	}
	if v > c.Rows.Cols {
		panic("lapack: SelectCandidates v exceeds block width")
	}
	take := min(v, m)
	work := c.Rows.Clone()
	ids := append([]int(nil), c.IDs...)
	if work.Phantom() {
		// Volume mode: no values to compare. Pick winners strided across the
		// stack so that, as in the paper ("with high probability, pivots are
		// evenly distributed among all processors"), winners spread over the
		// contributing ranks instead of clustering at the front.
		picked := make([]int, take)
		for i := 0; i < take; i++ {
			picked[i] = ids[i*m/take]
		}
		return Candidates{Rows: mat.NewPhantom(take, c.Rows.Cols), IDs: picked}, nil
	}
	piv := make([]int, min(take, work.Cols))
	if err := Getrf2(work.View(0, 0, m, len(piv)), piv); err != nil {
		return Candidates{}, err
	}
	for k, p := range piv {
		ids[k], ids[p] = ids[p], ids[k]
	}
	// Winners are the first `take` rows of the pivoted ORIGINAL data.
	perm := PermFromIpiv(piv, m)
	out := mat.New(take, c.Rows.Cols)
	for i := 0; i < take; i++ {
		copy(out.Row(i), c.Rows.Row(perm[i]))
	}
	return Candidates{Rows: out, IDs: ids[:take]}, nil
}

// MergeCandidates stacks two candidate sets (a tournament "playoff" game);
// merging with the empty set returns the other side.
func MergeCandidates(a, b Candidates) Candidates {
	if a.Rows.Rows == 0 {
		return b
	}
	if b.Rows.Rows == 0 {
		return a
	}
	if a.Rows.Cols != b.Rows.Cols {
		panic("lapack: MergeCandidates width mismatch")
	}
	m := a.Rows.Rows + b.Rows.Rows
	ids := make([]int, 0, m)
	ids = append(ids, a.IDs...)
	ids = append(ids, b.IDs...)
	if a.Rows.Phantom() || b.Rows.Phantom() {
		return Candidates{Rows: mat.NewPhantom(m, a.Rows.Cols), IDs: ids}
	}
	out := mat.New(m, a.Rows.Cols)
	out.View(0, 0, a.Rows.Rows, a.Rows.Cols).CopyFrom(a.Rows)
	out.View(a.Rows.Rows, 0, b.Rows.Rows, b.Rows.Cols).CopyFrom(b.Rows)
	return Candidates{Rows: out, IDs: ids}
}

// FactorA00 runs the final LU (no pivoting needed beyond tournament order)
// on the v×v winner block, producing the in-place L00\U00 factor used by the
// A10/A01 triangular solves. Winner rows arrive in tournament order, which
// is already a stable pivot order, but we still factor with partial
// pivoting within the block for numerical safety and return the local
// ordering applied to the IDs.
func FactorA00(winners Candidates) (a00 *mat.Matrix, ids []int, err error) {
	v := winners.Rows.Rows
	if winners.Rows.Cols != v {
		panic("lapack: FactorA00 expects a square winner block")
	}
	a00 = winners.Rows.Clone()
	ids = append([]int(nil), winners.IDs...)
	piv := make([]int, v)
	if err := Getrf2(a00, piv); err != nil {
		return nil, nil, err
	}
	for k, p := range piv {
		ids[k], ids[p] = ids[p], ids[k]
	}
	return a00, ids, nil
}
