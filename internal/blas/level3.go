package blas

import (
	"fmt"

	"repro/internal/mat"
)

// Gemm computes C = alpha*A*B + beta*C for row-major matrices.
// Phantom operands make the call a no-op (shape checks still apply).
//
// LAPACK/BLAS semantics: beta == 0 overwrites C (a NaN or Inf in an
// uninitialized output buffer cannot propagate), and alpha == 0 skips the
// product without referencing A or B. Every nonzero partial product is
// accumulated — there is no data-dependent skip, so a NaN/Inf in B
// reaches C even when the matching A entry is zero. Large shapes run on
// the cache-blocked kernel (gemm_kernel.go); both paths accumulate each C
// element in a fixed k-order determined only by the shapes, so results
// are bit-identical across reps and kernel worker counts.
func Gemm(alpha float64, a, b *mat.Matrix, beta float64, c *mat.Matrix) {
	if a.Cols != b.Rows || a.Rows != c.Rows || b.Cols != c.Cols {
		panic(fmt.Sprintf("blas: Gemm shapes %dx%d * %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	if a.Phantom() || b.Phantom() || c.Phantom() {
		return
	}
	scaleRows(c, beta)
	if alpha == 0 || a.Cols == 0 {
		return
	}
	if 2*a.Rows*b.Cols*a.Cols >= blockedFlopCutoff {
		gemmBlocked(alpha, a, b, c, nil)
		return
	}
	gemmAccum(alpha, a, b, c)
}

// GemmRef is the straight-loop reference implementation of Gemm (the seed
// i-k-j kernel's arithmetic, with the beta/alpha conventions above). It is
// the oracle for the blocked-kernel property suite and for the vector stream,
// and the baseline the kernels benchmark measures speedup against: it runs
// the Go loop streamRowGo on every build, never the assembly or the blocked
// path.
func GemmRef(alpha float64, a, b *mat.Matrix, beta float64, c *mat.Matrix) {
	if a.Cols != b.Rows || a.Rows != c.Rows || b.Cols != c.Cols {
		panic(fmt.Sprintf("blas: GemmRef shapes %dx%d * %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	if a.Phantom() || b.Phantom() || c.Phantom() {
		return
	}
	scaleRows(c, beta)
	if alpha == 0 {
		return
	}
	for i := 0; i < a.Rows; i++ {
		streamRowGo(alpha, a.Row(i), b, c.Row(i))
	}
}

// scaleRows applies C = beta*C with beta == 0 meaning overwrite-with-zero
// rather than multiply (so 0·NaN poison never forms).
func scaleRows(c *mat.Matrix, beta float64) {
	switch beta {
	case 1:
	case 0:
		for i := 0; i < c.Rows; i++ {
			row := c.Row(i)
			for j := range row {
				row[j] = 0
			}
		}
	default:
		for i := 0; i < c.Rows; i++ {
			row := c.Row(i)
			for j := range row {
				row[j] *= beta
			}
		}
	}
}

// gemmAccum adds alpha*A*B into C, one streamRow pass per row of A: unit
// stride on B and C rows, each C element's products summed in increasing-k
// order. No zero-skip on A entries — 0·NaN must stay NaN.
func gemmAccum(alpha float64, a, b *mat.Matrix, c *mat.Matrix) {
	for i := 0; i < a.Rows; i++ {
		streamRow(alpha, a.Row(i), b, c.Row(i))
	}
}

// streamRowGo computes crow += alpha·arow·B. Each element accumulates its
// partial products in increasing-k order, one rounding per product and per
// sum — the i-k-j loop's order — while k is consumed four at a time, so the
// C row is passed over once per four rank-1 terms instead of once per term.
// It is streamRow on builds without the vector stream, and GemmRef's loop on
// all of them.
func streamRowGo(alpha float64, arow []float64, b *mat.Matrix, crow []float64) {
	n, k := len(crow), len(arow) // [:n] everywhere: one length for the compiler to prove
	p := 0
	for ; p+4 <= k; p += 4 {
		a0, a1, a2, a3 := alpha*arow[p], alpha*arow[p+1], alpha*arow[p+2], alpha*arow[p+3]
		b0, b1, b2, b3 := b.Row(p)[:n], b.Row(p + 1)[:n], b.Row(p + 2)[:n], b.Row(p + 3)[:n]
		for j := range crow {
			crow[j] = crow[j] + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
		}
	}
	for ; p < k; p++ {
		ap, bp := alpha*arow[p], b.Row(p)[:n]
		for j := range crow {
			crow[j] += ap * bp[j]
		}
	}
}

// GemmRows computes C[rows[i], :] += alpha·A[i, :]·B for every row i of A:
// a rank-k update scattered to an indexed subset of C's rows, every other
// row of C untouched. This is the local "FactorizeA11" of the 2.5D engines
// (paper §7.3, "we use masks to update remaining rows"): A is the compacted
// L10 panel of the still-active rows, B the U01 panel, C the rank's whole
// trailing sub-matrix and rows the active rows' positions in it — one call
// per elimination step. rows need not be sorted or distinct.
//
// Like Gemm it dispatches on shape alone, at gemmRowsPackedK: a shallower
// update streams (streamRow, gemmAccum's loop), so the result is bit-identical
// to Gemm/GemmRef applied row by row (DESIGN.md §1). A deeper one
// runs on the packed micro-kernel (gemmBlocked, the listed C rows updated in
// place): each element's sum over k is formed in registers — fused on the
// AVX2+FMA kernel — and added to C once, which agrees with the reference
// within 2(k+2)·ε·(|c| + |alpha|·Σ|a||b|) and is itself bit-reproducible, its
// order being fixed by the shapes (DESIGN.md §15). On both paths: no zero-skip (0·NaN stays NaN),
// unlisted rows neither read nor written, and a row listed twice takes both
// updates. As in Gemm, alpha == 0 leaves C as it is without referencing A or
// B, and phantom operands make the call a no-op (shape checks still apply).
func GemmRows(alpha float64, a, b, c *mat.Matrix, rows []int) {
	if a.Cols != b.Rows || b.Cols != c.Cols || a.Rows != len(rows) {
		panic(fmt.Sprintf("blas: GemmRows shapes %dx%d * %dx%d -> %d rows of %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, len(rows), c.Rows, c.Cols))
	}
	if a.Phantom() || b.Phantom() || c.Phantom() {
		return
	}
	for _, r := range rows {
		if r < 0 || r >= c.Rows {
			panic("blas: GemmRows row index out of range")
		}
	}
	if alpha == 0 {
		return
	}
	if a.Cols >= gemmRowsPackedK {
		gemmBlocked(alpha, a, b, c, rows)
		return
	}
	for i, r := range rows {
		streamRow(alpha, a.Row(i), b, c.Row(r))
	}
}

// TrsmLowerLeft solves L*X = B in place (B becomes X) where L is unit or
// non-unit lower triangular. This is the "FactorizeA01" kernel: columns of
// the pivot-row panel are solved against L00. Large systems run blocked
// (trsm_blocked.go), funneling the update step through the GEMM core.
func TrsmLowerLeft(l *mat.Matrix, b *mat.Matrix, unitDiag bool) {
	if l.Rows != l.Cols || l.Rows != b.Rows {
		panic("blas: TrsmLowerLeft shape mismatch")
	}
	if l.Phantom() || b.Phantom() {
		return
	}
	if l.Rows > trsmBlock {
		trsmLowerLeftBlocked(l, b, unitDiag)
		return
	}
	trsmLowerLeftUnb(l, b, unitDiag)
}

// trsmLowerLeftUnb streams row i's update bi −= Σ_{k<i} l(i,k)·b(k), k
// ascending, as one streamRow pass with alpha = −1: −1·l(i,k) is exact, and
// adding a negated product rounds as subtracting it does, so every element
// takes the bits of the loop bi[j] −= l(i,k)·b(k,j).
func trsmLowerLeftUnb(l *mat.Matrix, b *mat.Matrix, unitDiag bool) {
	n := l.Rows
	for i := 0; i < n; i++ {
		bi := b.Row(i)
		li := l.Row(i)
		streamRow(-1, li[:i], b, bi)
		if !unitDiag {
			inv := 1 / li[i]
			for j := range bi {
				bi[j] *= inv
			}
		}
	}
}

// TrsmUpperLeft solves U*X = B in place (B becomes X) where U is upper
// triangular (non-unit diagonal). This is the back-substitution kernel of the
// distributed solve: diagonal blocks of the combined LU factors are passed
// whole, and only their upper triangle (diagonal included) is read — the
// blocked variant preserves that contract.
func TrsmUpperLeft(u *mat.Matrix, b *mat.Matrix) {
	if u.Rows != u.Cols || u.Rows != b.Rows {
		panic("blas: TrsmUpperLeft shape mismatch")
	}
	if u.Phantom() || b.Phantom() {
		return
	}
	if u.Rows > trsmBlock {
		trsmUpperLeftBlocked(u, b)
		return
	}
	trsmUpperLeftUnb(u, b)
}

// trsmUpperLeftUnb streams row i's update as trsmLowerLeftUnb does, over
// the rows below it.
func trsmUpperLeftUnb(u *mat.Matrix, b *mat.Matrix) {
	n := u.Rows
	for i := n - 1; i >= 0; i-- {
		bi := b.Row(i)
		ui := u.Row(i)
		streamRow(-1, ui[i+1:], b.View(i+1, 0, n-i-1, b.Cols), bi)
		inv := 1 / ui[i]
		for j := range bi {
			bi[j] *= inv
		}
	}
}

// TrsmUpperRight solves X*U = B in place (B becomes X) where U is upper
// triangular (non-unit diagonal). This is the "FactorizeA10" kernel: rows of
// the column panel are solved against U00.
func TrsmUpperRight(u *mat.Matrix, b *mat.Matrix) {
	if u.Rows != u.Cols || u.Cols != b.Cols {
		panic("blas: TrsmUpperRight shape mismatch")
	}
	if u.Phantom() || b.Phantom() {
		return
	}
	if u.Cols > trsmBlock {
		trsmUpperRightBlocked(u, b)
		return
	}
	trsmUpperRightUnb(u, b)
}

func trsmUpperRightUnb(u *mat.Matrix, b *mat.Matrix) {
	n := u.Cols
	// U's upper triangle, column-contiguous: column j (rows 0..j) is
	// ut[j(j+1)/2 :][:j+1], so the k-loop below walks memory in order instead
	// of striding down U. Diagonal blocks fit the stack buffer; only a direct
	// call on a wider U takes the heap.
	var buf [trsmBlock * (trsmBlock + 1) / 2]float64
	ut := buf[:]
	if tri := n * (n + 1) / 2; tri > len(buf) {
		ut = make([]float64, tri)
	}
	for j := 0; j < n; j++ {
		col := ut[j*(j+1)/2:][:j+1]
		for k := range col {
			col[k] = u.Data[k*u.Stride+j]
		}
	}
	for i := 0; i < b.Rows; i++ {
		bi := b.Row(i)[:n]
		for j := range bi {
			uj := ut[j*(j+1)/2:][:j+1]
			s := bi[j]
			for k, ukj := range uj[:j] {
				s -= bi[k] * ukj
			}
			bi[j] = s / uj[j]
		}
	}
}
