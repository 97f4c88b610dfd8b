//go:build amd64 && !purego

package blas

import "repro/internal/mat"

// Implemented in kernel_amd64.s. The kernels keep none of their pointers,
// which is what lets macroBlock's row-offset table live on the stack.
//
//go:noescape
func micro6x8ASM(kb int, alpha float64, ap, bp, c *float64, offs *int)

//go:noescape
func streamRowASM(n, k int, alpha float64, a, b *float64, ldb int, c *float64)

func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbvAsm() (eax, edx uint32)

// hasAVX2FMA reports whether the host supports the vectorized
// micro-kernel: AVX2 + FMA3 instruction sets, with the OS having enabled
// YMM state saving (OSXSAVE + XCR0 bits 1:2). Detected once at init, so
// kernel dispatch is fixed for the life of the process — a prerequisite
// for the bit-determinism contract in DESIGN.md §15.
var hasAVX2FMA = detectAVX2FMA()

func detectAVX2FMA() bool {
	_, _, ecx1, _ := cpuidAsm(1, 0)
	const osxsave = 1 << 27
	const fma = 1 << 12
	if ecx1&osxsave == 0 || ecx1&fma == 0 {
		return false
	}
	// The OS must save/restore XMM and YMM state across context switches.
	xcr0, _ := xgetbvAsm()
	if xcr0&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuidAsm(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// microKernel computes one full mr×nr tile: C += alpha·Ap·Bp, tile row r
// at c[offs[r]]. The assembly stores all mr rows unchecked: the caller
// (macroBlock) has bounds-checked every row it passes.
func microKernel(kb int, alpha float64, ap, bp []float64, c []float64, offs []int) {
	if hasAVX2FMA && kb > 0 {
		_ = offs[mr-1]
		micro6x8ASM(kb, alpha, &ap[0], &bp[0], &c[0], &offs[0])
		return
	}
	microGeneric(kb, alpha, ap, bp, c, offs, nr)
}

// streamRow computes crow += alpha·arow·B with the vector stream: each
// 8-column chunk of the C row is held in registers across the whole k loop,
// and its products and sums round one by one, in the Go loop's order, so the
// bits are streamRowGo's (DESIGN.md §15). The assembly reads B rows unchecked:
// checking the last row it reads licenses all of them.
func streamRow(alpha float64, arow []float64, b *mat.Matrix, crow []float64) {
	n, k := len(crow), len(arow)
	if !hasAVX2FMA || n == 0 || k == 0 {
		streamRowGo(alpha, arow, b, crow)
		return
	}
	_ = b.Row(k - 1)[:n]
	streamRowASM(n, k, alpha, &arow[0], &b.Data[0], b.Stride, &crow[0])
}

// microEdge computes a ragged tile — the first nrb columns of len(offs) ≤ mr
// rows. With the vector kernel it copies the valid C cells into a local
// dense tile, runs the full kernel on it and copies them back, so a ragged
// element gets exactly a full tile's fused C + alpha·acc: which tile an
// element falls in never changes its bits, for any alpha. A C row listed
// twice in the tile maps to one local row, so its two updates compose as
// they do in place. Padding rows keep rows of their own (their zero products
// must not touch a valid row: 0·Inf is NaN, and −0 + 0 is +0).
func microEdge(kb int, alpha float64, ap, bp []float64, c []float64, offs []int, nrb int) {
	if !hasAVX2FMA || kb == 0 {
		microGeneric(kb, alpha, ap, bp, c, offs, nrb)
		return
	}
	var tile [mr * nr]float64
	to := tileOffs
	for r, off := range offs {
		for q := range r {
			if offs[q] == off {
				to[r] = to[q]
				break
			}
		}
		copy(tile[to[r]:to[r]+nrb], c[off:off+nrb])
	}
	micro6x8ASM(kb, alpha, &ap[0], &bp[0], &tile[0], &to[0])
	for r, off := range offs {
		copy(c[off:off+nrb], tile[to[r]:to[r]+nrb])
	}
}

// tileOffs are the row offsets of a dense mr×nr tile.
var tileOffs = func() (o [mr]int) {
	for r := range o {
		o[r] = r * nr
	}
	return o
}()

// KernelISA names the micro-kernel implementation in use, for benchmark
// reports.
func KernelISA() string {
	if hasAVX2FMA {
		return "avx2+fma"
	}
	return "generic"
}
