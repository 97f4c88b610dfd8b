package blas

import (
	"math/bits"
	"sync"
)

// Cache-blocking parameters of the level-3 kernels (DESIGN.md §15). The
// micro-kernel computes an mr×nr register tile of C; the macro loops carve
// A into mc×kc blocks (packed, L2-resident) and B into kc×nc blocks whose
// kc×nr strips stream through L1. All four are compile-time constants, so
// the partition of C into tiles — and therefore the exact floating-point
// evaluation order of every output element — depends only on the operand
// shapes, never on the host, the rep, or the kernel worker count.
const (
	mr = 6    // micro-tile rows
	nr = 8    // micro-tile cols (two 4-wide vectors on amd64)
	mc = 120  // rows of A packed per L2 block (multiple of mr)
	kc = 256  // depth of one packed block
	nc = 2048 // cols of B packed per outer block (multiple of nr)
)

// Size-classed pools for packed-panel buffers, the same idiom as
// internal/smpi's wire-buffer pools: classes are powers of two, a leased
// slice has len == requested and cap == the class size, and Put files
// off-class capacities under the class they can still serve. Packing
// buffers are short-lived (one GEMM macro-block each) and their peak sizes
// repeat across calls, which is exactly the sync.Pool sweet spot.
const maxPackClass = 24 // 1<<24 floats = 128 MiB; larger buffers go to the GC

var packPools [maxPackClass + 1]sync.Pool

func packClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1)) // smallest c with 1<<c >= n
}

// getPack leases a length-n buffer. Contents are undefined: every element
// the kernels read is written by the pack that follows (edge strips are
// explicitly zero-padded).
func getPack(n int) []float64 {
	if n == 0 {
		return nil
	}
	c := packClass(n)
	if c > maxPackClass {
		return make([]float64, n)
	}
	if got := packPools[c].Get(); got != nil {
		return (*got.(*[]float64))[:n]
	}
	return make([]float64, n, 1<<c)
}

// putPack returns a packing buffer to its pool. The caller must not retain
// the slice afterwards.
func putPack(s []float64) {
	if s == nil {
		return
	}
	c := packClass(cap(s))
	if 1<<c != cap(s) {
		c--
	}
	if c < 0 || c > maxPackClass {
		return
	}
	full := s[0:cap(s)]
	packPools[c].Put(&full)
}

// packA copies the mb×kb block of a starting at (i0, p0) into dst as
// mr-row strips: strip si holds rows [i0+si·mr, i0+si·mr+mr) in
// depth-major order, dst[si·mr·kb + p·mr + r] = a[i0+si·mr+r, p0+p].
// Rows beyond mb are zero-padded so the micro-kernel always consumes a
// full strip. dst must have length ceil(mb/mr)·mr·kb.
func packA(a []float64, lda, i0, p0, mb, kb int, dst []float64) {
	for si := 0; si < (mb+mr-1)/mr; si++ {
		strip := dst[si*mr*kb:]
		for r := 0; r < mr; r++ {
			row := i0 + si*mr + r
			if row >= i0+mb {
				for p := 0; p < kb; p++ {
					strip[p*mr+r] = 0
				}
				continue
			}
			src := a[row*lda+p0 : row*lda+p0+kb]
			for p, v := range src {
				strip[p*mr+r] = v
			}
		}
	}
}

// packB copies the kb×nb block of b starting at (p0, j0) into dst as
// nr-column strips: strip sj holds columns [j0+sj·nr, j0+sj·nr+nr) in
// depth-major order, dst[sj·nr·kb + p·nr + c] = b[p0+p, j0+sj·nr+c].
// Columns beyond nb are zero-padded. dst must have length
// ceil(nb/nr)·nr·kb.
func packB(b []float64, ldb, p0, j0, kb, nb int, dst []float64) {
	for sj := 0; sj < (nb+nr-1)/nr; sj++ {
		strip := dst[sj*nr*kb:]
		col := j0 + sj*nr
		w := nb - sj*nr
		if w > nr {
			w = nr
		}
		for p := 0; p < kb; p++ {
			src := b[(p0+p)*ldb+col:]
			d := strip[p*nr : p*nr+nr]
			for c := 0; c < w; c++ {
				d[c] = src[c]
			}
			for c := w; c < nr; c++ {
				d[c] = 0
			}
		}
	}
}
