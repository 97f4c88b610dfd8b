package blas

import "repro/internal/mat"

// blockedFlopCutoff is the multiply-add count 2·m·n·k below which the
// packing traffic of the blocked path costs more than it saves.
const blockedFlopCutoff = 1 << 18 // ~2·64³

// gemmBlocked computes C += alpha·A·B with the cache-blocked,
// register-tiled kernel (DESIGN.md §15). Loop structure, outermost first:
//
//	jc over N by nc: pack B(kc×nc) once per (jc,pc), shared read-only;
//	pc over K by kc: depth blocks, applied in increasing-p order;
//	ic over M by mc: pack A(mc×kc) per block;
//	jr/ir over the block by nr/mr: micro-tiles of C.
//
// Determinism: the kernel is serial and mc/mr/nr are constants, so each C
// element belongs to one fixed (ic, ir, jr) tile and accumulates its
// partial products in the same (pc, p) order — in the same registers — on
// every call. Callers parallelise above it: a numeric run has one rank
// goroutine per simulated processor, each calling Gemm on its own tiles.
func gemmBlocked(alpha float64, a, b, c *mat.Matrix) {
	m, n, k := a.Rows, b.Cols, a.Cols
	for jcb := 0; jcb < n; jcb += nc {
		nb := min(nc, n-jcb)
		bStrips := (nb + nr - 1) / nr
		bp := getPack(bStrips * nr * kc)
		for pcb := 0; pcb < k; pcb += kc {
			kb := min(kc, k-pcb)
			packB(b.Data, b.Stride, pcb, jcb, kb, nb, bp[:bStrips*nr*kb])
			for icb := 0; icb < m; icb += mc {
				macroBlock(alpha, a, c, icb, jcb, min(mc, m-icb), nb, pcb, kb, bp)
			}
		}
		putPack(bp)
	}
}

// macroBlock multiplies one packed mb×kb block of A against the resident
// packed B block, updating the mb×nb region of C at (icb, jcb).
func macroBlock(alpha float64, a, c *mat.Matrix, icb, jcb, mb, nb, pcb, kb int, bp []float64) {
	ap := getPack(((mb + mr - 1) / mr) * mr * kb)
	packA(a.Data, a.Stride, icb, pcb, mb, kb, ap)
	for sj := 0; sj*nr < nb; sj++ {
		nrb := min(nr, nb-sj*nr)
		bs := bp[sj*nr*kb : (sj+1)*nr*kb]
		for si := 0; si*mr < mb; si++ {
			mrb := min(mr, mb-si*mr)
			as := ap[si*mr*kb : (si+1)*mr*kb]
			coff := (icb+si*mr)*c.Stride + jcb + sj*nr
			if mrb == mr && nrb == nr {
				microKernel(kb, alpha, as, bs, c.Data[coff:], c.Stride)
			} else {
				microGeneric(kb, alpha, as, bs, c.Data[coff:], c.Stride, mrb, nrb)
			}
		}
	}
	putPack(ap)
}
