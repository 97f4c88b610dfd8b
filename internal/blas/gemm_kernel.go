package blas

import "repro/internal/mat"

// blockedFlopCutoff is the multiply-add count 2·m·n·k below which the
// packing traffic of the blocked path costs more than it saves.
const blockedFlopCutoff = 1 << 18 // ~2·64³

// gemmRowsPackedK is the depth from which GemmRows takes the packed path.
// Its C operand is a rank's whole trailing matrix, so the call is always
// large; what decides is k, the flops each packed element and each pass
// over C buy. At k = 4 the streaming loop wins (6.4 vs 5.1 GFLOP/s on the
// recording host), at 16 and 32 the micro-kernel runs at twice its rate
// (EXPERIMENTS.md "Blocking parameter"). The depths between are the
// blocking-parameter floor's (v = 2c at c = 4…6), whose factors are pinned
// bit for bit on every ISA, so they stay on the streaming loop.
const gemmRowsPackedK = 16

// gemmBlocked computes C[rows[i], :] += alpha·A[i, :]·B with the
// cache-blocked, register-tiled kernel (DESIGN.md §15); rows == nil is the
// dense case, C row i for A row i. Loop structure, outermost first:
//
//	jc over N by nc: pack B(kc×nc) once per (jc,pc), shared read-only;
//	pc over K by kc: depth blocks, applied in increasing-p order;
//	ic over M by mc: pack A(mc×kc) per block;
//	jr/ir over the block by nr/mr: micro-tiles of C.
//
// Determinism: the kernel is serial and mc/mr/nr are constants, so row i of
// A belongs to one fixed (ic, ir) strip and each C element it reaches
// accumulates its partial products in the same (pc, p) order — in the same
// registers — on every call: the evaluation order is a function of the
// operand shapes alone, never of the row indices, which only say where a
// finished micro-tile row is added, and a ragged edge tile adds it exactly as
// a full one does. A C row listed twice takes its two updates one after the
// other, in list order, within each depth block (past kc they interleave
// block by block). Callers parallelise above it:
// a numeric run has one rank goroutine per simulated processor, each calling
// the kernels on its own tiles.
func gemmBlocked(alpha float64, a, b, c *mat.Matrix, rows []int) {
	m, n, k := a.Rows, b.Cols, a.Cols
	for jcb := 0; jcb < n; jcb += nc {
		nb := min(nc, n-jcb)
		bStrips := (nb + nr - 1) / nr
		bp := getPack(bStrips * nr * kc)
		for pcb := 0; pcb < k; pcb += kc {
			kb := min(kc, k-pcb)
			packB(b.Data, b.Stride, pcb, jcb, kb, nb, bp[:bStrips*nr*kb])
			for icb := 0; icb < m; icb += mc {
				macroBlock(alpha, a, c, rows, icb, jcb, min(mc, m-icb), nb, pcb, kb, bp)
			}
		}
		putPack(bp)
	}
}

// macroBlock multiplies one packed mb×kb block of A against the resident
// packed B block, updating the nb columns at jcb of the mb rows of C that
// rows (the identity when nil) assigns to A's rows icb.. — in place, one
// micro-tile row at a time, so an indexed update never copies C.
func macroBlock(alpha float64, a, c *mat.Matrix, rows []int, icb, jcb, mb, nb, pcb, kb int, bp []float64) {
	ap := getPack(((mb + mr - 1) / mr) * mr * kb)
	packA(a.Data, a.Stride, icb, pcb, mb, kb, ap)
	// offs[i] locates the block's i-th C row; checking each row's last
	// element here is what licenses the assembly's unchecked tile stores.
	var offs [mc]int
	for i := range offs[:mb] {
		r := icb + i
		if rows != nil {
			r = rows[r]
		}
		offs[i] = r*c.Stride + jcb
		_ = c.Data[offs[i]+nb-1]
	}
	for sj := 0; sj*nr < nb; sj++ {
		nrb := min(nr, nb-sj*nr)
		bs := bp[sj*nr*kb : (sj+1)*nr*kb]
		cs := c.Data[sj*nr:]
		for si := 0; si*mr < mb; si++ {
			as := ap[si*mr*kb : (si+1)*mr*kb]
			if to := offs[si*mr : min(si*mr+mr, mb)]; len(to) == mr && nrb == nr {
				microKernel(kb, alpha, as, bs, cs, to)
			} else {
				microEdge(kb, alpha, as, bs, cs, to, nrb)
			}
		}
	}
	putPack(ap)
}
