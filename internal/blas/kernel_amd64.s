//go:build amd64 && !purego

#include "textflag.h"

// func micro6x8ASM(kb int, alpha float64, ap, bp, c *float64, offs *int)
//
// C[offs[r]..+8] += alpha * (Apack(6×kb) * Bpack(kb×8))[r] for r = 0..5:
// tile row r lives at element offset offs[r] from c, so the rows of a tile
// need not be equidistant (GemmRows) — dense GEMM passes r·ldc. Apack is
// depth-major mr-strips: ap[p*6+i] = A[i][p]; Bpack is depth-major
// nr-strips: bp[p*8+j] = B[p][j] (pack.go).
//
// Twelve YMM accumulators Y4..Y15 hold the tile, two 4-wide halves per row
// (row i in Y(4+2i), Y(5+2i)); the depth loop does two 4-lane loads of B
// into Y0/Y1, then six broadcasts of A (alternating Y2/Y3) and twelve FMAs:
// 8 loads per 12 FMAs, and enough independent accumulators to cover the FMA
// latency on two ports. alpha is folded in at writeback (one extra FMA per
// half-row), so the accumulation itself is a pure fixed-order sum over p —
// the evaluation order every determinism test pins. Rows are written back
// one after the other, load-FMA-store, so two tile rows naming the same C
// row compose.
#define WRITEBACK(i, lo, hi) \
	MOVQ i*8(R8), R9 \
	VMOVUPD (DX)(R9*8), Y0 \
	VFMADD231PD lo, Y2, Y0 \
	VMOVUPD Y0, (DX)(R9*8) \
	VMOVUPD 32(DX)(R9*8), Y1 \
	VFMADD231PD hi, Y2, Y1 \
	VMOVUPD Y1, 32(DX)(R9*8)

// Touch both cache lines a C tile row can straddle, so the writeback's
// loads hit L1 instead of stalling on a miss the FMA loop could have hidden.
#define PREFETCHROW(i) \
	MOVQ i*8(R8), R9 \
	PREFETCHT0 (DX)(R9*8) \
	PREFETCHT0 63(DX)(R9*8)

TEXT ·micro6x8ASM(SB), NOSPLIT, $0-48
	MOVQ kb+0(FP), CX
	MOVQ ap+16(FP), SI
	MOVQ bp+24(FP), DI
	MOVQ c+32(FP), DX
	MOVQ offs+40(FP), R8

	PREFETCHROW(0)
	PREFETCHROW(1)
	PREFETCHROW(2)
	PREFETCHROW(3)
	PREFETCHROW(4)
	PREFETCHROW(5)

	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	VXORPD Y14, Y14, Y14
	VXORPD Y15, Y15, Y15

	TESTQ CX, CX
	JZ    done

loop:
	VMOVUPD (DI), Y0       // B[p][0:4]
	VMOVUPD 32(DI), Y1     // B[p][4:8]
	VBROADCASTSD (SI), Y2  // A[0][p]
	VFMADD231PD Y0, Y2, Y4
	VFMADD231PD Y1, Y2, Y5
	VBROADCASTSD 8(SI), Y3
	VFMADD231PD Y0, Y3, Y6
	VFMADD231PD Y1, Y3, Y7
	VBROADCASTSD 16(SI), Y2
	VFMADD231PD Y0, Y2, Y8
	VFMADD231PD Y1, Y2, Y9
	VBROADCASTSD 24(SI), Y3
	VFMADD231PD Y0, Y3, Y10
	VFMADD231PD Y1, Y3, Y11
	VBROADCASTSD 32(SI), Y2
	VFMADD231PD Y0, Y2, Y12
	VFMADD231PD Y1, Y2, Y13
	VBROADCASTSD 40(SI), Y3
	VFMADD231PD Y0, Y3, Y14
	VFMADD231PD Y1, Y3, Y15
	ADDQ $48, SI           // next A strip column (6 doubles)
	ADDQ $64, DI           // next B strip row (8 doubles)
	DECQ CX
	JNZ  loop

done:
	// C row r (+)= alpha * acc_r
	VBROADCASTSD alpha+8(FP), Y2
	WRITEBACK(0, Y4, Y5)
	WRITEBACK(1, Y6, Y7)
	WRITEBACK(2, Y8, Y9)
	WRITEBACK(3, Y10, Y11)
	WRITEBACK(4, Y12, Y13)
	WRITEBACK(5, Y14, Y15)
	VZEROUPPER
	RET

// func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
