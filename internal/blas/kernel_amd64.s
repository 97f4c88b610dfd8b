//go:build amd64 && !purego

#include "textflag.h"

// func micro8x4ASM(kb int, alpha float64, ap, bp, c *float64, offs *int)
//
// C[offs[r]..+4] += alpha * (Apack(8×kb) * Bpack(kb×4))[r] for r = 0..7:
// tile row r lives at element offset offs[r] from c, so the rows of a tile
// need not be equidistant (GemmRows) — dense GEMM passes r·ldc. Apack is
// depth-major mr-strips: ap[p*8+i] = A[i][p]; Bpack is depth-major
// nr-strips: bp[p*4+j] = B[p][j] (pack.go).
//
// Eight YMM accumulators Y2..Y9 hold one 4-wide row of the tile each; the
// depth loop does one 4-lane load of B, then eight broadcast+FMA steps.
// alpha is folded in at writeback (one extra FMA per row), so the
// accumulation itself is a pure fixed-order sum over p — the evaluation
// order every determinism test pins. Rows are written back one after the
// other, load-FMA-store, so two tile rows naming the same C row compose.
#define WRITEBACK(i, acc) \
	MOVQ i*8(R8), R9 \
	VMOVUPD (DX)(R9*8), Y0 \
	VFMADD231PD acc, Y1, Y0 \
	VMOVUPD Y0, (DX)(R9*8)

TEXT ·micro8x4ASM(SB), NOSPLIT, $0-48
	MOVQ kb+0(FP), CX
	MOVQ ap+16(FP), SI
	MOVQ bp+24(FP), DI
	MOVQ c+32(FP), DX
	MOVQ offs+40(FP), R8

	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9

	TESTQ CX, CX
	JZ    done

loop:
	VMOVUPD (DI), Y0       // B[p][0:4]
	VBROADCASTSD (SI), Y1  // A[0][p]
	VFMADD231PD Y0, Y1, Y2
	VBROADCASTSD 8(SI), Y1
	VFMADD231PD Y0, Y1, Y3
	VBROADCASTSD 16(SI), Y1
	VFMADD231PD Y0, Y1, Y4
	VBROADCASTSD 24(SI), Y1
	VFMADD231PD Y0, Y1, Y5
	VBROADCASTSD 32(SI), Y1
	VFMADD231PD Y0, Y1, Y6
	VBROADCASTSD 40(SI), Y1
	VFMADD231PD Y0, Y1, Y7
	VBROADCASTSD 48(SI), Y1
	VFMADD231PD Y0, Y1, Y8
	VBROADCASTSD 56(SI), Y1
	VFMADD231PD Y0, Y1, Y9
	ADDQ $64, SI           // next A strip column (8 doubles)
	ADDQ $32, DI           // next B strip row (4 doubles)
	DECQ CX
	JNZ  loop

done:
	// C row r (+)= alpha * acc_r
	VBROADCASTSD alpha+8(FP), Y1
	WRITEBACK(0, Y2)
	WRITEBACK(1, Y3)
	WRITEBACK(2, Y4)
	WRITEBACK(3, Y5)
	WRITEBACK(4, Y6)
	WRITEBACK(5, Y7)
	WRITEBACK(6, Y8)
	WRITEBACK(7, Y9)
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
