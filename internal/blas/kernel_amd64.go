//go:build amd64 && !purego

package blas

// Implemented in kernel_amd64.s.
func micro8x4ASM(kb int, alpha float64, ap, bp, c *float64, ldc int)
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

// microKernel computes one full mr×nr tile: C += alpha·Ap·Bp with C at
// row stride ldc.
func microKernel(kb int, alpha float64, ap, bp []float64, c []float64, ldc int) {
	if hasAVX2FMA && kb > 0 {
		_ = c[(mr-1)*ldc+nr-1] // the asm writes the full 8×4 tile
		micro8x4ASM(kb, alpha, &ap[0], &bp[0], &c[0], ldc)
		return
	}
	microGeneric(kb, alpha, ap, bp, c, ldc, mr, nr)
}

// KernelISA names the micro-kernel implementation in use, for benchmark
// reports.
func KernelISA() string {
	if hasAVX2FMA {
		return "avx2+fma"
	}
	return "generic"
}
