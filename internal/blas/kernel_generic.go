//go:build !amd64 || purego

package blas

// hasAVX2FMA reports whether the vectorized micro-kernel is available.
// Only the amd64 build carries one, and the `purego` build tag leaves it out
// there too: `make test-purego` runs the portable kernel on the CI host,
// where the default build runs the assembly on every tile, ragged ones
// included.
const hasAVX2FMA = false

// microKernel computes one full mr×nr tile: C += alpha·Ap·Bp, tile row r
// at c[offs[r]]. In this build it is the portable kernel.
func microKernel(kb int, alpha float64, ap, bp []float64, c []float64, offs []int) {
	microGeneric(kb, alpha, ap, bp, c, offs, nr)
}

// microEdge computes a ragged tile: the first nrb columns of len(offs) ≤ mr
// rows. In this build it is the portable kernel too.
func microEdge(kb int, alpha float64, ap, bp []float64, c []float64, offs []int, nrb int) {
	microGeneric(kb, alpha, ap, bp, c, offs, nrb)
}

// KernelISA names the micro-kernel implementation in use, for benchmark
// reports.
func KernelISA() string { return "generic" }
