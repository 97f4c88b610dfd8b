// Package blas implements the subset of BLAS-like dense kernels the LU
// factorizations need, in pure Go on top of internal/mat. All kernels treat
// phantom operands as no-ops so that the volume-mode benchmark runs execute
// the same call graph as numeric runs without doing arithmetic.
package blas

// Swap exchanges x and y elementwise.
func Swap(x, y []float64) {
	if len(x) != len(y) {
		panic("blas: Swap length mismatch")
	}
	for i := range x {
		x[i], y[i] = y[i], x[i]
	}
}
