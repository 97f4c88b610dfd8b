package lapack

import (
	"errors"
	"math"

	"repro/internal/mat"
)

// ErrNotPD is returned when a Cholesky pivot is not positive: zero,
// negative or NaN.
var ErrNotPD = errors.New("lapack: matrix is not positive definite")

// Potrf factors a symmetric positive definite matrix in place into its lower
// Cholesky factor L, A = L·Lᵀ, zeroing the strict upper triangle.
func Potrf(a *mat.Matrix) error {
	n := a.Rows
	if a.Cols != n {
		panic("lapack: Potrf requires square input")
	}
	if a.Phantom() {
		return nil
	}
	for k := 0; k < n; k++ {
		d := a.At(k, k)
		for j := 0; j < k; j++ {
			d -= a.At(k, j) * a.At(k, j)
		}
		if !(d > 0) { // a NaN pivot fails too
			return ErrNotPD
		}
		d = math.Sqrt(d)
		a.Set(k, k, d)
		for i := k + 1; i < n; i++ {
			s := a.At(i, k)
			for j := 0; j < k; j++ {
				s -= a.At(i, j) * a.At(k, j)
			}
			a.Set(i, k, s/d)
		}
		for j := k + 1; j < n; j++ {
			a.Set(k, j, 0)
		}
	}
	return nil
}
