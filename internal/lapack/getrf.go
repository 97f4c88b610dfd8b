// Package lapack provides sequential LAPACK-style factorization kernels:
// unblocked and blocked LU with partial pivoting, triangular solves, row
// interchanges, and the local candidate-selection kernel used by tournament
// pivoting (paper §7.3), with the message form the engines exchange
// candidate sets in.
package lapack

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/blas"
	"repro/internal/mat"
)

// ErrSingular is returned when a zero pivot is encountered.
var ErrSingular = errors.New("lapack: matrix is singular to working precision")

// Getrf2 computes an unblocked LU factorization with partial pivoting of the
// m×n matrix A in place: A = P·L·U where ipiv[k] is the row swapped with row
// k at step k (LAPACK convention, 0-based). Requires m >= n.
func Getrf2(a *mat.Matrix, ipiv []int) error {
	m, n := a.Rows, a.Cols
	if m < n {
		panic(fmt.Sprintf("lapack: Getrf2 requires m >= n, got %dx%d", m, n))
	}
	if len(ipiv) != n {
		panic("lapack: Getrf2 ipiv length mismatch")
	}
	if a.Phantom() {
		for k := range ipiv {
			ipiv[k] = k
		}
		return nil
	}
	// Row i is d[i*s : i*s+n]; hoisting the slices out of the element loops
	// drops At/Set's per-element checks, not a single operation or its order.
	d, s := a.Data, a.Stride
	for k := 0; k < n; k++ {
		// Pivot search in column k, rows k..m-1.
		p, best := k, math.Abs(d[k*s+k])
		for i := k + 1; i < m; i++ {
			if v := math.Abs(d[i*s+k]); v > best {
				p, best = i, v
			}
		}
		ipiv[k] = p
		if best == 0 {
			return ErrSingular
		}
		ak := d[k*s : k*s+n]
		if p != k {
			blas.Swap(d[p*s:p*s+n], ak)
		}
		inv := 1 / ak[k]
		ak = ak[k+1:]
		for i := k + 1; i < m; i++ {
			// No zero-multiplier skip: a NaN/Inf in the pivot row must
			// propagate even when lik == 0 (same convention as blas.Gemm).
			row := d[i*s+k : i*s+n]
			lik := row[0] * inv
			row[0] = lik
			ai := row[1:][:len(ak)]
			for j, u := range ak {
				ai[j] -= lik * u
			}
		}
	}
	return nil
}

// Getrf computes a blocked LU factorization with partial pivoting in place,
// with block size nb. Semantics match Getrf2 (right-looking variant). The
// trailing update is one TrsmLowerLeft + Gemm pair per panel, so nearly all
// flops run on the cache-blocked level-3 kernels; the default nb matches
// their triangular block size.
func Getrf(a *mat.Matrix, ipiv []int, nb int) error {
	m, n := a.Rows, a.Cols
	if m < n {
		panic("lapack: Getrf requires m >= n")
	}
	if len(ipiv) != n {
		panic("lapack: Getrf ipiv length mismatch")
	}
	if nb <= 0 {
		nb = 64
	}
	if a.Phantom() {
		for k := range ipiv {
			ipiv[k] = k
		}
		return nil
	}
	for k := 0; k < n; k += nb {
		b := min(nb, n-k)
		panel := a.View(k, k, m-k, b)
		piv := make([]int, b)
		if err := Getrf2(panel, piv); err != nil {
			return err
		}
		// Apply panel pivots to the rest of the matrix and record global ipiv.
		for j := 0; j < b; j++ {
			ipiv[k+j] = piv[j] + k
			if piv[j] != j {
				r1, r2 := k+j, k+piv[j]
				// Left of the panel.
				if k > 0 {
					blas.Swap(a.Data[r1*a.Stride:r1*a.Stride+k], a.Data[r2*a.Stride:r2*a.Stride+k])
				}
				// Right of the panel.
				if k+b < n {
					blas.Swap(a.Data[r1*a.Stride+k+b:r1*a.Stride+n], a.Data[r2*a.Stride+k+b:r2*a.Stride+n])
				}
			}
		}
		if k+b < n {
			l00 := a.View(k, k, b, b)
			a01 := a.View(k, k+b, b, n-k-b)
			blas.TrsmLowerLeft(l00, a01, true)
			if k+b < m {
				l10 := a.View(k+b, k, m-k-b, b)
				a11 := a.View(k+b, k+b, m-k-b, n-k-b)
				blas.Gemm(-1, l10, a01, 1, a11)
			}
		}
	}
	return nil
}

// Laswp applies the row interchanges ipiv (LAPACK convention) to A, forward.
func Laswp(a *mat.Matrix, ipiv []int) {
	if a.Phantom() {
		return
	}
	for k, p := range ipiv {
		if p != k {
			blas.Swap(a.Row(k), a.Row(p))
		}
	}
}

// PermFromIpiv converts LAPACK-style sequential interchanges into an
// explicit permutation: perm[i] is the original row that ends up at
// position i after applying ipiv forward (A[perm,:] = L·U). It is the one
// shared ipiv→perm conversion — every engine and the public API route
// through it.
func PermFromIpiv(ipiv []int, m int) []int {
	perm := make([]int, m)
	for i := range perm {
		perm[i] = i
	}
	for k, p := range ipiv {
		perm[k], perm[p] = perm[p], perm[k]
	}
	return perm
}

// SplitLU extracts explicit L (m×n unit lower trapezoidal) and U (n×n upper)
// factors from an in-place LU of an m×n matrix (m >= n).
func SplitLU(lu *mat.Matrix) (l, u *mat.Matrix) {
	m, n := lu.Rows, lu.Cols
	l, u = mat.New(m, n), mat.New(n, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			switch {
			case i > j:
				l.Set(i, j, lu.At(i, j))
			case i == j:
				l.Set(i, j, 1)
				u.Set(i, j, lu.At(i, j))
			default:
				if i < n {
					u.Set(i, j, lu.At(i, j))
				}
			}
		}
	}
	return l, u
}
