package lapack_test

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/lapack"
	"repro/internal/mat"
	"repro/internal/testutil"
)

func TestPotrfReference(t *testing.T) {
	a := testutil.SPD(12, 3)
	l := a.Clone()
	if err := lapack.Potrf(l); err != nil {
		t.Fatal(err)
	}
	if r := testutil.ResidualCholesky(a, l); r > 1e-12 {
		t.Fatalf("residual %v", r)
	}
	for i := 0; i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			if l.At(i, j) != 0 {
				t.Fatalf("upper (%d,%d) = %v", i, j, l.At(i, j))
			}
		}
	}
}

// A zero, a negative and a NaN pivot are all rejected.
func TestPotrfNotPD(t *testing.T) {
	for _, d := range []float64{0, -1, math.NaN()} {
		a := testutil.SPD(6, 1)
		a.Set(3, 3, d)
		if err := lapack.Potrf(a); err != lapack.ErrNotPD {
			t.Fatalf("A[3][3] = %v: err = %v", d, err)
		}
	}
}

// Property: lapack.Potrf(L·Lᵀ) recovers L for random lower-triangular L with
// positive diagonal.
func TestQuickPotrfRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		g := mat.NewRNG(seed)
		n := 2 + g.Intn(10)
		l := mat.New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				l.Set(i, j, g.Float64()-0.5)
			}
			l.Set(i, i, 0.5+g.Float64())
		}
		a := mat.New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for k := 0; k <= min(i, j); k++ {
					s += l.At(i, k) * l.At(j, k)
				}
				a.Set(i, j, s)
			}
		}
		if err := lapack.Potrf(a); err != nil {
			return false
		}
		return mat.MaxAbsDiff(a, l) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
