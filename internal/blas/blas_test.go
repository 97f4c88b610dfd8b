package blas

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func naiveGemm(alpha float64, a, b *mat.Matrix, beta float64, c *mat.Matrix) *mat.Matrix {
	out := mat.New(c.Rows, c.Cols)
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			s := beta * c.At(i, j)
			for k := 0; k < a.Cols; k++ {
				s += alpha * a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestSwap(t *testing.T) {
	x, y := []float64{1, 2}, []float64{3, 4}
	Swap(x, y)
	if x[0] != 3 || y[1] != 2 {
		t.Fatalf("swap: %v %v", x, y)
	}
}

func TestGemmAgainstNaive(t *testing.T) {
	for _, dims := range [][3]int{{1, 1, 1}, {3, 4, 5}, {8, 8, 8}, {7, 2, 9}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := mat.Random(m, k, 1)
		b := mat.Random(k, n, 2)
		c := mat.Random(m, n, 3)
		want := naiveGemm(-1.5, a, b, 0.5, c)
		Gemm(-1.5, a, b, 0.5, c)
		if d := mat.MaxAbsDiff(c, want); d > 1e-12 {
			t.Fatalf("gemm %v diff %v", dims, d)
		}
	}
}

func TestGemmShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Gemm(1, mat.New(2, 3), mat.New(2, 3), 1, mat.New(2, 3))
}

func TestGemmPhantomNoop(t *testing.T) {
	a := mat.NewPhantom(3, 3)
	b := mat.Random(3, 3, 1)
	c := mat.Random(3, 3, 2)
	orig := c.Clone()
	Gemm(1, a, b, 1, c)
	if mat.MaxAbsDiff(c, orig) != 0 {
		t.Fatal("phantom gemm modified C")
	}
}

func TestTrsmLowerLeft(t *testing.T) {
	n := 6
	l := mat.New(n, n)
	g := mat.NewRNG(4)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			l.Set(i, j, g.Float64())
		}
		l.Set(i, i, 1+g.Float64())
	}
	x := mat.Random(n, 3, 5)
	b := mat.New(n, 3)
	Gemm(1, l, x, 0, b)
	// unit-diag variant: use L with implicit unit diagonal
	lu := l.Clone()
	for i := 0; i < n; i++ {
		lu.Set(i, i, 1)
	}
	bu := mat.New(n, 3)
	Gemm(1, lu, x, 0, bu)
	TrsmLowerLeft(lu, bu, true)
	if d := mat.MaxAbsDiff(bu, x); d > 1e-10 {
		t.Fatalf("unit trsm diff %v", d)
	}
	TrsmLowerLeft(l, b, false)
	if d := mat.MaxAbsDiff(b, x); d > 1e-10 {
		t.Fatalf("non-unit trsm diff %v", d)
	}
}

func TestTrsmUpperLeft(t *testing.T) {
	n := 6
	u := mat.New(n, n)
	g := mat.NewRNG(11)
	for i := 0; i < n; i++ {
		u.Set(i, i, 1+g.Float64())
		for j := i + 1; j < n; j++ {
			u.Set(i, j, g.Float64()-0.5)
		}
	}
	x := mat.Random(n, 3, 8)
	b := mat.New(n, 3)
	Gemm(1, u, x, 0, b)
	TrsmUpperLeft(u, b)
	if d := mat.MaxAbsDiff(b, x); d > 1e-10 {
		t.Fatalf("trsm diff %v", d)
	}
	// The kernel must ignore the strict lower triangle: diagonal tiles of
	// combined LU factors are passed whole.
	full := u.Clone()
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			full.Set(i, j, g.Float64())
		}
	}
	b2 := mat.New(n, 3)
	Gemm(1, u, x, 0, b2)
	TrsmUpperLeft(full, b2)
	if d := mat.MaxAbsDiff(b2, x); d > 1e-10 {
		t.Fatalf("combined-tile trsm diff %v", d)
	}
}

func TestTrsmUpperRight(t *testing.T) {
	n := 5
	u := mat.New(n, n)
	g := mat.NewRNG(9)
	for i := 0; i < n; i++ {
		u.Set(i, i, 1+g.Float64())
		for j := i + 1; j < n; j++ {
			u.Set(i, j, g.Float64()-0.5)
		}
	}
	x := mat.Random(4, n, 6)
	b := mat.New(4, n)
	Gemm(1, x, u, 0, b)
	TrsmUpperRight(u, b)
	if d := mat.MaxAbsDiff(b, x); d > 1e-10 {
		t.Fatalf("trsm diff %v", d)
	}
}

// Property: gemm is linear in alpha.
func TestQuickGemmLinearity(t *testing.T) {
	f := func(seed uint64, a8 int8) bool {
		alpha := float64(a8) / 16
		a := mat.Random(4, 3, seed)
		b := mat.Random(3, 4, seed+1)
		c1 := mat.New(4, 4)
		c2 := mat.New(4, 4)
		Gemm(alpha, a, b, 0, c1)
		Gemm(1, a, b, 0, c2)
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				if !almostEq(c1.At(i, j), alpha*c2.At(i, j), 1e-12) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: TrsmUpperRight inverts multiplication by U.
func TestQuickTrsmRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		g := mat.NewRNG(seed)
		n := 3 + g.Intn(5)
		u := mat.New(n, n)
		for i := 0; i < n; i++ {
			u.Set(i, i, 1+g.Float64())
			for j := i + 1; j < n; j++ {
				u.Set(i, j, g.Float64()-0.5)
			}
		}
		x := mat.Random(3, n, seed+2)
		b := mat.New(3, n)
		Gemm(1, x, u, 0, b)
		TrsmUpperRight(u, b)
		return mat.MaxAbsDiff(b, x) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
