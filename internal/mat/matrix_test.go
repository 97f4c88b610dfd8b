package mat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewAndAtSet(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || m.Stride != 4 {
		t.Fatalf("bad shape: %+v", m)
	}
	m.Set(2, 3, 7.5)
	if got := m.At(2, 3); got != 7.5 {
		t.Fatalf("At(2,3)=%v", got)
	}
	m.Add(2, 3, 0.5)
	if got := m.At(2, 3); got != 8 {
		t.Fatalf("after Add, At(2,3)=%v", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := New(2, 2)
	for _, f := range []func(){
		func() { m.At(2, 0) },
		func() { m.At(0, -1) },
		func() { m.Set(-1, 0, 1) },
		func() { m.View(1, 1, 2, 1) },
		func() { m.Row(5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestViewAliases(t *testing.T) {
	m := New(4, 4)
	v := m.View(1, 1, 2, 2)
	v.Set(0, 0, 3)
	if m.At(1, 1) != 3 {
		t.Fatal("view does not alias parent")
	}
	if v.Rows != 2 || v.Cols != 2 || v.Stride != 4 {
		t.Fatalf("bad view shape %+v", v)
	}
	vv := v.View(1, 1, 1, 1)
	vv.Set(0, 0, 9)
	if m.At(2, 2) != 9 {
		t.Fatal("nested view broken")
	}
}

// An empty view is legal wherever its origin is in range, including past the
// last element: row Rows of a matrix, or column j > 0 of a matrix without
// rows (a rank's local panel when it owns no tile row).
func TestEmptyViewsAtTheEdge(t *testing.T) {
	m := New(3, 4)
	if v := m.View(3, 2, 0, 2); v.Rows != 0 || v.Cols != 2 || v.Phantom() {
		t.Fatalf("view below the last row: %+v", v)
	}
	if v := New(0, 5).View(0, 3, 0, 2); v.Rows != 0 || v.Cols != 2 || v.Phantom() {
		t.Fatalf("view into a matrix without rows: %+v", v)
	}
	// A non-empty view out of range still panics.
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range view did not panic")
		}
	}()
	m.View(3, 0, 1, 1)
}

func TestPhantomSemantics(t *testing.T) {
	p := NewPhantom(3, 3)
	if !p.Phantom() {
		t.Fatal("not phantom")
	}
	p.Set(0, 0, 1) // dropped
	if p.At(0, 0) != 0 {
		t.Fatal("phantom reads nonzero")
	}
	v := p.View(1, 1, 2, 2)
	if !v.Phantom() || v.Rows != 2 {
		t.Fatalf("phantom view wrong: %+v", v)
	}
	if p.Pack() != nil {
		t.Fatal("phantom Pack must be nil")
	}
	c := p.Clone()
	if !c.Phantom() {
		t.Fatal("clone of phantom must be phantom")
	}
	// Cross-mode copies are no-ops, not panics.
	n := New(3, 3)
	n.Set(1, 1, 5)
	p.CopyFrom(n)
	n.CopyFrom(p)
	if n.At(1, 1) != 5 {
		t.Fatal("CopyFrom phantom overwrote numeric data")
	}
	n.Unpack(nil)
	if n.At(1, 1) != 5 {
		t.Fatal("Unpack(nil) overwrote numeric data")
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	m := Random(5, 7, 42)
	v := m.View(1, 2, 3, 4)
	packed := v.Pack()
	if len(packed) != 12 {
		t.Fatalf("packed len %d", len(packed))
	}
	out := New(3, 4)
	out.Unpack(packed)
	if MaxAbsDiff(out, cloneOf(v)) != 0 {
		t.Fatal("round trip mismatch")
	}
}

func cloneOf(m *Matrix) *Matrix { return m.Clone() }

func TestCloneIndependent(t *testing.T) {
	m := Random(3, 3, 1)
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Fatal("clone aliases original")
	}
}

func TestAddFromAndZero(t *testing.T) {
	a := Random(3, 3, 1)
	b := Random(3, 3, 2)
	want := New(3, 3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want.Set(i, j, a.At(i, j)+b.At(i, j))
		}
	}
	a.AddFrom(b)
	if MaxAbsDiff(a, want) != 0 {
		t.Fatal("AddFrom wrong")
	}
	a.Zero()
	if NormFro(a) != 0 {
		t.Fatal("Zero left data")
	}
}

func TestEyeAndNorms(t *testing.T) {
	id := Eye(4)
	if NormFro(id) != 2 {
		t.Fatalf("fro(I4)=%v", NormFro(id))
	}
	if NormInf(id) != 1 {
		t.Fatalf("inf(I4)=%v", NormInf(id))
	}
	m := New(2, 2)
	m.Set(0, 0, -3)
	m.Set(0, 1, 4)
	if NormInf(m) != 7 {
		t.Fatalf("inf=%v", NormInf(m))
	}
}

func TestPermuteRows(t *testing.T) {
	m := New(3, 2)
	for i := 0; i < 3; i++ {
		m.Set(i, 0, float64(i))
	}
	p := PermuteRows(m, []int{2, 0, 1})
	if p.At(0, 0) != 2 || p.At(1, 0) != 0 || p.At(2, 0) != 1 {
		t.Fatalf("bad permute:\n%v", p)
	}
}

func TestRNGDeterminismAndRange(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("rng not deterministic")
		}
	}
	g := NewRNG(3)
	for i := 0; i < 1000; i++ {
		v := g.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRandomPermIsPermutation(t *testing.T) {
	g := NewRNG(11)
	p := g.RandomPerm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRandomDiagDominant(t *testing.T) {
	m := RandomDiagDominant(8, 5)
	for i := 0; i < 8; i++ {
		var off float64
		for j := 0; j < 8; j++ {
			if i != j {
				off += math.Abs(m.At(i, j))
			}
		}
		if math.Abs(m.At(i, i)) <= off {
			t.Fatalf("row %d not dominant", i)
		}
	}
}

// Property: Pack/Unpack round-trips arbitrary shapes.
func TestQuickPackRoundTrip(t *testing.T) {
	f := func(r8, c8 uint8, seed uint64) bool {
		r, c := int(r8%16)+1, int(c8%16)+1
		m := Random(r, c, seed)
		out := New(r, c)
		out.Unpack(m.Pack())
		return MaxAbsDiff(m, out) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a view's Pack equals elementwise reads.
func TestQuickViewConsistency(t *testing.T) {
	f := func(seed uint64, i8, j8, r8, c8 uint8) bool {
		m := Random(12, 12, seed)
		i, j := int(i8%6), int(j8%6)
		r, c := int(r8%6)+1, int(c8%6)+1
		v := m.View(i, j, r, c)
		p := v.Pack()
		for x := 0; x < r; x++ {
			for y := 0; y < c; y++ {
				if p[x*c+y] != m.At(i+x, j+y) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
