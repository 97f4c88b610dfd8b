package lapack

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/blas"
	"repro/internal/mat"
)

// residual computes ‖A[perm,:] − L·U‖∞ / ‖A‖∞ for in-place LU factors.
func residual(orig, lu *mat.Matrix, ipiv []int) float64 {
	l, u := SplitLU(lu)
	prod := mat.New(lu.Rows, lu.Cols)
	blas.Gemm(1, l, u, 0, prod)
	perm := PermFromIpiv(ipiv, orig.Rows)
	pa := mat.PermuteRows(orig, perm)
	return mat.MaxAbsDiff(pa, prod) / (mat.NormInf(orig) + 1)
}

func TestGetrf2Square(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 16, 33} {
		a := mat.Random(n, n, uint64(n))
		lu := a.Clone()
		ipiv := make([]int, n)
		if err := Getrf2(lu, ipiv); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if r := residual(a, lu, ipiv); r > 1e-12 {
			t.Fatalf("n=%d residual %v", n, r)
		}
	}
}

func TestGetrf2Rectangular(t *testing.T) {
	a := mat.Random(9, 4, 3)
	lu := a.Clone()
	ipiv := make([]int, 4)
	if err := Getrf2(lu, ipiv); err != nil {
		t.Fatal(err)
	}
	if r := residual(a, lu, ipiv); r > 1e-12 {
		t.Fatalf("residual %v", r)
	}
}

func TestGetrf2PartialPivotingChoosesMax(t *testing.T) {
	a := mat.New(3, 3)
	a.Set(0, 0, 1)
	a.Set(1, 0, -10)
	a.Set(2, 0, 5)
	a.Set(0, 1, 1)
	a.Set(1, 1, 1)
	a.Set(2, 2, 1)
	ipiv := make([]int, 3)
	lu := a.Clone()
	if err := Getrf2(lu, ipiv); err != nil {
		t.Fatal(err)
	}
	if ipiv[0] != 1 {
		t.Fatalf("expected first pivot row 1, got %d", ipiv[0])
	}
	// |multipliers| <= 1 is the partial-pivoting invariant.
	for i := 1; i < 3; i++ {
		for j := 0; j < i; j++ {
			if math.Abs(lu.At(i, j)) > 1+1e-15 {
				t.Fatalf("multiplier (%d,%d)=%v exceeds 1", i, j, lu.At(i, j))
			}
		}
	}
}

func TestGetrf2Singular(t *testing.T) {
	a := mat.New(3, 3) // all zeros
	if err := Getrf2(a, make([]int, 3)); err != ErrSingular {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
}

func TestGetrfBlockedMatchesUnblocked(t *testing.T) {
	for _, nb := range []int{1, 2, 3, 8, 64} {
		a := mat.Random(20, 20, 77)
		lu1 := a.Clone()
		ipiv1 := make([]int, 20)
		if err := Getrf2(lu1, ipiv1); err != nil {
			t.Fatal(err)
		}
		lu2 := a.Clone()
		ipiv2 := make([]int, 20)
		if err := Getrf(lu2, ipiv2, nb); err != nil {
			t.Fatal(err)
		}
		if d := mat.MaxAbsDiff(lu1, lu2); d > 1e-11 {
			t.Fatalf("nb=%d factor diff %v", nb, d)
		}
		for i := range ipiv1 {
			if ipiv1[i] != ipiv2[i] {
				t.Fatalf("nb=%d pivot %d: %d vs %d", nb, i, ipiv1[i], ipiv2[i])
			}
		}
	}
}

func TestGetrfRectangularBlocked(t *testing.T) {
	a := mat.Random(17, 10, 5)
	lu := a.Clone()
	ipiv := make([]int, 10)
	if err := Getrf(lu, ipiv, 4); err != nil {
		t.Fatal(err)
	}
	if r := residual(a, lu, ipiv); r > 1e-12 {
		t.Fatalf("residual %v", r)
	}
}

func TestPhantomGetrf(t *testing.T) {
	a := mat.NewPhantom(8, 8)
	ipiv := make([]int, 8)
	if err := Getrf(a, ipiv, 4); err != nil {
		t.Fatal(err)
	}
	for i, p := range ipiv {
		if p != i {
			t.Fatalf("phantom ipiv[%d]=%d", i, p)
		}
	}
}

func TestPermFromIpiv(t *testing.T) {
	// ipiv = {2, 2, 2}: row 0 swaps with 2, then 1 with 2, then 2 with 2.
	// Forward application of the interchanges to (0 1 2) gives (2 0 1).
	if got := PermFromIpiv([]int{2, 2, 2}, 3); got[0] != 2 || got[1] != 0 || got[2] != 1 {
		t.Fatalf("perm %v want [2 0 1]", got)
	}
	// Identity interchanges yield the identity permutation, including for
	// trailing rows beyond len(ipiv).
	if got := PermFromIpiv([]int{0, 1}, 4); got[2] != 2 || got[3] != 3 || got[0] != 0 {
		t.Fatalf("identity perm %v", got)
	}
	// A permutation is a bijection: every row index appears exactly once.
	perm := PermFromIpiv([]int{3, 4, 2, 4, 4}, 5)
	seen := map[int]bool{}
	for _, p := range perm {
		if p < 0 || p >= 5 || seen[p] {
			t.Fatalf("not a permutation: %v", perm)
		}
		seen[p] = true
	}
}

func TestLaswpMatchesPermFromIpiv(t *testing.T) {
	a := mat.Random(6, 3, 8)
	ipiv := []int{3, 1, 5}
	b := a.Clone()
	Laswp(b, ipiv)
	perm := PermFromIpiv(ipiv, 6)
	c := mat.PermuteRows(a, perm)
	if mat.MaxAbsDiff(b, c) != 0 {
		t.Fatal("Laswp and PermFromIpiv disagree")
	}
}

func TestGetrs(t *testing.T) {
	n := 12
	a := mat.RandomDiagDominant(n, 4)
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i) - 3
	}
	b := make([]float64, n)
	blas.Gemv(1, a, x, 0, b)
	lu := a.Clone()
	ipiv := make([]int, n)
	if err := Getrf(lu, ipiv, 4); err != nil {
		t.Fatal(err)
	}
	Getrs(lu, ipiv, b)
	for i := range x {
		if math.Abs(b[i]-x[i]) > 1e-9 {
			t.Fatalf("solve mismatch at %d: %v vs %v", i, b[i], x[i])
		}
	}
}

func TestSelectCandidatesPicksLargeRows(t *testing.T) {
	v := 2
	rows := mat.New(5, v)
	// Row 3 and row 0 carry the dominant entries.
	rows.Set(0, 0, 9)
	rows.Set(1, 0, 0.1)
	rows.Set(2, 1, 0.2)
	rows.Set(3, 1, 8)
	rows.Set(3, 0, 0.5)
	rows.Set(4, 0, 0.3)
	c := Candidates{Rows: rows, IDs: []int{10, 11, 12, 13, 14}}
	win, err := SelectCandidates(c, v)
	if err != nil {
		t.Fatal(err)
	}
	if len(win.IDs) != v {
		t.Fatalf("want %d winners, got %v", v, win.IDs)
	}
	got := map[int]bool{win.IDs[0]: true, win.IDs[1]: true}
	if !got[10] || !got[13] {
		t.Fatalf("winners %v, want {10,13}", win.IDs)
	}
	// Winner rows carry ORIGINAL (unfactored) data.
	for i, id := range win.IDs {
		src := id - 10
		for j := 0; j < v; j++ {
			if win.Rows.At(i, j) != rows.At(src, j) {
				t.Fatalf("winner %d row not original data", i)
			}
		}
	}
	// Input untouched.
	if rows.At(0, 0) != 9 || rows.At(3, 1) != 8 {
		t.Fatal("SelectCandidates modified its input")
	}
}

func TestSelectCandidatesFewerThanV(t *testing.T) {
	rows := mat.New(1, 3)
	rows.Set(0, 0, 2)
	win, err := SelectCandidates(Candidates{Rows: rows, IDs: []int{7}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(win.IDs) != 1 || win.IDs[0] != 7 {
		t.Fatalf("winners %v", win.IDs)
	}
}

func TestMergeCandidates(t *testing.T) {
	a := Candidates{Rows: mat.Random(2, 3, 1), IDs: []int{1, 2}}
	b := Candidates{Rows: mat.Random(3, 3, 2), IDs: []int{5, 6, 7}}
	m := MergeCandidates(a, b)
	if m.Rows.Rows != 5 || len(m.IDs) != 5 || m.IDs[2] != 5 {
		t.Fatalf("merge wrong: %v", m.IDs)
	}
	if m.Rows.At(0, 0) != a.Rows.At(0, 0) || m.Rows.At(2, 1) != b.Rows.At(0, 1) {
		t.Fatal("merged data wrong")
	}
}

func TestMergeCandidatesPhantom(t *testing.T) {
	a := Candidates{Rows: mat.NewPhantom(2, 3), IDs: []int{1, 2}}
	b := Candidates{Rows: mat.NewPhantom(1, 3), IDs: []int{9}}
	m := MergeCandidates(a, b)
	if !m.Rows.Phantom() || m.Rows.Rows != 3 {
		t.Fatal("phantom merge wrong")
	}
	win, err := SelectCandidates(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(win.IDs) != 2 || !win.Rows.Phantom() {
		t.Fatal("phantom select wrong")
	}
}

// TestCandidatesEmptySetAndWire pins the tournament plumbing the engines
// share: a rank with no rows contributes the empty set, which selection and
// merging pass through, and the wire form round-trips block and IDs in both
// payload modes at the metered rows·w + len(IDs) elements.
func TestCandidatesEmptySetAndWire(t *testing.T) {
	empty := StackCandidates(nil, nil)
	if sel, err := SelectCandidates(empty, 3); err != nil || sel.Rows.Rows != 0 {
		t.Fatalf("empty select: %v rows, err %v", sel.Rows.Rows, err)
	}
	full := StackCandidates(mat.Random(2, 3, 1), []int{4, 9})
	if m := MergeCandidates(empty, full); m.Rows != full.Rows {
		t.Fatal("empty ⊔ full must be full")
	}
	if m := MergeCandidates(full, empty); m.Rows != full.Rows {
		t.Fatal("full ⊔ empty must be full")
	}
	for _, c := range []Candidates{full, {Rows: mat.NewPhantom(2, 3), IDs: []int{4, 9}}, empty} {
		msg := c.Msg(3)
		if want := c.Rows.Rows*3 + len(c.IDs); msg.N != want {
			t.Fatalf("metered %d elements, want %d", msg.N, want)
		}
		back := CandidatesFromMsg(msg, 3)
		if !slices.Equal(back.IDs, c.IDs) || back.Rows.Rows != c.Rows.Rows || back.Rows.Phantom() != c.Rows.Phantom() {
			t.Fatalf("round trip lost the set: %+v -> %+v", c, back)
		}
		if !c.Rows.Phantom() && c.Rows.Rows > 0 && mat.MaxAbsDiff(back.Rows, c.Rows) != 0 {
			t.Fatal("round trip changed the row block")
		}
	}
}

func TestFactorA00(t *testing.T) {
	win := Candidates{Rows: mat.RandomDiagDominant(4, 3), IDs: []int{3, 1, 4, 1591}}
	a00, ids, err := FactorA00(win)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 4 {
		t.Fatalf("ids %v", ids)
	}
	// LU of the (possibly reordered) winner rows must reproduce them.
	l, u := SplitLU(a00)
	prod := mat.New(4, 4)
	blas.Gemm(1, l, u, 0, prod)
	// Map: prod row i corresponds to original winner with IDs[i].
	for i, id := range ids {
		var src int
		for k, w := range win.IDs {
			if w == id {
				src = k
				break
			}
		}
		for j := 0; j < 4; j++ {
			if math.Abs(prod.At(i, j)-win.Rows.At(src, j)) > 1e-10 {
				t.Fatalf("row %d (%d) mismatch", i, id)
			}
		}
	}
}

// Property: tournament selection over random splits always returns v distinct
// IDs drawn from the input, and the growth factor of winners is bounded
// (tournament pivoting stability, paper §7.3).
func TestQuickTournamentInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		g := mat.NewRNG(seed)
		v := 2 + g.Intn(3)
		m := v + g.Intn(10)
		rows := mat.Random(m, v, seed+1)
		ids := make([]int, m)
		for i := range ids {
			ids[i] = 100 + i
		}
		win, err := SelectCandidates(Candidates{Rows: rows, IDs: ids}, v)
		if err != nil {
			// Random matrices are almost never singular; treat as failure.
			return false
		}
		seen := map[int]bool{}
		for _, id := range win.IDs {
			if id < 100 || id >= 100+m || seen[id] {
				return false
			}
			seen[id] = true
		}
		return len(win.IDs) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Getrf2 then recombination reproduces PA for random sizes.
func TestQuickGetrfResidual(t *testing.T) {
	f := func(seed uint64) bool {
		g := mat.NewRNG(seed)
		n := 2 + g.Intn(14)
		m := n + g.Intn(6)
		a := mat.Random(m, n, seed+9)
		lu := a.Clone()
		ipiv := make([]int, n)
		if err := Getrf2(lu, ipiv); err != nil {
			return false
		}
		return residual(a, lu, ipiv) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
