package blas

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mat"
)

// strided returns an r×c random matrix that is a view into a wider, offset
// backing matrix, so Stride != Cols and Data does not start at element 0.
func strided(r, c int, seed uint64) *mat.Matrix {
	return mat.Random(r+2, c+5, seed).View(1, 3, r, c)
}

// gemmRowsRef is the oracle: GemmRef on the 1×k / 1×n row views, one call
// per indexed row, in list order.
func gemmRowsRef(alpha float64, a, b, c *mat.Matrix, rows []int) {
	for i, r := range rows {
		GemmRef(alpha, a.View(i, 0, 1, a.Cols), b, 1, c.View(r, 0, 1, c.Cols))
	}
}

// gemmRowsOneByOne makes the same GemmRows call one listed row at a time, in
// list order: every micro-tile it runs is then a one-row ragged tile.
func gemmRowsOneByOne(alpha float64, a, b, c *mat.Matrix, rows []int) {
	for i, r := range rows {
		GemmRows(alpha, a.View(i, 0, 1, a.Cols), b, c, []int{r})
	}
}

// absMat returns |x| elementwise, for the error bounds.
func absMat(x *mat.Matrix) *mat.Matrix {
	out := x.Clone()
	for i := range out.Data {
		out.Data[i] = math.Abs(out.Data[i])
	}
	return out
}

// packedTol is GemmRows' documented relative bound against the reference at
// depth k: each side lies within (k+2)·ε of the exact value, in units of
// |c| + |alpha|·Σ|a||b|.
func packedTol(k int) float64 { return 2 * float64(k+2) * 0x1p-52 }

// distinct reports whether no row is listed twice.
func distinct(rows []int) bool {
	seen := map[int]bool{}
	for _, r := range rows {
		if seen[r] {
			return false
		}
		seen[r] = true
	}
	return true
}

// seedSignedZeros overwrites every third element of x with +0 and the next
// one with −0: the values where a tile's write-back rounding shows even at
// alpha = ±1 (−0 + (+0) is +0, −0 + (−0) is −0).
func seedSignedZeros(x *mat.Matrix) {
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		for j := range row {
			switch (i + j) % 3 {
			case 0:
				row[j] = 0
			case 1:
				row[j] = math.Copysign(0, -1)
			}
		}
	}
}

func bitEqual(t *testing.T, got, want *mat.Matrix, what string) {
	t.Helper()
	for i := 0; i < want.Rows; i++ {
		g, w := got.Row(i), want.Row(i)
		for j := range w {
			if math.Float64bits(g[j]) != math.Float64bits(w[j]) {
				t.Fatalf("%s: C(%d,%d) = %x, reference %x", what, i, j, math.Float64bits(g[j]), math.Float64bits(w[j]))
			}
		}
	}
}

// The property the engines' golden digests rest on below gemmRowsPackedK:
// GemmRows is bit-equal to the straight-loop reference applied row by row —
// across k around the four-at-a-time unroll and up to the last streamed
// depth, n from one element to a ragged 517, strided operands, and row lists
// that are empty, a permuted subset, or repeat a row.
func TestGemmRowsMatchesRefBitwise(t *testing.T) {
	const m = 9 // rows of C
	lists := map[string][]int{
		"empty":      {},
		"all":        {0, 1, 2, 3, 4, 5, 6, 7, 8},
		"scattered":  {7, 2, 5},
		"descending": {8, 6, 4, 2, 0},
		"repeated":   {3, 3, 1},
	}
	seed := uint64(40)
	for _, k := range []int{1, 3, 4, 5, 8, 9, gemmRowsPackedK - 1} {
		for _, n := range []int{1, 3, 4, 517} {
			for name, rows := range lists {
				for _, view := range []bool{false, true} {
					seed++
					newMat := mat.Random
					if view {
						newMat = strided
					}
					a, b, c := newMat(len(rows), k, seed), newMat(k, n, seed+1000), newMat(m, n, seed+2000)
					want := c.Clone()
					gemmRowsRef(-1.25, a, b, want, rows)
					GemmRows(-1.25, a, b, c, rows)
					bitEqual(t, c, want, name)
				}
			}
		}
	}
}

// From gemmRowsPackedK up the update runs on the packed micro-kernel, which
// sums a C element's k products in registers (fused, on the assembly kernel)
// before adding them to C once. Against the reference that is a different
// rounding of the same sum, so the contract is a bound, not bit-equality:
// both results lie within (k+2)·ε·(|c| + |alpha|·Σ|a||b|) of the exact value,
// hence within twice that of each other. What stays exact: a repetition
// reproduces every bit; rows not listed and the padding around a strided C
// are never written (they hold NaN throughout). The shapes cross every
// blocking edge — full and ragged mr×nr micro-tiles, A blocks beyond mc rows,
// depth beyond kc — and the lists leave C rows out, run backwards and name a
// row twice.
func TestGemmRowsPackedMatchesRef(t *testing.T) {
	const m = 140 // rows of C, more than one mc block of A when all are listed
	all, descending := make([]int, m), make([]int, 0, m/2)
	for i := range all {
		all[i] = i
	}
	for i := m - 1; i >= 0; i -= 2 {
		descending = append(descending, i)
	}
	lists := map[string][]int{
		"all":        all,
		"scattered":  {7, 2, 131, 5, 64, 99, 12, 0, 77, 3, 139},
		"descending": descending,
		"repeated":   {3, 3, 1, 9, 8, 7, 6, 5, 3, 130, 1},
	}
	seed := uint64(900)
	for _, k := range []int{16, 17, 32, 64, kc + 3} {
		for _, n := range []int{1, 3, 4, 517} {
			for name, rows := range lists {
				for _, view := range []bool{false, true} {
					seed++
					newMat, pad := mat.Random, 0
					if view {
						newMat, pad = strided, 2
					}
					a, b := newMat(len(rows), k, seed), newMat(k, n, seed+1000)
					// C sits in a NaN-filled backing; only listed rows get values.
					backing := mat.New(m+2*pad, n+2*pad)
					for i := range backing.Data {
						backing.Data[i] = math.NaN()
					}
					c := backing.View(pad, pad, m, n)
					listed := make([]bool, m)
					for _, r := range rows {
						listed[r] = true
						copy(c.Row(r), mat.Random(1, n, seed+2000+uint64(r)).Data)
					}
					start := backing.Clone()

					want, bound := c.Clone(), absMat(c)
					gemmRowsRef(-1.25, a, b, want, rows)
					gemmRowsRef(1.25, absMat(a), absMat(b), bound, rows)
					GemmRows(-1.25, a, b, c, rows)

					tol := packedTol(k)
					for i := 0; i < backing.Rows; i++ {
						for j := 0; j < backing.Cols; j++ {
							ci, cj := i-pad, j-pad
							got := backing.At(i, j)
							if ci < 0 || ci >= m || cj < 0 || cj >= n || !listed[ci] {
								if !math.IsNaN(got) {
									t.Fatalf("k=%d n=%d %s view=%v: backing(%d,%d) outside the listed rows was written: %v", k, n, name, view, i, j, got)
								}
								continue
							}
							if d := math.Abs(got - want.At(ci, cj)); !(d <= tol*bound.At(ci, cj)) {
								t.Fatalf("k=%d n=%d %s view=%v: C(%d,%d) = %v, reference %v: off by %g, bound %g",
									k, n, name, view, ci, cj, got, want.At(ci, cj), d, tol*bound.At(ci, cj))
							}
						}
					}

					again := start.View(pad, pad, m, n)
					GemmRows(-1.25, a, b, again, rows)
					for _, r := range rows {
						bitEqual(t, again.View(r, 0, 1, n), c.View(r, 0, 1, n), name+": repetition")
					}
				}
			}
		}
	}
}

// Which micro-tile an element falls in never changes its bits: a packed
// GemmRows call over a row list equals, bit for bit, the same call made one
// row at a time, where every tile is ragged — one row, and short in its last
// column strip unless n is a multiple of nr. C holds ±0 and one row of A is
// zero, so a tile row's products can all be ±0 and the sign of C's zero
// decides the result; alpha = 0.37 makes alpha·acc inexact. Both only agree
// if an edge tile folds alpha·acc into C in the same single step as a full
// one. The list spans full and ragged row strips, runs backwards and names a
// row twice.
func TestGemmRowsTileInvariant(t *testing.T) {
	const m = 3*mr + 2 // rows of C
	rows := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 19, 18, 17, 16, 15, 14, 13, 3}
	seed := uint64(3000)
	for _, alpha := range []float64{-1, 1, 0.37} {
		for _, n := range []int{1, 7, 8, 9, 517} {
			for _, k := range []int{16, 17, 33} {
				seed++
				a, b, c := mat.Random(len(rows), k, seed), mat.Random(k, n, seed+1), mat.Random(m, n, seed+2)
				for p := range a.Row(4) {
					a.Set(4, p, 0)
				}
				seedSignedZeros(c)
				want := c.Clone()
				gemmRowsOneByOne(alpha, a, b, want, rows)
				GemmRows(alpha, a, b, c, rows)
				bitEqual(t, c, want, fmt.Sprintf("alpha=%v n=%d k=%d", alpha, n, k))
			}
		}
	}
}

// FuzzGemmRows drives GemmRows across both of its paths and every blocking
// edge: data[0] sizes C (1–20 rows), data[1] sets n (1–24, across nr and
// 2·nr), data[2:4] set k (1…kc+24, across gemmRowsPackedK and kc), data[4]
// alpha (a multiple of 1/16 in [−8, 8)), data[5] the operand seed, and the
// rest is the row list — up to mc+mr+2 entries, each naming C row b mod m,
// so lists repeat rows, run backwards and outgrow one mc block. It asserts
// the tile invariance of TestGemmRowsTileInvariant bit for bit wherever it is
// defined, and agreement with the row-by-row GemmRef: bit for bit on the
// streamed path, within the documented bound on the packed one.
func FuzzGemmRows(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		m := 1 + int(data[0])%20
		n := 1 + int(data[1])%24
		k := 1 + (int(data[2])|int(data[3])<<8)%(kc+24)
		alpha := float64(int8(data[4])) / 16
		seed := uint64(data[5]) + 1
		list := data[6:min(len(data), 6+mc+mr+2)]
		rows := make([]int, len(list))
		for i, b := range list {
			rows[i] = int(b) % m
		}
		a, b, c := mat.Random(len(rows), k, seed), mat.Random(k, n, seed+1), mat.Random(m, n, seed+2)
		seedSignedZeros(c)
		what := fmt.Sprintf("m=%d n=%d k=%d alpha=%v rows=%v", m, n, k, alpha, rows)

		got, one := c.Clone(), c.Clone()
		GemmRows(alpha, a, b, got, rows)
		gemmRowsOneByOne(alpha, a, b, one, rows)
		// Past kc a repeated row takes its updates depth block by depth
		// block, interleaved, where one-at-a-time calls take them whole: the
		// order differs by design, not by tile.
		if k <= kc || distinct(rows) {
			bitEqual(t, got, one, what+": one row at a time")
		}

		want, bound := c.Clone(), absMat(c)
		gemmRowsRef(alpha, a, b, want, rows)
		if k < gemmRowsPackedK {
			bitEqual(t, got, want, what+": streamed vs reference")
			return
		}
		gemmRowsRef(math.Abs(alpha), absMat(a), absMat(b), bound, rows)
		tol := packedTol(k)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if d := math.Abs(got.At(i, j) - want.At(i, j)); !(d <= tol*bound.At(i, j)) {
					t.Fatalf("%s: C(%d,%d) = %v, reference %v: off by %g, bound %g",
						what, i, j, got.At(i, j), want.At(i, j), d, tol*bound.At(i, j))
				}
			}
		}
	})
}

// Rows not in the list are not read-modified-written at all: NaN poison in
// them survives bit for bit, and the padding around a strided C stays clean.
func TestGemmRowsLeavesOtherRowsUntouched(t *testing.T) {
	backing := mat.New(8, 12)
	for i := range backing.Data {
		backing.Data[i] = math.NaN()
	}
	c := backing.View(1, 2, 6, 7)
	active := []int{4, 1}
	for _, r := range active {
		for j := range c.Row(r) {
			c.Row(r)[j] = float64(r + j)
		}
	}
	GemmRows(1, mat.Random(2, 5, 1), mat.Random(5, 7, 2), c, active)
	for i := 0; i < backing.Rows; i++ {
		for j := 0; j < backing.Cols; j++ {
			inActive := (i == 5 || i == 2) && j >= 2 && j < 9
			if got := math.IsNaN(backing.At(i, j)); got == inActive {
				t.Fatalf("backing(%d,%d): NaN=%v, active=%v", i, j, got, inActive)
			}
		}
	}
}

// No zero-skip, in the unrolled loop, the remainder loop or the packed
// kernel: a NaN or Inf in B reaches every listed row of C even where the
// matching A entry is zero, and only the column it sits in.
func TestGemmRowsPropagatesNaNInf(t *testing.T) {
	for _, k := range []int{4, 6, 16, 19} { // 6: B row 5 is consumed by the remainder loop; 16, 19: packed
		for _, bad := range []float64{math.NaN(), math.Inf(1)} {
			a := mat.Random(3, k, 3)
			b := mat.Random(k, 5, 4)
			for i := 0; i < a.Rows; i++ {
				a.Set(i, k-1, 0)
			}
			b.Set(k-1, 2, bad) // 0·NaN and 0·Inf are both NaN
			c := mat.New(4, 5)
			GemmRows(1, a, b, c, []int{0, 1, 3})
			for _, r := range []int{0, 1, 3} {
				if !math.IsNaN(c.At(r, 2)) {
					t.Fatalf("k=%d: 0*%v dropped in row %d", k, bad, r)
				}
				if math.IsNaN(c.At(r, 1)) {
					t.Fatalf("k=%d: NaN leaked to column 1 of row %d", k, r)
				}
			}
			if c.At(2, 2) != 0 {
				t.Fatalf("k=%d: unlisted row 2 was touched", k)
			}
		}
	}
}

func TestGemmRowsPhantomIsNoOp(t *testing.T) {
	rows := []int{0, 2}
	a, b, c := mat.Random(2, 4, 1), mat.Random(4, 3, 2), mat.Random(3, 3, 3)
	orig := c.Clone()
	GemmRows(1, mat.NewPhantom(2, 4), b, c, rows)
	GemmRows(1, a, mat.NewPhantom(4, 3), c, rows)
	bitEqual(t, c, orig, "phantom A or B")
	GemmRows(1, a, b, mat.NewPhantom(3, 3), rows) // must not panic
}

func TestGemmRowsPanics(t *testing.T) {
	a, b, c := mat.Random(2, 4, 1), mat.Random(4, 3, 2), mat.Random(3, 3, 3)
	cases := map[string]func(){
		"row index too large": func() { GemmRows(1, a, b, c, []int{0, 3}) },
		"negative row index":  func() { GemmRows(1, a, b, c, []int{-1, 0}) },
		"row list length":     func() { GemmRows(1, a, b, c, []int{0}) },
		"inner dimension":     func() { GemmRows(1, a, mat.Random(5, 3, 4), c, []int{0, 1}) },
		"C width":             func() { GemmRows(1, a, b, mat.Random(3, 4, 5), []int{0, 1}) },
		"phantom, bad shape":  func() { GemmRows(1, mat.NewPhantom(2, 5), b, c, []int{0, 1}) },
		"row index, packed": func() {
			GemmRows(1, mat.Random(2, gemmRowsPackedK, 6), mat.Random(gemmRowsPackedK, 3, 7), c, []int{0, 3})
		},
	}
	for name, call := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			call()
		})
	}
}
