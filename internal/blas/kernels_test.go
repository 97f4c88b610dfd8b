package blas

import (
	"math"
	"testing"

	"repro/internal/mat"
)

// maxRelDiff returns max |a-b| / max(1, |b|) over all elements.
func maxRelDiff(a, b *mat.Matrix) float64 {
	var d float64
	for i := 0; i < a.Rows; i++ {
		ar, br := a.Row(i), b.Row(i)
		for j := range ar {
			den := math.Abs(br[j])
			if den < 1 {
				den = 1
			}
			if v := math.Abs(ar[j]-br[j]) / den; v > d {
				d = v
			}
		}
	}
	return d
}

// Satellite: beta == 0 must overwrite C, not scale it, so NaN/Inf in an
// uninitialized output buffer cannot survive. Exercised on both the
// simple and the blocked dispatch path.
func TestGemmBetaZeroOverwritesNaNPoison(t *testing.T) {
	for _, n := range []int{8, 96} { // 96³ clears blockedFlopCutoff, 8³ does not
		a := mat.Random(n, n, 1)
		b := mat.Random(n, n, 2)
		c := mat.New(n, n)
		for i := range c.Data {
			c.Data[i] = math.NaN()
		}
		want := mat.New(n, n)
		GemmRef(1, a, b, 0, want)
		Gemm(1, a, b, 0, c)
		for i := range c.Data {
			if math.IsNaN(c.Data[i]) {
				t.Fatalf("n=%d: NaN poison survived beta=0 at %d", n, i)
			}
		}
		if d := maxRelDiff(c, want); d > 1e-12 {
			t.Fatalf("n=%d: diff %v vs reference", n, d)
		}
	}
}

// Satellite: no aik == 0 fast path — a NaN/Inf in B must reach C even
// when the matching A entry (or alpha·A entry) is zero.
func TestGemmZeroTimesNaNPropagates(t *testing.T) {
	for _, n := range []int{8, 96} {
		a := mat.Random(n, n, 3)
		b := mat.Random(n, n, 4)
		for i := 0; i < n; i++ {
			a.Set(i, 0, 0) // column 0 of A is zero...
		}
		b.Set(0, 0, math.NaN()) // ...but row 0 of B carries a NaN
		c := mat.New(n, n)
		Gemm(1, a, b, 0, c)
		for i := 0; i < n; i++ {
			if !math.IsNaN(c.At(i, 0)) {
				t.Fatalf("n=%d: 0*NaN was silently dropped at row %d", n, i)
			}
			if n > 1 && math.IsNaN(c.At(i, 1)) {
				t.Fatalf("n=%d: NaN leaked to unaffected column at row %d", n, i)
			}
		}
	}
}

// Property suite: the blocked kernel must agree with the straight-loop
// reference at awkward shapes around every blocking boundary
// (micro-tile mr/nr, macro blocks mc/kc, plus primes and 517 from the
// issue). gemmBlocked is called directly so small shapes exercise the
// packed path even though Gemm would dispatch them to the simple loop.
func TestGemmBlockedMatchesRefAwkwardShapes(t *testing.T) {
	shapes := [][3]int{}
	small := []int{1, 3, mr - 1, mr, mr + 1}
	for _, m := range small {
		for _, n := range small {
			for _, k := range small {
				shapes = append(shapes, [3]int{m, n, k})
			}
		}
	}
	shapes = append(shapes, [3]int{mc - 1, nr + 1, kc - 1}, [3]int{mc, nr, kc},
		[3]int{mc + 1, nr - 1, kc + 1}, [3]int{mc + 9, 2*nr + 3, kc + 17},
		[3]int{517, 5, 3}, [3]int{5, 517, 3}, [3]int{3, 5, 517},
		[3]int{517, 37, 129}, [3]int{130, 517, 61}, [3]int{257, 255, 517})
	seed := uint64(100)
	for _, s := range shapes {
		m, n, k := s[0], s[1], s[2]
		seed++
		a := mat.Random(m, k, seed)
		b := mat.Random(k, n, seed+7000)
		c := mat.Random(m, n, seed+9000)
		want := c.Clone()
		GemmRef(-1.3, a, b, 1, want)
		gemmBlocked(-1.3, a, b, c, nil)
		if d := maxRelDiff(c, want); d > 1e-11 {
			t.Fatalf("blocked gemm %v: rel diff %v", s, d)
		}
	}
}

// The packed kernel must honor row strides: operands that are views into
// a larger parent (every engine tile update looks like this).
func TestGemmBlockedStridedViews(t *testing.T) {
	parent := mat.Random(300, 300, 42)
	a := parent.View(7, 11, 100, 90)
	b := parent.View(120, 30, 90, 110)
	cParent := mat.Random(150, 200, 43)
	c := cParent.View(13, 17, 100, 110)
	want := c.Clone()
	GemmRef(0.7, a, b, 1, want)
	gemmBlocked(0.7, a, b, c, nil)
	if d := maxRelDiff(c, want); d > 1e-11 {
		t.Fatalf("strided blocked gemm: rel diff %v", d)
	}
	// Everything outside the view must be untouched: recompute checksum of
	// the border by comparing against a fresh copy is overkill — spot-check
	// the row just above and below the view.
	fresh := mat.Random(150, 200, 43)
	for _, i := range []int{12, 113} {
		for j := 0; j < 200; j++ {
			if cParent.At(i, j) != fresh.At(i, j) {
				t.Fatalf("blocked gemm wrote outside its view at (%d,%d)", i, j)
			}
		}
	}
}

// Blocked TRSM variants vs their unblocked kernels, with the unread
// triangle poisoned with NaN to pin the access contract (diagonal tiles
// of combined LU factors are passed whole).
func TestTrsmBlockedMatchesUnblocked(t *testing.T) {
	for _, n := range []int{trsmBlock + 1, 127, 128, 129, 200, 517} {
		g := mat.NewRNG(uint64(n))
		l := mat.New(n, n)
		u := mat.New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				l.Set(i, j, (g.Float64()-0.5)/float64(n))
				u.Set(i, j, math.NaN()) // strict lower of U must never be read
			}
			l.Set(i, i, 1+g.Float64())
			u.Set(i, i, 1+g.Float64())
			for j := i + 1; j < n; j++ {
				u.Set(i, j, (g.Float64()-0.5)/float64(n))
				l.Set(i, j, math.NaN()) // strict upper of L must never be read
			}
		}
		nrhs := 7
		b0 := mat.Random(n, nrhs, uint64(n)+1)
		for name, run := range map[string]func(b *mat.Matrix){
			"LowerLeft":     func(b *mat.Matrix) { TrsmLowerLeft(l, b, false) },
			"LowerLeftUnit": func(b *mat.Matrix) { TrsmLowerLeft(l, b, true) },
			"UpperLeft":     func(b *mat.Matrix) { TrsmUpperLeft(u, b) },
		} {
			got := b0.Clone()
			run(got)
			want := b0.Clone()
			switch name {
			case "LowerLeft":
				trsmLowerLeftUnb(l, want, false)
			case "LowerLeftUnit":
				trsmLowerLeftUnb(l, want, true)
			case "UpperLeft":
				trsmUpperLeftUnb(u, want)
			}
			if d := maxRelDiff(got, want); d > 1e-9 || math.IsNaN(d) {
				t.Fatalf("n=%d %s: rel diff %v", n, name, d)
			}
		}
		// Right-solve: B is wide (nrhs×n).
		br := mat.Random(nrhs, n, uint64(n)+2)
		got := br.Clone()
		TrsmUpperRight(u, got)
		want := br.Clone()
		trsmUpperRightUnb(u, want)
		if d := maxRelDiff(got, want); d > 1e-9 || math.IsNaN(d) {
			t.Fatalf("n=%d UpperRight: rel diff %v", n, d)
		}
	}
}

// Determinism: the blocked kernel must produce bit-identical results on
// every call, whatever the recycled pack buffers held before (DESIGN.md
// §15).
func TestGemmBlockedRepeatable(t *testing.T) {
	m, n, k := 300, 260, 300 // several mc-blocks, edge tiles on both sides
	a := mat.Random(m, k, 5)
	b := mat.Random(k, n, 6)
	var ref []uint64
	for rep := 0; rep < 3; rep++ {
		c := mat.Random(m, n, 7)
		gemmBlocked(-1.5, a, b, c, nil)
		bits := make([]uint64, len(c.Data))
		for i, v := range c.Data {
			bits[i] = math.Float64bits(v)
		}
		if ref == nil {
			ref = bits
			continue
		}
		for i := range bits {
			if bits[i] != ref[i] {
				t.Fatalf("rep=%d: bit mismatch at %d", rep, i)
			}
		}
	}
}

// A ragged strip is zero-padded to the full tile: one row short of an
// mr-strip, and a second B strip one column past a full nr-strip.
func TestPackEdgesZeroPadded(t *testing.T) {
	const kb = 3
	ma := mr - 1
	a := mat.Random(ma, kb, 9)
	dst := make([]float64, mr*kb)
	for i := range dst {
		dst[i] = math.NaN()
	}
	packA(a.Data, a.Stride, 0, 0, ma, kb, dst)
	for p := 0; p < kb; p++ {
		for r := 0; r < mr; r++ {
			got := dst[p*mr+r]
			if r < ma {
				if got != a.At(r, p) {
					t.Fatalf("packA[%d,%d] = %v", p, r, got)
				}
			} else if got != 0 {
				t.Fatalf("packA pad lane (%d,%d) = %v", p, r, got)
			}
		}
	}
	nb := nr + 1
	b := mat.Random(kb, nb, 10)
	dstB := make([]float64, 2*nr*kb)
	for i := range dstB {
		dstB[i] = math.NaN()
	}
	packB(b.Data, b.Stride, 0, 0, kb, nb, dstB)
	for sj := 0; sj < 2; sj++ {
		for p := 0; p < kb; p++ {
			for cidx := 0; cidx < nr; cidx++ {
				got := dstB[sj*nr*kb+p*nr+cidx]
				col := sj*nr + cidx
				if col < nb {
					if got != b.At(p, col) {
						t.Fatalf("packB strip %d (%d,%d) = %v", sj, p, cidx, got)
					}
				} else if got != 0 {
					t.Fatalf("packB pad lane strip %d (%d,%d) = %v", sj, p, cidx, got)
				}
			}
		}
	}
}

// --- The `make kernels` micro-benchmark suite ------------------------------

func benchGemm(b *testing.B, n int, f func(alpha float64, a, bm *mat.Matrix, beta float64, c *mat.Matrix)) {
	b.Helper()
	a := mat.Random(n, n, 1)
	bm := mat.Random(n, n, 2)
	c := mat.New(n, n)
	b.ReportAllocs()
	b.SetBytes(int64(8 * n * n * 3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(1, a, bm, 0, c)
	}
	flops := 2 * float64(n) * float64(n) * float64(n)
	b.ReportMetric(flops/float64(b.Elapsed().Nanoseconds())*float64(b.N)*1e3, "MFLOP/s")
}

func BenchmarkKernelGemmRef512(b *testing.B)      { benchGemm(b, 512, GemmRef) }
func BenchmarkKernelGemmBlocked256(b *testing.B)  { benchGemm(b, 256, Gemm) }
func BenchmarkKernelGemmBlocked512(b *testing.B)  { benchGemm(b, 512, Gemm) }
func BenchmarkKernelGemmBlocked1024(b *testing.B) { benchGemm(b, 1024, Gemm) }

func BenchmarkKernelTrsmLowerLeft512(b *testing.B) {
	n := 512
	g := mat.NewRNG(3)
	l := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			l.Set(i, j, (g.Float64()-0.5)/float64(n))
		}
		l.Set(i, i, 1)
	}
	rhs := mat.Random(n, n, 4)
	work := mat.New(n, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work.CopyFrom(rhs)
		TrsmLowerLeft(l, work, true)
	}
}

func BenchmarkKernelTrsmUpperRight512(b *testing.B) {
	n := 512
	g := mat.NewRNG(5)
	u := mat.New(n, n)
	for i := 0; i < n; i++ {
		u.Set(i, i, 1+g.Float64())
		for j := i + 1; j < n; j++ {
			u.Set(i, j, (g.Float64()-0.5)/float64(n))
		}
	}
	rhs := mat.Random(n, n, 6)
	work := mat.New(n, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work.CopyFrom(rhs)
		TrsmUpperRight(u, work)
	}
}
