package blas

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mat"
)

// specials are the entries where a rounding or an operand-order difference
// shows: NaN, both infinities, and both zeros (−0 + (+0) is +0, −0 + (−0)
// is −0, 0·Inf is NaN).
var specials = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}

// sameBits is bit equality, except that any NaN equals any NaN: Go leaves
// NaN payloads unspecified, so the compiled loop and the assembly may carry
// different ones, while where a NaN appears is part of the contract.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
}

// checkStream runs gemmAccum — the vector stream on amd64 — and GemmRef's
// plain Go loop on copies of c and requires the same bits in every element,
// and in the padding around a strided C, which neither may write.
func checkStream(t *testing.T, alpha float64, a, b, cBacking *mat.Matrix, what string) {
	t.Helper()
	got, want := cBacking.Clone(), cBacking.Clone()
	view := func(m *mat.Matrix) *mat.Matrix { return m.View(1, 2, a.Rows, b.Cols) }
	gemmAccum(alpha, a, b, view(got))
	GemmRef(alpha, a, b, 1, view(want))
	for i := range want.Data {
		if !sameBits(got.Data[i], want.Data[i]) {
			t.Fatalf("%s: element %d of C's backing = %x, Go loop %x", what, i, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
		}
	}
}

// streamOperands builds an m×k A, a k×n B that is a view into a backing
// matrix pad columns wider (so B's stride is not its width), and the backing
// of a strided m×n C (see checkStream), then writes each (target, index,
// kind) triple of pokes into A, B or C as one of the specials.
func streamOperands(m, n, k, pad int, seed uint64, pokes []byte) (a, b, c *mat.Matrix) {
	a = mat.Random(m, k, seed)
	b = mat.Random(k+1, n+pad, seed+1).View(1, pad/2, k, n)
	c = mat.Random(m+2, n+3, seed+2)
	for ; len(pokes) >= 3; pokes = pokes[3:] {
		v := specials[int(pokes[2])%len(specials)]
		switch x := int(pokes[1]); pokes[0] % 3 {
		case 0:
			a.Data[x%len(a.Data)] = v
		case 1:
			b.Set(x%k, (x/k)%n, v)
		default:
			c.Set(1+x%m, 2+(x/m)%n, v)
		}
	}
	return a, b, c
}

// The vector stream rounds exactly as the Go loop it replaces: every n from 1
// to 40 (every mix of 8-column chunks, one 4-column chunk and single
// columns), k on both sides of the loop's four-term unroll, a strided B, and
// NaN, ±Inf and signed zeros in all three operands.
func TestStreamRowMatchesGoLoop(t *testing.T) {
	seed := uint64(1)
	for n := 1; n <= 40; n++ {
		for _, k := range []int{1, 3, 4, 5, 15, 32} {
			seed++
			pokes := []byte{0, byte(seed), 0, 1, byte(3 * seed), 1, 2, byte(5 * seed), 3, 1, byte(7 * seed), 4, 2, byte(seed), 2}
			a, b, c := streamOperands(3, n, k, 5, seed, pokes)
			checkStream(t, -1.25, a, b, c, fmt.Sprintf("n=%d k=%d", n, k))
		}
	}
}

// FuzzGemmAccum holds the vector stream to GemmRef's Go loop bit for bit (any
// NaN matching any NaN): data[0] sets m (1–8), data[1] n (1–40), data[2] k
// (1–40), data[3] alpha (a nonzero multiple of 1/16 in [−8, 8)), data[4] B's
// extra stride (0–15 columns), data[5] the operand seed, and each further
// triple pokes a NaN, ±Inf or signed zero into A, B or C.
func FuzzGemmAccum(f *testing.F) {
	f.Add([]byte{0, 0, 0, 16, 0, 1})
	f.Add([]byte{2, 7, 3, 0xec, 3, 2, 0, 1, 0, 1, 9, 3})
	f.Add([]byte{7, 39, 39, 0x80, 15, 3, 2, 200, 4, 1, 77, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		m, n, k := 1+int(data[0])%8, 1+int(data[1])%40, 1+int(data[2])%40
		alpha := float64(int8(data[3])) / 16
		if alpha == 0 {
			alpha = 1 // GemmRef skips an alpha == 0 product; gemmAccum never sees one
		}
		a, b, c := streamOperands(m, n, k, int(data[4])%16, uint64(data[5])+1, data[6:])
		checkStream(t, alpha, a, b, c, fmt.Sprintf("m=%d n=%d k=%d alpha=%v", m, n, k, alpha))
	})
}

// The unblocked left solves stream each row's update with alpha = −1, which
// must round exactly as the loop it replaced, b(i,j) −= t(i,k)·b(k,j) with k
// ascending: on both sides of every chunk boundary, with specials in both
// operands.
func TestTrsmLeftStreamsLikeTheLoop(t *testing.T) {
	loop := func(tri, b *mat.Matrix, lower bool) {
		n := tri.Rows
		for s := 0; s < n; s++ {
			i, ks := s, [2]int{0, s}
			if !lower {
				i, ks = n-1-s, [2]int{n - s, n}
			}
			for k := ks[0]; k < ks[1]; k++ {
				for j := range b.Row(i) {
					b.Row(i)[j] -= tri.At(i, k) * b.At(k, j)
				}
			}
			if !lower {
				inv := 1 / tri.At(i, i)
				for j := range b.Row(i) {
					b.Row(i)[j] *= inv
				}
			}
		}
	}
	for _, n := range []int{1, 2, 5, 17} {
		for _, nrhs := range []int{1, 4, 8, 13} {
			tri := mat.Random(n, n, uint64(n))
			b := mat.Random(n, nrhs, uint64(n*nrhs))
			tri.Set(n-1, 0, specials[n%len(specials)])
			tri.Set(0, n-1, specials[(n+2)%len(specials)])
			b.Set(0, nrhs-1, specials[(n+1)%len(specials)])
			for _, lower := range []bool{true, false} {
				got, want := b.Clone(), b.Clone()
				if lower {
					trsmLowerLeftUnb(tri, got, true)
				} else {
					trsmUpperLeftUnb(tri, got)
				}
				loop(tri, want, lower)
				for i := range want.Data {
					if !sameBits(got.Data[i], want.Data[i]) {
						t.Fatalf("n=%d nrhs=%d lower=%v: element %d = %v, loop %v", n, nrhs, lower, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}
