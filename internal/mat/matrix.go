// Package mat provides dense row-major float64 matrices and the small set
// of structural operations (views, tiles, permutations, norms) that the
// linear-algebra kernels and the distributed LU implementations build on.
//
// A Matrix may be "phantom": it has dimensions but no backing data. Phantom
// matrices flow through the exact same code paths as numeric ones — the
// communication layer counts their bytes, and the compute kernels skip
// arithmetic. This is what lets the benchmark harness replay the paper-scale
// communication schedules (N = 16,384, P = 1,024) without paying O(N³) flops.
package mat

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix. Element (i,j) lives at Data[i*Stride+j].
// A nil Data with positive Rows/Cols denotes a phantom matrix.
type Matrix struct {
	Rows, Cols int
	Stride     int
	Data       []float64
}

// New allocates a zeroed r×c matrix. Inlinable, so a transient buffer whose
// header does not escape costs only its data slice.
func New(r, c int) *Matrix {
	if r|c < 0 {
		panic("mat: negative dimensions")
	}
	return &Matrix{Rows: r, Cols: c, Stride: c, Data: make([]float64, r*c)}
}

// NewPhantom creates an r×c matrix with no backing storage. Inlinable for
// the same reason as View: volume-mode engines create phantom scratch
// constantly, and a buffer consumed in-statement stays off the heap.
func NewPhantom(r, c int) *Matrix {
	if r|c < 0 {
		panic("mat: negative dimensions")
	}
	return &Matrix{Rows: r, Cols: c, Stride: c}
}

// FromSlice wraps row-major data (length r*c) without copying.
func FromSlice(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: FromSlice length %d != %d*%d", len(data), r, c))
	}
	return &Matrix{Rows: r, Cols: c, Stride: c, Data: data}
}

// Phantom reports whether the matrix has no backing data.
func (m *Matrix) Phantom() bool { return m.Data == nil }

// At returns element (i,j). Phantom matrices read as zero.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	if m.Data == nil {
		return 0
	}
	return m.Data[i*m.Stride+j]
}

// Set stores v at (i,j). Stores into phantom matrices are dropped.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	if m.Data == nil {
		return
	}
	m.Data[i*m.Stride+j] = v
}

// Add accumulates v into (i,j). No-op on phantom matrices.
func (m *Matrix) Add(i, j int, v float64) {
	m.check(i, j)
	if m.Data == nil {
		return
	}
	m.Data[i*m.Stride+j] += v
}

// check bounds-checks an element index. Constant panic message: see View.
func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic("mat: index out of range")
	}
}

// Row returns a slice aliasing row i. Panics on phantom matrices. Constant
// panic messages keep it inlinable (see View): it opens every kernel inner
// loop.
func (m *Matrix) Row(i int) []float64 {
	if m.Data == nil {
		panic("mat: Row on phantom matrix")
	}
	if i < 0 || i >= m.Rows {
		panic("mat: row out of range")
	}
	return m.Data[i*m.Stride : i*m.Stride+m.Cols]
}

// View returns a sub-matrix aliasing rows [i, i+r) and columns [j, j+c).
// A view of a phantom matrix is phantom with the requested shape.
//
// View is deliberately inlinable (the panic carries a constant message for
// exactly that reason — a formatted one costs more than the whole body):
// engines take views on both sides of nearly every tile copy, and when the
// view is consumed in-statement (CopyFrom, SendMat, a kernel call) escape
// analysis keeps the header on the caller's stack — at paper scale that
// removes the single largest allocation source of a schedule replay. Row and
// At/Set/Add follow the same rule for the same reason: with formatted
// messages they were opaque calls inside every kernel's inner loop (Row alone
// was a fifth of a numeric run's samples); `go build -gcflags=-m` must keep
// reporting "can inline" for all of them.
func (m *Matrix) View(i, j, r, c int) *Matrix {
	if i|j|r|c < 0 || i+r > m.Rows || j+c > m.Cols {
		panic("mat: view out of range")
	}
	stride, data := c, []float64(nil)
	if m.Data != nil {
		// min: an empty view may start past the last element (row Rows of
		// any matrix, column j > 0 of a matrix with no rows).
		stride, data = m.Stride, m.Data[min(i*m.Stride+j, len(m.Data)):]
	}
	return &Matrix{Rows: r, Cols: c, Stride: stride, Data: data}
}

// Clone returns a compact deep copy (phantomness preserved).
func (m *Matrix) Clone() *Matrix {
	if m.Data == nil {
		return NewPhantom(m.Rows, m.Cols)
	}
	out := New(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i))
	}
	return out
}

// CopyFrom copies src into m (same shape required). Phantom on either side
// makes it a no-op, so numeric and volume modes share code paths.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("mat: CopyFrom shape %dx%d != %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	if m.Data == nil || src.Data == nil {
		return
	}
	for i := 0; i < m.Rows; i++ {
		copy(m.Row(i), src.Row(i))
	}
}

// Zero clears all elements.
func (m *Matrix) Zero() {
	if m.Data == nil {
		return
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = 0
		}
	}
}

// AddFrom accumulates src into m elementwise (same shape required).
func (m *Matrix) AddFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("mat: AddFrom shape %dx%d != %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	if m.Data == nil || src.Data == nil {
		return
	}
	for i := 0; i < m.Rows; i++ {
		dst, s := m.Row(i), src.Row(i)
		for j := range dst {
			dst[j] += s[j]
		}
	}
}

// Pack serializes the matrix contents into a compact row-major slice.
// Phantom matrices pack to nil (the length is still Rows*Cols for metering).
func (m *Matrix) Pack() []float64 {
	if m.Data == nil {
		return nil
	}
	return m.PackInto(make([]float64, m.Rows*m.Cols))
}

// PackInto serializes the matrix contents into dst, which must have length
// Rows*Cols, and returns dst — the allocation-free counterpart of Pack for
// callers that lease wire buffers (smpi's pooled SendMat). Phantom matrices
// return nil without touching dst.
func (m *Matrix) PackInto(dst []float64) []float64 {
	if m.Data == nil {
		return nil
	}
	n := m.Rows * m.Cols
	if len(dst) != n {
		panic(fmt.Sprintf("mat: PackInto buffer length %d != %d", len(dst), n))
	}
	if m.Stride == m.Cols {
		copy(dst, m.Data[:n])
		return dst
	}
	for i := 0; i < m.Rows; i++ {
		copy(dst[i*m.Cols:(i+1)*m.Cols], m.Row(i))
	}
	return dst
}

// Unpack fills the matrix from a compact row-major slice. nil data leaves a
// phantom/numeric matrix untouched (volume-mode receive).
func (m *Matrix) Unpack(data []float64) {
	if data == nil || m.Data == nil {
		return
	}
	if len(data) != m.Rows*m.Cols {
		panic(fmt.Sprintf("mat: Unpack length %d != %d", len(data), m.Rows*m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		copy(m.Row(i), data[i*m.Cols:(i+1)*m.Cols])
	}
}

// Len returns the element count Rows*Cols.
func (m *Matrix) Len() int { return m.Rows * m.Cols }

// Eye returns the n×n identity.
func Eye(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// MaxAbsDiff returns max |a(i,j)-b(i,j)|.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("mat: MaxAbsDiff shape mismatch")
	}
	var d float64
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if v := math.Abs(a.At(i, j) - b.At(i, j)); v > d {
				d = v
			}
		}
	}
	return d
}

// NormFro returns the Frobenius norm.
func NormFro(a *Matrix) float64 {
	var s float64
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			v := a.At(i, j)
			s += v * v
		}
	}
	return math.Sqrt(s)
}

// NormInf returns the max-row-sum norm.
func NormInf(a *Matrix) float64 {
	var best float64
	for i := 0; i < a.Rows; i++ {
		var s float64
		for j := 0; j < a.Cols; j++ {
			s += math.Abs(a.At(i, j))
		}
		if s > best {
			best = s
		}
	}
	return best
}

// PermuteRows returns a copy of a with row i taken from a's row perm[i].
func PermuteRows(a *Matrix, perm []int) *Matrix {
	if len(perm) != a.Rows {
		panic("mat: PermuteRows length mismatch")
	}
	out := New(a.Rows, a.Cols)
	for i, p := range perm {
		copy(out.Row(i), a.Row(p))
	}
	return out
}

// String renders small matrices for debugging.
func (m *Matrix) String() string {
	if m.Phantom() {
		return fmt.Sprintf("phantom %dx%d", m.Rows, m.Cols)
	}
	s := ""
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			s += fmt.Sprintf("%9.4f ", m.At(i, j))
		}
		s += "\n"
	}
	return s
}
