package mat

import (
	"math/bits"
	"sync"
	"unsafe"
)

// Size-classed pools of float64 buffers, shared by every package that leases
// short-lived payload memory: smpi's wire buffers, the block-cyclic store
// panels that adopt them (dist), and blas's packed GEMM panels. Classes are
// powers of two, so a leased slice has len == requested and cap == the class
// size; PutFloats rounds the capacity DOWN to its class, so a slice of any
// capacity can be returned and is never handed out short.
//
// A pool entry is the pointer to the buffer's first element: a pointer fits
// in an interface without boxing, so a steady-state PutFloats allocates
// nothing (a *[]float64 entry would cost one slice-header allocation per
// Put), and GetFloats rebuilds the slice from the class size. Pooling is
// process-global: buffers carry no world identity, and a process typically
// runs many worlds (sweeps, conformance matrices) whose peak demand this
// amortizes.

const maxPoolClass = 26 // 1<<26 floats = 512 MiB; larger buffers go to the GC

var floatPools [maxPoolClass + 1]sync.Pool

func poolClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1)) // smallest c with 1<<c >= n
}

// GetFloats leases a length-n buffer. The contents are undefined: the caller
// overwrites every element it reads.
func GetFloats(n int) []float64 {
	if n == 0 {
		return nil
	}
	c := poolClass(n)
	if c > maxPoolClass {
		return make([]float64, n)
	}
	if got := floatPools[c].Get(); got != nil {
		return unsafe.Slice(got.(*float64), 1<<c)[:n]
	}
	return make([]float64, n, 1<<c)
}

// PutFloats returns a buffer to its pool. nil is a no-op. The caller must not
// retain the slice, or any slice of its backing array, afterwards.
func PutFloats(s []float64) {
	c := poolClass(cap(s))
	if 1<<c != cap(s) {
		c-- // off-class capacity: file under the class it can still serve
	}
	if c < 0 || c > maxPoolClass {
		return
	}
	floatPools[c].Put(unsafe.SliceData(s[:1]))
}
