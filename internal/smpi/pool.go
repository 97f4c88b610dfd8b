package smpi

import (
	"math/bits"
	"sync"
)

// Size-classed pools for float64 wire buffers. SendMat leases a buffer and
// packs the outgoing matrix into it; RecvMat copies the payload out and
// returns the buffer. Classes are powers of two, so a leased slice has
// len == requested and cap == the class size; Put rounds the capacity DOWN
// to its class so an over-sized slice can never be handed out short.
//
// Pooling is package-global: buffers carry no world identity, and a
// process typically replays many worlds (sweeps, conformance matrices)
// whose peak demand this amortizes.

const maxPoolClass = 26 // 1<<26 floats = 512 MiB; larger buffers go to the GC

var floatPools [maxPoolClass + 1]sync.Pool

func poolClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1)) // smallest c with 1<<c >= n
}

// getFloats leases a length-n buffer. The contents are undefined: every
// element is overwritten by the pack that follows.
func getFloats(n int) []float64 {
	if n == 0 {
		return nil
	}
	c := poolClass(n)
	if c > maxPoolClass {
		return make([]float64, n)
	}
	if got := floatPools[c].Get(); got != nil {
		return (*got.(*[]float64))[:n]
	}
	return make([]float64, n, 1<<c)
}

// putFloats returns a wire buffer to its pool. nil (the phantom fast path)
// is a no-op. The caller must not retain the slice afterwards.
func putFloats(s []float64) {
	if s == nil {
		return
	}
	c := poolClass(cap(s))
	if 1<<c != cap(s) {
		c-- // off-class capacity: file under the class it can still serve
	}
	if c < 0 || c > maxPoolClass {
		return
	}
	full := s[0:cap(s)]
	floatPools[c].Put(&full)
}
