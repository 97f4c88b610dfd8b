//go:build purego

package blas

import "testing"

// The purego tag exists to run the portable micro-kernel on full tiles; if
// the build constraints rot, `make test-purego` would silently re-test the
// assembly.
func TestPuregoSelectsGenericKernel(t *testing.T) {
	if isa := KernelISA(); isa != "generic" || hasAVX2FMA {
		t.Fatalf("purego build dispatches to the %q kernel", isa)
	}
}
