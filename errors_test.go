package conflux

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/lapack"
	"repro/internal/lu2d"
	"repro/internal/smpi"
	"repro/internal/trisolve"
)

// publicSentinels is the complete public error surface publicErr maps onto.
var publicSentinels = map[string]error{
	"ErrShape":               ErrShape,
	"ErrSingular":            ErrSingular,
	"ErrNotPositiveDefinite": ErrNotPositiveDefinite,
	"ErrUnknownAlgorithm":    ErrUnknownAlgorithm,
	"ErrUnknownExecutor":     ErrUnknownExecutor,
	"ErrCanceled":            ErrCanceled,
}

// TestPublicErrExhaustive pins the boundary mapping: every internal
// sentinel an engine, the runtime, or the solve layer can surface (the
// smpi, engine, trisolve, lu2d, and lapack packages, lapack's Cholesky
// one included) maps to exactly one
// public sentinel — never zero (a caller would have nothing to errors.Is
// against) and never two (ambiguous classification).
func TestPublicErrExhaustive(t *testing.T) {
	cases := []struct {
		name     string
		internal error
		want     error
	}{
		{"smpi.ErrCanceled", smpi.ErrCanceled, ErrCanceled},
		{"smpi.ErrUnknownExecutor", smpi.ErrUnknownExecutor, ErrUnknownExecutor},
		{"engine.ErrUnknown", engine.ErrUnknown, ErrUnknownAlgorithm},
		{"trisolve.ErrSingular", trisolve.ErrSingular, ErrSingular},
		{"lu2d.ErrSingular", lu2d.ErrSingular, ErrSingular},
		{"lapack.ErrSingular", lapack.ErrSingular, ErrSingular},
		{"lapack.ErrNotPD", lapack.ErrNotPD, ErrNotPositiveDefinite},
	}
	for _, tc := range cases {
		// Internal errors arrive wrapped in run-site context; the mapping
		// must see through that.
		wrapped := fmt.Errorf("rank 3: %w", tc.internal)
		got := publicErr(wrapped)
		matches := 0
		for name, pub := range publicSentinels {
			if errors.Is(got, pub) {
				matches++
				if pub != tc.want {
					t.Errorf("%s: mapped to %s, want %v", tc.name, name, tc.want)
				}
			}
		}
		if matches != 1 {
			t.Errorf("%s: matches %d public sentinels, want exactly 1 (got %v)", tc.name, matches, got)
		}
		// The internal detail must stay reachable for diagnostics.
		if !errors.Is(got, tc.internal) {
			t.Errorf("%s: internal sentinel no longer unwrappable from %v", tc.name, got)
		}
	}
}

// TestPublicErrIdempotent: re-wrapping at a second API boundary (session
// methods calling each other) must not stack a second public sentinel —
// an error already carrying one passes through unchanged.
func TestPublicErrIdempotent(t *testing.T) {
	for _, internal := range []error{
		smpi.ErrCanceled, smpi.ErrUnknownExecutor, engine.ErrUnknown,
		trisolve.ErrSingular, lu2d.ErrSingular, lapack.ErrSingular, lapack.ErrNotPD,
	} {
		once := publicErr(fmt.Errorf("context: %w", internal))
		twice := publicErr(once)
		if twice != once {
			t.Errorf("%v: publicErr not idempotent: %v -> %v", internal, once, twice)
		}
	}
	for name, pub := range publicSentinels {
		if got := publicErr(pub); got != pub {
			t.Errorf("%s: already-public sentinel rewrapped: %v", name, got)
		}
	}
}

// TestPublicErrPassThrough: nil stays nil, and errors with no mapping
// (engine invariant violations, injected faults) are returned verbatim,
// matching zero public sentinels.
func TestPublicErrPassThrough(t *testing.T) {
	if publicErr(nil) != nil {
		t.Fatal("publicErr(nil) != nil")
	}
	plain := errors.New("injected link failure")
	got := publicErr(fmt.Errorf("rank 1: %w", plain))
	if !errors.Is(got, plain) {
		t.Fatalf("plain error not passed through: %v", got)
	}
	for name, pub := range publicSentinels {
		if errors.Is(got, pub) {
			t.Fatalf("plain error spuriously matches %s", name)
		}
	}
}
