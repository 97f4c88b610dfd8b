package conflux

import (
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/lapack"
	"repro/internal/lu2d"
	"repro/internal/smpi"
	"repro/internal/trisolve"
)

// Typed sentinel errors. Every error returned by the public API wraps
// exactly one of these (or is a plain internal failure), so callers branch
// with errors.Is instead of matching message text:
//
//	if errors.Is(err, conflux.ErrSingular) { ... }
//
// ErrCanceled additionally wraps the context's cause, so
// errors.Is(err, context.Canceled) and context.DeadlineExceeded also hold
// for canceled and timed-out runs respectively.
var (
	// ErrShape marks inputs with inconsistent dimensions: n < 1 (a 0×0 A
	// included), non-square A, a right-hand side without n rows or without
	// a column. Every Session job checks its shape before any world starts,
	// on every engine alike, so a refused job runs nothing and
	// Stats().Runs does not count it.
	ErrShape = errors.New("conflux: shape mismatch")
	// ErrSingular marks a factor with a zero U pivot: the solve of a
	// singular system surfaces as this error, never as Inf/NaN in X.
	ErrSingular = errors.New("conflux: singular factor")
	// ErrNotPositiveDefinite marks a FactorizeSPD input whose Cholesky
	// factorization meets a pivot that is not positive (zero, negative or
	// NaN).
	ErrNotPositiveDefinite = errors.New("conflux: matrix is not positive definite")
	// ErrUnknownAlgorithm marks an Algorithm that names no engine.
	ErrUnknownAlgorithm = errors.New("conflux: unknown algorithm")
	// ErrUnknownExecutor marks a WithExecutor name that is neither
	// "goroutines" nor "events".
	ErrUnknownExecutor = errors.New("conflux: unknown executor")
	// ErrCanceled marks a simulation interrupted by its context
	// (cancellation or deadline, including the session safety timeout).
	ErrCanceled = errors.New("conflux: simulation canceled")
)

// publicErr maps internal sentinels onto the public typed errors at the API
// boundary. Errors already carrying a public sentinel pass through; errors
// with no mapping (engine invariant violations, injected faults) are
// returned verbatim.
func publicErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrShape), errors.Is(err, ErrSingular), errors.Is(err, ErrNotPositiveDefinite),
		errors.Is(err, ErrUnknownAlgorithm), errors.Is(err, ErrUnknownExecutor),
		errors.Is(err, ErrCanceled):
		return err
	case errors.Is(err, smpi.ErrCanceled):
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	case errors.Is(err, smpi.ErrUnknownExecutor):
		return fmt.Errorf("%w: %w", ErrUnknownExecutor, err)
	case errors.Is(err, engine.ErrUnknown):
		return fmt.Errorf("%w: %w", ErrUnknownAlgorithm, err)
	case errors.Is(err, trisolve.ErrSingular), errors.Is(err, lu2d.ErrSingular),
		errors.Is(err, lapack.ErrSingular):
		return fmt.Errorf("%w: %w", ErrSingular, err)
	case errors.Is(err, lapack.ErrNotPD):
		return fmt.Errorf("%w: %w", ErrNotPositiveDefinite, err)
	default:
		return err
	}
}
