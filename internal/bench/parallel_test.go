package bench

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// TestForEachHonorsCancellationAtEveryWorkerCount: a context canceled
// mid-sweep must stop ForEach on both the serial (workers == 1) path and
// the parallel path — the serial path used to run every remaining job to
// completion. The jobs cancel the context themselves after a fixed number
// of calls, so the test is deterministic at any scheduling.
func TestForEachHonorsCancellationAtEveryWorkerCount(t *testing.T) {
	const n = 64
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		err := ForEach(ctx, workers, n, func(ctx context.Context, i int) error {
			if calls.Add(1) == 3 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// The serial path sees the cancellation before job 4; parallel
		// workers may each have one job in flight when it lands, but the
		// sweep must still stop far short of all n jobs.
		if got := calls.Load(); got >= n {
			t.Fatalf("workers=%d: %d jobs ran after cancellation (want < %d)", workers, got, n)
		}
	}
}

// TestForEachCanceledBeforeStart: a context that is already canceled runs
// zero jobs and reports the cancellation cause, identically on both paths.
func TestForEachCanceledBeforeStart(t *testing.T) {
	cause := errors.New("sweep abandoned")
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancelCause(context.Background())
		cancel(cause)
		var calls atomic.Int64
		err := ForEach(ctx, workers, 8, func(ctx context.Context, i int) error {
			calls.Add(1)
			return nil
		})
		if !errors.Is(err, cause) {
			t.Fatalf("workers=%d: err = %v, want cause %v", workers, err, cause)
		}
		if calls.Load() != 0 {
			t.Fatalf("workers=%d: %d jobs ran on a pre-canceled context", workers, calls.Load())
		}
	}
}

// TestForEachFirstErrorWins: a job error is returned as-is (not replaced by
// the cancellation fallout it triggers) on both paths.
func TestForEachFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		err := ForEach(context.Background(), workers, 16, func(ctx context.Context, i int) error {
			if i == 2 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, boom)
		}
	}
}
