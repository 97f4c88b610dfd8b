package bench

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/costmodel"
)

// parallel.go is the parallel measurement runner. Every simulated world is
// self-contained — its ranks, mailboxes, and timeline shards are private to
// one smpi.World — so independent measurements (sweep points, table cells,
// conformance cases) can execute concurrently across host CPU cores without
// sharing anything but the read-only cost models. Sweeps stay deterministic
// because results land at their job's index, never in completion order.

// ForEach runs fn(ctx, i) for every i in [0, n) across up to workers
// goroutines; workers <= 0 means one per host CPU (GOMAXPROCS). Callers
// write result i into slot i of a pre-sized slice, so output order is
// deterministic regardless of scheduling. The first error cancels the
// context handed to the remaining calls and is returned; later errors
// (including cancellation fallout) are dropped in its favour.
func ForEach(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			// Honor cancellation between jobs exactly like the parallel
			// path's workers do, so a canceled context stops a sweep at
			// the same points whatever the worker count.
			if ctx.Err() != nil {
				return context.Cause(ctx)
			}
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if ctx.Err() != nil {
					continue // drain; a peer already failed or caller canceled
				}
				if err := fn(ctx, i); err != nil {
					errOnce.Do(func() {
						firstErr = err
						cancel()
					})
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if firstErr == nil && ctx.Err() != nil {
		firstErr = context.Cause(ctx)
	}
	return firstErr
}

// measureJob is one (algo, n, p, mem) point of a sweep.
type measureJob struct {
	algo costmodel.Algorithm
	n, p int
	mem  float64
}

// measureMany measures a flattened job list through ForEach, preserving job
// order in the returned slice.
func (h Harness) measureMany(ctx context.Context, jobs []measureJob) ([]Measurement, error) {
	out := make([]Measurement, len(jobs))
	err := ForEach(ctx, h.Workers, len(jobs), func(ctx context.Context, i int) error {
		j := jobs[i]
		m, err := h.Measure(ctx, j.algo, j.n, j.p, j.mem)
		if err != nil {
			return err
		}
		out[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
