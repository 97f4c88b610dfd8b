package smpi

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/trace"
)

// ErrCanceled is the sentinel wrapped by every run that was interrupted by
// its context (cancellation or deadline). Callers test for it with
// errors.Is; the returned error additionally wraps the context's cause, so
// errors.Is(err, context.Canceled) / context.DeadlineExceeded also work.
var ErrCanceled = errors.New("smpi: run canceled")

// RankFunc is the body executed by every rank of a simulated run.
type RankFunc func(c *Comm) error

// Executor selects how a run schedules its ranks. Both executors produce
// byte-identical volume reports and bit-identical simulated clocks (the
// determinism argument is DESIGN.md §1), so the choice affects host time
// and memory only. The zero value means ExecGoroutines, the faster of the
// two on every recorded point (EXPERIMENTS.md, "Executors").
type Executor string

const (
	// ExecGoroutines runs one live goroutine per rank, parked on mailbox
	// condvars when blocked — the classic CSP execution.
	ExecGoroutines Executor = "goroutines"
	// ExecEvents runs the discrete-event scheduler (see events.go): ranks
	// are coroutines yielding to a clock-ordered event loop, at most
	// Config.Workers executing at a time.
	ExecEvents Executor = "events"
)

// ErrUnknownExecutor is wrapped by Exec (and ResolveExecutor) when the
// configured executor is neither empty nor a concrete executor's name.
var ErrUnknownExecutor = errors.New("smpi: unknown executor")

// ResolveExecutor maps an executor choice to a concrete executor: the empty
// string means ExecGoroutines, anything but a concrete name is an error.
func ResolveExecutor(e Executor) (Executor, error) {
	switch e {
	case "", ExecGoroutines:
		return ExecGoroutines, nil
	case ExecEvents:
		return e, nil
	}
	return "", fmt.Errorf("%w: %q (want %q or %q)",
		ErrUnknownExecutor, string(e), ExecGoroutines, ExecEvents)
}

// Config describes one simulated run for Exec. The zero value is not
// runnable (P must be positive unless World is set); every other field has
// a useful zero: volume mode, default α-β machine, goroutine executor, no
// deadline.
type Config struct {
	// P is the world size. Ignored when World is set.
	P int
	// Payload selects numeric mode (true) or volume mode (false, the
	// default). Ignored when World is set.
	Payload bool
	// Machine sets the α-β machine parameters for the timeline. The zero
	// Machine means "use trace.DefaultMachine()" unless MachineSet is
	// true, because the all-free machine (α = β = 0) is a meaningful
	// configuration, not merely unset. Ignored when World is set.
	Machine trace.Machine
	// MachineSet marks Machine as authoritative even when zero.
	MachineSet bool
	// Topology, when non-nil, replaces the flat Machine cost with a
	// per-pair topology model (internal/topo) on the run's timeline. It
	// applies to caller-supplied Worlds too — the one Config field World
	// does not override — so fault-scenario worlds compose with it.
	Topology trace.Topology
	// Executor picks the scheduling strategy; zero means ExecGoroutines.
	Executor Executor
	// Workers, for the event executor, is the concurrent-window width:
	// how many of the earliest ready ranks run simultaneously between
	// scheduler barriers (DESIGN.md §12). Values < 1 mean 1 — the serial
	// baton discipline with lock-free mailbox access; values above P are
	// clamped to P. The report is bit-identical at every width. Ignored
	// by the goroutine executor, which always runs all ranks live.
	Workers int
	// Timeout, when positive, bounds the run's wall-clock time: the
	// deadline aborts the world (schedule deadlocks fail instead of
	// hanging) and surfaces as ErrCanceled wrapping
	// context.DeadlineExceeded.
	Timeout time.Duration
	// World, when non-nil, is the caller-configured world to run on
	// (fault injection, post-run mailbox inspection); it overrides P,
	// Payload, Machine, and MachineSet.
	World *World
}

// Exec is the single entrypoint of the runtime: it executes fn on every
// rank of the configured world and returns the run's trace report (volume +
// simulated time, stamped with the resolved executor).
//
// Error contract: the first rank error — or panic, converted — wins, with
// secondary ErrAborted unwinds filtered out. When ctx is canceled (or the
// Timeout fires) the world is aborted, blocked ranks unwind promptly, and
// the returned error wraps ErrCanceled plus the context's cause; a run that
// completes before cancellation lands is returned as a success. A partial
// report is returned alongside every error. After the ranks unwind —
// normally or not — undelivered pooled wire buffers are returned to their
// pools, so aborted runs leak nothing.
//
// A world Exec builds itself retains no trace events: nothing outside this
// call can reach its timeline, so nobody could read them. Pass a World to
// ask for Trace.Events() afterwards (it keeps trace.DefaultEventCap).
func Exec(ctx context.Context, cfg Config, fn RankFunc) (*trace.Report, error) {
	w := cfg.World
	if w == nil {
		m := cfg.Machine
		if m.IsZero() && !cfg.MachineSet {
			m = trace.DefaultMachine()
		}
		w = NewWorldMachine(cfg.P, cfg.Payload, m)
		w.Trace.SetEventCap(0)
	}
	if cfg.Topology != nil {
		w.Trace.SetTopology(cfg.Topology)
	}
	ex, err := ResolveExecutor(cfg.Executor)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, cfg.Timeout,
			fmt.Errorf("smpi: run did not complete within %v (likely schedule deadlock)", cfg.Timeout))
		defer cancel()
	}
	if ctx.Err() != nil {
		return nil, canceledErr(ctx)
	}
	w.executor = ex
	if ex == ExecEvents {
		w.sched = newEventScheduler(w, cfg.Workers)
	}
	stopWatcher := func() {}
	if cancelCh := ctx.Done(); cancelCh != nil {
		// The watcher holds the world open until the run returns, so a
		// cancellation arriving at any point wakes the blocked ranks
		// exactly once and the goroutine never leaks. Runs on a
		// non-cancelable context skip it, keeping the Go runtime's
		// all-goroutines-asleep deadlock detector meaningful for them.
		// The join matters: the watcher reaches the scheduler through
		// w.sched, which must not be released to the pool under it.
		done := make(chan struct{})
		exited := make(chan struct{})
		go func() {
			defer close(exited)
			select {
			case <-cancelCh:
				w.Abort()
			case <-done:
			}
		}()
		stopWatcher = func() {
			close(done)
			<-exited
		}
	}
	var errs []error
	var workers int
	if ex == ExecEvents {
		workers = w.sched.workers
		errs = w.sched.run(fn)
	} else {
		errs = runGoroutines(w, fn)
	}
	stopWatcher()
	if s := w.sched; s != nil {
		// Safe to recycle: run returned (every rank goroutine sent its
		// evDone) and the watcher has been joined.
		w.sched = nil
		s.release()
	}
	w.reclaim()
	rep := w.Trace.Report()
	rep.Executor = string(ex)
	rep.Workers = workers
	runErr := firstRunError(errs)
	if runErr != nil && ctx.Err() != nil {
		// The abort unwound the ranks (surfacing as ErrAborted or as
		// engine errors on half-delivered schedules); the context is the
		// root cause, so it wins.
		return rep, canceledErr(ctx)
	}
	return rep, runErr
}

func canceledErr(ctx context.Context) error {
	cause := context.Cause(ctx)
	if err := ctx.Err(); !errors.Is(cause, err) {
		// A custom cause (e.g. a timeout explanation) replaces ctx.Err()
		// in the chain; keep both so errors.Is works against either.
		return fmt.Errorf("%w: %w (%w)", ErrCanceled, cause, err)
	}
	return fmt.Errorf("%w: %w", ErrCanceled, cause)
}

// runGoroutines is the classic executor: one goroutine per rank, with rank
// panics converted to errors and the first failure aborting the world so
// blocked ranks unwind instead of deadlocking.
func runGoroutines(w *World, fn RankFunc) []error {
	errs := make([]error, w.P)
	var wg sync.WaitGroup
	for r := 0; r < w.P; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					errs[rank] = panicError(rank, rec)
					w.Abort()
					return
				}
				if errs[rank] != nil {
					w.Abort()
				}
			}()
			errs[rank] = fn(WorldComm(w, rank))
		}(r)
	}
	wg.Wait()
	return errs
}

// panicError converts a rank's recovered panic into its run error: ErrAborted
// stays itself, any other error stays reachable through errors.Is.
func panicError(rank int, rec any) error {
	err, ok := rec.(error)
	if !ok {
		return fmt.Errorf("smpi: rank %d panicked: %v\n%s", rank, rec, debug.Stack())
	}
	if errors.Is(err, ErrAborted) {
		return ErrAborted
	}
	return fmt.Errorf("smpi: rank %d panicked: %w\n%s", rank, err, debug.Stack())
}

// firstRunError picks the run's error: the first non-ErrAborted rank error
// (the originating failure) wins; a run where every failure is a secondary
// ErrAborted unwind reports that.
func firstRunError(errs []error) error {
	for _, err := range errs {
		if err != nil && !errors.Is(err, ErrAborted) {
			return err
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// reclaim sweeps the world after every rank has unwound: the pooled wire
// buffers of undelivered messages (SendMat and SendBatch payloads stranded by
// an abort) go back to their pools, counted in w.reclaimed for the regression
// tests, every mailbox is left empty, and the world's RMA window registry
// entry is dropped so the world itself is collectable. The mailbox locks are
// held against a late watcher Abort broadcast.
func (w *World) reclaim() {
	for _, mb := range w.boxes {
		mb.mu.Lock()
		for i := range mb.pend {
			if m := &mb.pend[i].msg; m.pooled {
				putFloats(m.F)
				w.reclaimed.bufs++
			}
		}
		clear(mb.pend)
		mb.pend = mb.pend[:0]
		mb.mu.Unlock()
	}
	dropWindowRegistry(w)
}
