package smpi

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mat"
	"repro/internal/topo"
	"repro/internal/trace"
)

func TestResolveExecutor(t *testing.T) {
	cases := []struct{ in, want Executor }{
		{"", ExecGoroutines},
		{ExecGoroutines, ExecGoroutines},
		{ExecEvents, ExecEvents},
	}
	for _, c := range cases {
		got, err := ResolveExecutor(c.in)
		if err != nil || got != c.want {
			t.Fatalf("ResolveExecutor(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
	}
	for _, bad := range []Executor{"fibers", "auto"} {
		if _, err := ResolveExecutor(bad); !errors.Is(err, ErrUnknownExecutor) {
			t.Fatalf("ResolveExecutor(%q): got %v, want ErrUnknownExecutor", bad, err)
		}
	}
}

func TestExecUnknownExecutor(t *testing.T) {
	_, err := Exec(context.Background(), Config{P: 2, Executor: "bogus"}, func(c *Comm) error { return nil })
	if !errors.Is(err, ErrUnknownExecutor) {
		t.Fatalf("got %v, want ErrUnknownExecutor", err)
	}
}

// parityWorkload is a communication-dense rank body exercising point-to-
// point, butterfly collectives, barriers, and a MaxLoc reduction — the
// full matching surface both executors must agree on.
func parityWorkload(c *Comm) error {
	p, me := c.Size(), c.Rank()
	c.SetPhase("ring")
	for round := 0; round < 5; round++ {
		c.Send((me+1)%p, round, Msg{N: 64 * (me + round + 1)})
		c.Recv((me-1+p)%p, round)
	}
	c.SetPhase("reduce")
	got := c.AllreduceMaxLoc(MaxLoc{Val: float64((me * 7) % p), Loc: me})
	if got.Loc < 0 || got.Loc >= p {
		return fmt.Errorf("bad maxloc %v", got)
	}
	c.Barrier()
	c.SetPhase("shift")
	// Pairwise exchange under the reversal pairing (an involution for every
	// p; the middle rank of an odd world sits out), with receive-before-
	// send ordering on half the ranks so the executor has to park and
	// re-arm waits.
	peer := p - 1 - me
	if peer != me {
		if me < peer {
			c.Send(peer, 100, Msg{N: 256})
			c.Recv(peer, 101)
		} else {
			c.Recv(peer, 100)
			c.Send(peer, 101, Msg{N: 256})
		}
	}
	c.Barrier()
	return nil
}

// reportsEqual compares everything except the provenance stamp.
func reportsEqual(a, b *trace.Report) error {
	if !reflect.DeepEqual(a.Sent, b.Sent) || !reflect.DeepEqual(a.Recv, b.Recv) || !reflect.DeepEqual(a.Msgs, b.Msgs) {
		return fmt.Errorf("per-rank volume differs:\n%v %v %v\n%v %v %v", a.Sent, a.Recv, a.Msgs, b.Sent, b.Recv, b.Msgs)
	}
	if !reflect.DeepEqual(a.ByPhase, b.ByPhase) || !reflect.DeepEqual(a.PhaseMsgs, b.PhaseMsgs) {
		return fmt.Errorf("phase attribution differs: %v vs %v", a.ByPhase, b.ByPhase)
	}
	if !reflect.DeepEqual(a.Time, b.Time) {
		return fmt.Errorf("simulated time differs: makespan %v vs %v (clocks %v vs %v)",
			a.Time.Makespan, b.Time.Makespan, a.Time.Clock, b.Time.Clock)
	}
	return nil
}

// parityWorkerCounts is the concurrent-window sweep the parity suites pin:
// serial, the small fixed widths, and whatever the host's NumCPU is.
func parityWorkerCounts() []int {
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		counts = append(counts, n)
	}
	return counts
}

// TestExecutorParityWorkload pins the core executor-equivalence claim at the
// runtime level: byte-identical volume and bit-identical clocks between the
// goroutine executor and the event executor at every concurrent-window
// width, in both payload modes, across odd and power-of-two world sizes.
func TestExecutorParityWorkload(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 6, 8} {
		for _, payload := range []bool{false, true} {
			base, err := Exec(context.Background(), Config{P: p, Payload: payload, Executor: ExecGoroutines}, parityWorkload)
			if err != nil {
				t.Fatalf("p=%d payload=%v goroutines: %v", p, payload, err)
			}
			if base.Executor != string(ExecGoroutines) || base.Workers != 0 {
				t.Fatalf("goroutine report stamped %q/%d, want %q/0", base.Executor, base.Workers, ExecGoroutines)
			}
			for _, workers := range parityWorkerCounts() {
				rep, err := Exec(context.Background(),
					Config{P: p, Payload: payload, Executor: ExecEvents, Workers: workers}, parityWorkload)
				if err != nil {
					t.Fatalf("p=%d payload=%v events w=%d: %v", p, payload, workers, err)
				}
				if rep.Executor != string(ExecEvents) {
					t.Fatalf("report stamped %q, want %q", rep.Executor, ExecEvents)
				}
				if want := min(workers, p); rep.Workers != want {
					t.Fatalf("p=%d w=%d: report Workers = %d, want %d", p, workers, rep.Workers, want)
				}
				if err := reportsEqual(base, rep); err != nil {
					t.Fatalf("p=%d payload=%v events w=%d: %v", p, payload, workers, err)
				}
			}
		}
	}
}

// TestEventExecutorNumericCorrect: the event executor must move real
// payloads correctly, not just meter them — a numeric SendMat/RecvMat chain
// through several ranks preserves values.
func TestEventExecutorNumericCorrect(t *testing.T) {
	const p = 4
	_, err := Exec(context.Background(), Config{P: p, Payload: true, Executor: ExecEvents}, func(c *Comm) error {
		m := mat.New(2, 2)
		if c.Rank() == 0 {
			m.Set(0, 0, 42)
			m.Set(1, 1, 7)
			c.SendMat(1, 0, m)
			return nil
		}
		c.RecvMat(c.Rank()-1, 0, m)
		if m.At(0, 0) != 42 || m.At(1, 1) != 7 {
			return fmt.Errorf("rank %d: payload corrupted: %v %v", c.Rank(), m.At(0, 0), m.At(1, 1))
		}
		if c.Rank() < p-1 {
			c.SendMat(c.Rank()+1, 0, m)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// abortConfigs enumerates the executor × window-width matrix the abort and
// cancel reclaim tests and the mailbox tests cover (Workers is ignored by the
// goroutine executor and clamped to the world size by the event executor).
func abortConfigs() []Config {
	return []Config{
		{Executor: ExecGoroutines},
		{Executor: ExecEvents},
		{Executor: ExecEvents, Workers: 4},
	}
}

func abortConfigName(cfg Config) string {
	return fmt.Sprintf("%s/w%d", cfg.Executor, max(cfg.Workers, 1))
}

// TestAbortReclaimsPooledWireBuffers is the pool-reclaim regression test:
// when a run aborts with pooled wire buffers still undelivered (numeric
// SendMat traffic nobody received), the post-run sweep must return them to
// the pools and leave every mailbox empty — under both executors, serial and
// concurrent-window.
func TestAbortReclaimsPooledWireBuffers(t *testing.T) {
	for _, cfg := range abortConfigs() {
		w := NewWorld(3, true)
		cfg.World = w
		_, err := Exec(context.Background(), cfg, func(c *Comm) error {
			switch c.Rank() {
			case 0:
				m := mat.New(4, 4)
				c.SendMat(2, 1, m) // never received: tag 1 ≠ awaited tag 9
				c.SendMat(2, 2, m)
				return nil
			case 1:
				return fmt.Errorf("injected failure")
			default:
				c.Recv(1, 9) // blocks until the abort unwinds it
				return nil
			}
		})
		name := abortConfigName(cfg)
		if err == nil || errors.Is(err, ErrAborted) {
			t.Fatalf("%s: want the injected failure, got %v", name, err)
		}
		if w.reclaimed.bufs != 2 {
			t.Fatalf("%s: reclaimed %d pooled buffers, want 2", name, w.reclaimed.bufs)
		}
		for r, mb := range w.boxes {
			if len(mb.pend) != 0 {
				t.Fatalf("%s: rank %d mailbox still holds %d messages after reclaim", name, r, len(mb.pend))
			}
		}
	}
}

// TestCancelReclaimsPools covers the cancellation path: a canceled run must unwind blocked ranks promptly and sweep the
// stranded pooled payloads, under both executors, serial and concurrent.
func TestCancelReclaimsPools(t *testing.T) {
	for _, cfg := range abortConfigs() {
		w := NewWorld(2, true)
		cfg.World = w
		ctx, cancel := context.WithCancel(context.Background())
		_, err := Exec(ctx, cfg, func(c *Comm) error {
			if c.Rank() == 0 {
				m := mat.New(3, 3)
				c.SendMat(1, 99, m) // never received
				cancel()
			}
			c.Recv(1-c.Rank(), 7) // both ranks block until the abort
			return nil
		})
		cancel()
		name := abortConfigName(cfg)
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: got %v, want ErrCanceled wrapping context.Canceled", name, err)
		}
		if w.reclaimed.bufs != 1 {
			t.Fatalf("%s: reclaimed %d pooled buffers, want 1", name, w.reclaimed.bufs)
		}
		for r, mb := range w.boxes {
			if len(mb.pend) != 0 {
				t.Fatalf("%s: rank %d mailbox still holds %d messages", name, r, len(mb.pend))
			}
		}
	}
}

// TestAbortMidConcurrentWindow interrupts a wide concurrent window with
// pooled wire buffers in flight from many simultaneously-running senders:
// ranks 1..P-1 each ship a pooled payload to rank 0 on a tag it never
// receives and then block; rank 0 fails the world from inside the same
// window. Every one of the P-1 stranded buffers must come back through the
// post-run sweep regardless of where in its send/block lifecycle each
// sender was when the abort landed.
func TestAbortMidConcurrentWindow(t *testing.T) {
	const p = 8
	w := NewWorld(p, true)
	_, err := Exec(context.Background(), Config{World: w, Executor: ExecEvents, Workers: p}, func(c *Comm) error {
		if c.Rank() == 0 {
			return fmt.Errorf("injected failure")
		}
		m := mat.New(4, 4)
		c.SendMat(0, 5, m) // tag 5 is never received
		c.Recv(0, 99)      // blocks until the abort unwinds it
		return nil
	})
	if err == nil || errors.Is(err, ErrAborted) {
		t.Fatalf("want the injected failure, got %v", err)
	}
	if w.reclaimed.bufs != p-1 {
		t.Fatalf("reclaimed %d pooled buffers, want %d", w.reclaimed.bufs, p-1)
	}
	for r, mb := range w.boxes {
		if len(mb.pend) != 0 {
			t.Fatalf("rank %d mailbox still holds %d messages after reclaim", r, len(mb.pend))
		}
	}
}

// TestAbortFaultedTopologyReclaims is TestAbortMidConcurrentWindow on a
// degraded network: the world's timeline runs under a faulted topology
// (hier preset + degraded ingress link + a straggler rank). Fault
// scenarios must compose with cancellation — the abort sweep owes the
// pools the same P-1 stranded wire buffers whatever the topology charged
// the clocks.
func TestAbortFaultedTopologyReclaims(t *testing.T) {
	const p = 8
	spec, err := topo.PresetSpec("hier-contended")
	if err != nil {
		t.Fatal(err)
	}
	tp, err := topo.BuildFaulted(spec, trace.DefaultMachine(), p, topo.FaultPlan{
		Links:      []topo.LinkFault{{FromNode: -1, ToNode: 0, Factor: 16}},
		Stragglers: []topo.Straggler{{Rank: 3, Factor: 8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(p, true)
	_, err = Exec(context.Background(), Config{World: w, Topology: tp, Executor: ExecEvents, Workers: p}, func(c *Comm) error {
		if c.Rank() == 0 {
			return fmt.Errorf("injected failure")
		}
		m := mat.New(4, 4)
		c.SendMat(0, 5, m) // tag 5 is never received
		c.Recv(0, 99)      // blocks until the abort unwinds it
		return nil
	})
	if err == nil || errors.Is(err, ErrAborted) {
		t.Fatalf("want the injected failure, got %v", err)
	}
	if w.reclaimed.bufs != p-1 {
		t.Fatalf("reclaimed %d pooled buffers, want %d", w.reclaimed.bufs, p-1)
	}
	for r, mb := range w.boxes {
		if len(mb.pend) != 0 {
			t.Fatalf("rank %d mailbox still holds %d messages after reclaim", r, len(mb.pend))
		}
	}
	if got := w.Trace.Report().Time.Topology; got != "hier+contention+faults" {
		t.Fatalf("aborted report lost the topology stamp: %q", got)
	}
}

// TestEventExecutorDeadlockSurfacesViaTimeout: an all-ranks-blocked
// schedule deadlock under the event executor must not fail fast — the
// scheduler parks until the deadline aborts the world, exactly like the
// goroutine executor's semantics.
func TestEventExecutorDeadlockSurfacesViaTimeout(t *testing.T) {
	start := time.Now()
	_, err := Exec(context.Background(),
		Config{P: 2, Payload: false, Executor: ExecEvents, Timeout: 100 * time.Millisecond},
		func(c *Comm) error {
			c.Recv(1-c.Rank(), 3) // nobody sends: deadlock
			return nil
		})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Fatalf("deadlock surfaced after %v, before the deadline", elapsed)
	}
}

// TestEventExecutorDeterminismStress runs several identical event-loop
// simulations concurrently (under -race in CI) and requires bit-identical
// reports: the loops share the wire-buffer pools and the window registry,
// and any cross-world interference or unsynchronized scheduler state would
// show up as a diff or a race report.
func TestEventExecutorDeterminismStress(t *testing.T) {
	const trials, p = 4, 7
	reps := make([]*trace.Report, trials)
	errs := make([]error, trials)
	var wg sync.WaitGroup
	for i := 0; i < trials; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = Exec(context.Background(), Config{P: p, Executor: ExecEvents}, parityWorkload)
		}(i)
	}
	wg.Wait()
	for i := 0; i < trials; i++ {
		if errs[i] != nil {
			t.Fatalf("trial %d: %v", i, errs[i])
		}
		if i > 0 {
			if err := reportsEqual(reps[0], reps[i]); err != nil {
				t.Fatalf("trial %d diverged: %v", i, err)
			}
		}
	}
}

// TestEventExecutorWorkerDeterminismStress replays the identical world at
// every worker count — serial, the fixed widths, NumCPU, and wider than the
// world (clamped) — several times each, and requires every report to be
// bit-identical to the serial one. Under -race this also proves the
// concurrent window's mailbox locking and wake-list handoffs are sound.
func TestEventExecutorWorkerDeterminismStress(t *testing.T) {
	const p = 9
	base, err := Exec(context.Background(), Config{P: p, Executor: ExecEvents}, parityWorkload)
	if err != nil {
		t.Fatal(err)
	}
	counts := append(parityWorkerCounts(), 3, p, 2*p)
	for _, workers := range counts {
		for trial := 0; trial < 3; trial++ {
			rep, err := Exec(context.Background(),
				Config{P: p, Executor: ExecEvents, Workers: workers}, parityWorkload)
			if err != nil {
				t.Fatalf("w=%d trial %d: %v", workers, trial, err)
			}
			if err := reportsEqual(base, rep); err != nil {
				t.Fatalf("w=%d trial %d diverged: %v", workers, trial, err)
			}
		}
	}
}

// TestExecWorldOverridesScalars pins the Config contract: a caller-built
// World wins over the P/Payload/Machine fields.
func TestExecWorldOverridesScalars(t *testing.T) {
	w := NewWorld(3, false)
	rep, err := Exec(context.Background(), Config{P: 99, Payload: true, World: w}, func(c *Comm) error {
		if c.Size() != 3 || c.Payload() {
			return fmt.Errorf("world not honored: size %d payload %v", c.Size(), c.Payload())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.P != 3 {
		t.Fatalf("report P = %d, want 3", rep.P)
	}
}

// settledGoroutines polls until the goroutine count is back at (or under)
// the baseline: Exec joins every rank, but a joined goroutine can still be
// between its last statement and its exit.
func settledGoroutines(baseline int) int {
	for i := 0; i < 200 && runtime.NumGoroutine() > baseline; i++ {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// TestBatchAbortPaths injects the three ways a batched layout/collect can
// die — FailSend firing on a message in the middle of a batch, the context
// canceled while the root is blocked on a batch that never comes, and a
// failing rank stranding delivered batches — and checks the runtime's side of
// the bargain each time: the originating error surfaces, every stranded wire
// buffer is swept (and none that was already recycled is counted), the
// sender-owned part list is left alone, mailboxes end empty and the
// goroutines are gone.
func TestBatchAbortPaths(t *testing.T) {
	fill := func(wire []float64) {
		for i := range wire {
			wire[i] = float64(i)
		}
	}
	for _, cfg := range abortConfigs() {
		name := abortConfigName(cfg)
		baseline := runtime.NumGoroutine()
		check := func(step string, w *World, wantBufs int) {
			t.Helper()
			if w.reclaimed.bufs != wantBufs {
				t.Fatalf("%s %s: reclaimed %d pooled buffers, want %d", name, step, w.reclaimed.bufs, wantBufs)
			}
			for r, mb := range w.boxes {
				if len(mb.pend) != 0 {
					t.Fatalf("%s %s: rank %d mailbox still holds %d messages", name, step, r, len(mb.pend))
				}
			}
			if n := settledGoroutines(baseline); n > baseline {
				t.Fatalf("%s %s: %d goroutines, %d before the run", name, step, n, baseline)
			}
		}

		// FailSend is consulted once per booked message, in order: the third
		// part of the first batch fails, so nothing of it is ever enqueued.
		w := NewWorld(2, true)
		w.Trace.ExcludeFromTiming("housekeeping")
		var calls atomic.Int64
		w.FailSend = func(from, to int, bytes int64) error {
			if n := calls.Add(1); n == 3 {
				return fmt.Errorf("link %d->%d failed on message %d (%d bytes)", from, to, n, bytes)
			}
			return nil
		}
		cfg.World = w
		_, err := Exec(context.Background(), cfg, func(c *Comm) error {
			c.SetPhase("housekeeping")
			parts := []int{4, 4, 6, 4}
			if c.Rank() == 0 {
				c.SendBatch(1, 0, parts, fill)
				return nil
			}
			c.RecvBatches([]int{0}, 0, [][]int{parts}, make([]int, len(parts)), func(int, []float64) {})
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "failed on message 3 (48 bytes)") {
			t.Fatalf("%s: want the injected link failure, got %v", name, err)
		}
		if got := calls.Load(); got != 3 {
			t.Fatalf("%s: FailSend consulted %d times, want 3", name, got)
		}
		check("fail-send", w, 0)

		// Cancel while the root is blocked in the middle of a gather: the
		// batch it already took was recycled by the receive itself, the one
		// parked on a tag nobody awaits is the sweep's.
		w = NewWorld(3, true)
		w.Trace.ExcludeFromTiming("housekeeping")
		cfg.World = w
		ctx, cancel := context.WithCancel(context.Background())
		_, err = Exec(ctx, cfg, func(c *Comm) error {
			c.SetPhase("housekeeping")
			switch c.Rank() {
			case 0:
				c.RecvBatches([]int{1, 2}, 0, [][]int{{4, 4}, {4}}, []int{0, 1, 0}, func(i int, wire []float64) {
					c.Send(2, 5, Msg{}) // past rank 1's batch, about to block on rank 2's
				})
			case 1:
				c.SendBatch(0, 0, []int{4, 4}, fill)
				c.SendBatch(0, 9, []int{4, 4}, fill) // stranded: tag 9 is never awaited
				c.Recv(2, 7)
			case 2:
				c.Recv(0, 5)
				cancel()
				c.Recv(1, 7)
			}
			return nil
		})
		cancel()
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: got %v, want ErrCanceled wrapping context.Canceled", name, err)
		}
		check("cancel", w, 1)

		// A rank fails with batches delivered but never received; the
		// sweep must return their wire buffers and nothing else — the part
		// lists are the sender's.
		w = NewWorld(3, true)
		w.Trace.ExcludeFromTiming("housekeeping")
		cfg.World = w
		one := []int{5}
		_, err = Exec(context.Background(), cfg, func(c *Comm) error {
			c.SetPhase("housekeeping")
			switch c.Rank() {
			case 0:
				c.SendBatch(2, 0, one, fill)
				c.SendBatch(2, 0, []int{4, 4}, fill)
				c.SendBatch(2, 0, []int{3}, nil) // count-only: no buffer to strand
				return nil
			case 1:
				return fmt.Errorf("injected failure")
			default:
				c.Recv(1, 9) // blocks until the abort unwinds it
				return nil
			}
		})
		if err == nil || errors.Is(err, ErrAborted) {
			t.Fatalf("%s: want the injected failure, got %v", name, err)
		}
		check("abort", w, 2)
		if one[0] != 5 {
			t.Fatalf("%s: part list overwritten: %v", name, one)
		}
	}
}

// A batch books k messages under one stamp, which is only exact where no
// clock moves: in a timed phase SendBatch refuses before leasing or
// enqueueing anything.
func TestSendBatchInTimedPhasePanics(t *testing.T) {
	w := NewWorld(2, true)
	_, err := Exec(context.Background(), Config{World: w}, func(c *Comm) error {
		if c.Rank() == 0 {
			c.SetPhase("panel") // timed: only layout and collect are excluded
			c.SendBatch(1, 0, []int{4, 4}, func([]float64) { t.Error("payload packed for a refused batch") })
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "trace: batched booking in a timed phase") {
		t.Fatalf("want the timed-phase panic, got %v", err)
	}
	if w.reclaimed.bufs != 0 || w.Trace.Report().TotalMsgs() != 0 {
		t.Fatalf("refused batch left %d buffers and %d booked messages", w.reclaimed.bufs, w.Trace.Report().TotalMsgs())
	}
}
