package smpi

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/mat"
)

// TestMailboxSteadyStateMapSize is the regression test for the mailbox
// memory-growth bug: a mailbox holds in-flight traffic only, never anything
// per stream it has seen, so a long-lived world (one session running many
// solves) does not grow with its tag history. Every round uses fresh tags;
// the list must stay within the ring's slack between rounds and end empty.
func TestMailboxSteadyStateMapSize(t *testing.T) {
	const p, rounds = 4, 2000
	w := NewWorld(p, false)
	_, err := Exec(context.Background(), Config{World: w}, func(c *Comm) error {
		me := c.Rank()
		next, prev := (me+1)%p, (me-1+p)%p
		for r := 0; r < rounds; r++ {
			c.Send(next, r, Msg{N: 8}) // tag r: a fresh stream every round
			c.Recv(prev, r)
			if r%100 == 0 {
				// Only not-yet-taken deliveries may be pending, and the
				// one sender can run at most p-1 rounds ahead of its
				// receiver around the ring.
				mb := w.boxes[c.WorldRank()]
				mb.mu.Lock()
				size := len(mb.pend)
				mb.mu.Unlock()
				if size >= p {
					return fmt.Errorf("rank %d: mailbox holds %d messages at round %d (leak)", me, size, r)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, mb := range w.boxes {
		if size := len(mb.pend); size != 0 {
			t.Fatalf("rank %d: %d undrained messages after the run", r, size)
		}
	}
}

// TestMailboxAbortReclaimsWaiterQueue: a receiver parked before anything was
// sent to it (receive-before-send) leaves nothing behind in its mailbox when
// the world aborts — no entry, no wait registration.
func TestMailboxAbortReclaimsWaiterQueue(t *testing.T) {
	w := NewWorld(2, false)
	_, err := Exec(context.Background(), Config{World: w}, func(c *Comm) error {
		if c.Rank() == 0 {
			return fmt.Errorf("rank 0 fails") // aborts the world
		}
		c.Recv(0, 7) // blocks forever; unwinds via ErrAborted
		return nil
	})
	if err == nil {
		t.Fatal("expected the injected failure")
	}
	if mb := w.boxes[1]; len(mb.pend) != 0 || mb.waiting {
		t.Fatalf("aborted waiter left %d messages, waiting=%v", len(mb.pend), mb.waiting)
	}
}

// TestMailboxFIFOAcrossStreams: two streams interleaved into one mailbox
// come out in per-stream send order whichever stream is taken first — the
// oldest-first scan of the one list is FIFO per stream, not per mailbox.
func TestMailboxFIFOAcrossStreams(t *testing.T) {
	const a, b = 1, 2 // tags: two streams from the same source
	sent := []int{a, b, b, a, b, a, a, b}
	for name, order := range map[string][]int{
		"a-first":     {a, a, a, a, b, b, b, b},
		"b-first":     {b, b, b, b, a, a, a, a},
		"alternating": {b, a, b, a, b, a, b, a},
		"as-sent":     sent,
	} {
		w := NewWorld(2, false)
		src, dst := WorldComm(w, 0), WorldComm(w, 1)
		for i, tag := range sent { // sends never block: one goroutine suffices
			src.Send(1, tag, Msg{N: i})
		}
		want := map[int][]int{a: {0, 3, 5, 6}, b: {1, 2, 4, 7}}
		got := map[int][]int{}
		for _, tag := range order {
			got[tag] = append(got[tag], dst.Recv(0, tag).N)
		}
		if !slices.Equal(got[a], want[a]) || !slices.Equal(got[b], want[b]) {
			t.Errorf("%s: received a=%v b=%v, want a=%v b=%v", name, got[a], got[b], want[a], want[b])
		}
		if n := len(w.boxes[1].pend); n != 0 {
			t.Errorf("%s: %d messages left pending", name, n)
		}
	}
}

// TestAbortWakesKeyedWaiter: a put wakes only the receiver parked on its
// stream, so Abort's own wake-up must reach a receiver whatever it awaits.
// Rank 0 parks on a stream nobody sends on, rank 1 delivers to it on another
// stream (which must leave it parked), and rank 2 fails the world once rank 0
// is registered as waiting: rank 0 has to unwind with ErrAborted under every
// executor. A lost wake-up shows as this test hanging.
func TestAbortWakesKeyedWaiter(t *testing.T) {
	for _, cfg := range abortConfigs() {
		name := abortConfigName(cfg)
		w := NewWorld(3, false)
		cfg.World = w
		var unwound any
		_, err := Exec(context.Background(), cfg, func(c *Comm) error {
			switch c.Rank() {
			case 0:
				defer func() {
					unwound = recover()
					panic(unwound)
				}()
				c.Recv(1, 9) // never sent
			case 1:
				c.Send(0, 1, Msg{N: 1}) // another stream of the same mailbox
			case 2:
				// Rank 0 may still be on its way to parking (goroutines, or
				// an event window wide enough to hold both): wait for it.
				for mb := w.boxes[0]; ; runtime.Gosched() {
					mb.mu.Lock()
					parked := mb.waiting
					mb.mu.Unlock()
					if parked {
						return fmt.Errorf("injected failure")
					}
				}
			}
			return nil
		})
		if err == nil || errors.Is(err, ErrAborted) {
			t.Fatalf("%s: want the injected failure, got %v", name, err)
		}
		if e, ok := unwound.(error); !ok || !errors.Is(e, ErrAborted) {
			t.Fatalf("%s: parked receiver unwound with %v, want ErrAborted", name, unwound)
		}
		if mb := w.boxes[0]; len(mb.pend) != 0 || mb.waiting {
			t.Fatalf("%s: aborted waiter left %d messages, waiting=%v", name, len(mb.pend), mb.waiting)
		}
	}
}

// TestSendMatRecvMatPooledRoundTrip pins that buffer pooling does not leak
// payload aliasing: the receiver's matrix must hold a private copy, and
// mutating either side after the exchange must not affect the other even
// though the wire buffer is recycled into the next send.
func TestSendMatRecvMatPooledRoundTrip(t *testing.T) {
	run(t, 2, true, func(c *Comm) error {
		if c.Rank() == 0 {
			a := mat.New(3, 3)
			for i := 0; i < 3; i++ {
				for j := 0; j < 3; j++ {
					a.Set(i, j, float64(10*i+j))
				}
			}
			c.SendMat(1, 1, a)
			b := mat.New(2, 2)
			b.Set(0, 0, 42)
			c.SendMat(1, 2, b) // likely reuses the recycled wire buffer
		} else {
			got := mat.New(3, 3)
			c.RecvMat(0, 1, got)
			snapshot := got.Clone()
			got2 := mat.New(2, 2)
			c.RecvMat(0, 2, got2)
			if d := mat.MaxAbsDiff(got, snapshot); d != 0 {
				return fmt.Errorf("first receive mutated by second exchange (pool aliasing): diff %v", d)
			}
			if got.At(2, 1) != 21 || got2.At(0, 0) != 42 {
				return fmt.Errorf("payload corrupted: %v / %v", got.At(2, 1), got2.At(0, 0))
			}
		}
		return nil
	})
}

// TestPhantomSendAllocatesNothing pins the zero-allocation phantom fast
// path: in steady state (pools warm), a phantom SendMat/RecvMat pair on a
// pre-built world performs no heap allocation.
func TestPhantomSendAllocatesNothing(t *testing.T) {
	w := NewWorld(2, false)
	done := make(chan struct{})
	req := make(chan int)
	go func() {
		c := WorldComm(w, 1)
		m := mat.NewPhantom(16, 16)
		for tag := range req {
			c.RecvMat(0, tag, m)
		}
		close(done)
	}()
	c := WorldComm(w, 0)
	m := mat.NewPhantom(16, 16)
	exchange := func(tag int) {
		req <- tag
		c.SendMat(1, tag, m)
	}
	exchange(0) // warm up: the pending list's backing array
	const reps = 100
	avg := testing.AllocsPerRun(reps, func() { exchange(1) })
	close(req)
	<-done
	// The metering path may touch a map bucket now and then; allow a small
	// fraction but fail on per-message allocation.
	if avg >= 1 {
		t.Fatalf("phantom exchange allocates %.2f objects/op, want ~0", avg)
	}
}
