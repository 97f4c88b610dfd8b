package smpi

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"repro/internal/mat"
	"repro/internal/trace"
)

const testTimeout = 30 * time.Second

func run(t *testing.T, p int, payload bool, fn RankFunc) *trace.Report {
	t.Helper()
	rep, err := Exec(context.Background(), Config{P: p, Payload: payload, Timeout: testTimeout}, fn)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestSendRecvOrdering(t *testing.T) {
	run(t, 2, true, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < 10; i++ {
				c.Send(1, 5, Msg{F: []float64{float64(i)}, N: 1})
			}
		} else {
			for i := 0; i < 10; i++ {
				m := c.Recv(0, 5)
				if m.F[0] != float64(i) {
					return fmt.Errorf("out of order: got %v want %d", m.F[0], i)
				}
			}
		}
		return nil
	})
}

func TestTagIsolation(t *testing.T) {
	run(t, 2, true, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, Msg{F: []float64{1}, N: 1})
			c.Send(1, 2, Msg{F: []float64{2}, N: 1})
		} else {
			// Receive in reverse tag order.
			if m := c.Recv(0, 2); m.F[0] != 2 {
				return errors.New("tag 2 corrupted")
			}
			if m := c.Recv(0, 1); m.F[0] != 1 {
				return errors.New("tag 1 corrupted")
			}
		}
		return nil
	})
}

func TestVolumeCountingP2P(t *testing.T) {
	rep := run(t, 3, true, func(c *Comm) error {
		if c.Rank() == 0 {
			c.SetPhase("a")
			c.SendMat(1, 1, mat.New(4, 5)) // 20 elements
			c.SetPhase("b")
			c.Send(2, 2, Msg{I: []int{1, 2, 3}, N: 3}) // 3 elements
		}
		if c.Rank() == 1 {
			c.RecvMat(0, 1, mat.New(4, 5))
		}
		if c.Rank() == 2 {
			c.Recv(0, 2)
		}
		return nil
	})
	if got := rep.TotalBytes(); got != 23*8 {
		t.Fatalf("total bytes %d, want %d", got, 23*8)
	}
	if rep.Sent[0] != 23*8 || rep.Recv[1] != 20*8 || rep.Recv[2] != 3*8 {
		t.Fatalf("per-rank wrong: %v %v", rep.Sent, rep.Recv)
	}
	if rep.ByPhase["a"] != 160 || rep.ByPhase["b"] != 24 {
		t.Fatalf("phases wrong: %v", rep.ByPhase)
	}
}

// A batch is one transport operation booked as one message per part: two
// senders' batches must leave exactly the report that sending every part
// with SendMat and receiving them one by one leaves — in numeric and volume
// mode, under both executors.
func TestBatchBooksOneMessagePerPart(t *testing.T) {
	parts := [][]int{{4, 6, 4}, {2, 2}} // from ranks 1 and 2
	body := func(batched bool) RankFunc {
		return func(c *Comm) error {
			c.SetPhase("work")
			barrier(c) // timed traffic first, so the frozen clocks are not zero
			if c.Rank() == 2 {
				c.Send(1, 3, Msg{I: []int{1, 2, 3}, N: 3}) // and rank 1's runs ahead of rank 0's
			} else if c.Rank() == 1 {
				c.Recv(2, 3)
			}
			c.SetPhase(trace.PhaseCollect)
			if me := c.Rank(); me > 0 {
				mine := parts[me-1]
				var wire []float64
				if c.Payload() {
					n := 0
					for _, k := range mine {
						n += k
					}
					wire = mat.GetFloats(n)
					for i := range wire {
						wire[i] = float64(100*me + i)
					}
				}
				if batched {
					c.SendBatch(0, 1, mine, wire)
					return nil
				}
				off := 0
				for _, n := range mine {
					m := mat.NewPhantom(1, n)
					if wire != nil {
						m = mat.New(1, n)
						for j := 0; j < n; j++ {
							m.Set(0, j, float64(100*me+off+j))
						}
					}
					c.SendMat(0, 1, m)
					off += n
				}
				return nil
			}
			if !batched {
				for i, ps := range parts {
					for range ps {
						c.Recv(i+1, 1)
					}
				}
				return nil
			}
			unpacked := 0
			c.RecvBatches([]int{1, 2}, 1, parts, func(i int, wire []float64) {
				unpacked++
				for j, v := range wire {
					if v != float64(100*(i+1)+j) {
						t.Errorf("batch %d element %d = %v", i, j, v)
					}
				}
			})
			if want := map[bool]int{true: 2, false: 0}[c.Payload()]; unpacked != want {
				t.Errorf("unpack ran %d times, want %d", unpacked, want)
			}
			return nil
		}
	}
	for _, ex := range []Executor{ExecGoroutines, ExecEvents} {
		for _, payload := range []bool{true, false} {
			var reps [2]*trace.Report
			for i, batched := range []bool{false, true} {
				rep, err := Exec(context.Background(), Config{P: 3, Payload: payload, Executor: ex, Timeout: testTimeout}, body(batched))
				if err != nil {
					t.Fatal(err)
				}
				reps[i] = rep
			}
			if !reflect.DeepEqual(reps[0], reps[1]) {
				t.Errorf("%s payload=%v: reports differ:\nper part %+v\nbatched  %+v", ex, payload, reps[0], reps[1])
			}
			if got := reps[1].PhaseMsgs[trace.PhaseCollect]; got != 5 {
				t.Errorf("%s payload=%v: %d collect messages booked, want 5", ex, payload, got)
			}
		}
	}
}

// A received batch must carry exactly the part list the receiver expects —
// the batched counterpart of RecvMat's length check.
func TestRecvBatchesPartListMismatchPanics(t *testing.T) {
	_, err := Exec(context.Background(), Config{P: 2, Payload: true, Timeout: testTimeout}, func(c *Comm) error {
		c.SetPhase(trace.PhaseLayout)
		if c.Rank() == 0 {
			c.SendBatch(1, 0, []int{4, 4}, make([]float64, 8))
			return nil
		}
		c.RecvBatches([]int{0}, 0, [][]int{{4, 2, 2}}, func(int, []float64) {})
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "expected 3 parts, got a different list of 2") {
		t.Fatalf("want the part-list panic, got %v", err)
	}
}

func TestSelfSendNotMetered(t *testing.T) {
	rep := run(t, 1, true, func(c *Comm) error {
		c.SendMat(0, 7, mat.New(10, 10))
		c.RecvMat(0, 7, mat.New(10, 10))
		return nil
	})
	if rep.TotalBytes() != 0 {
		t.Fatalf("self traffic metered: %d", rep.TotalBytes())
	}
}

func TestBcastMatAllSizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 7, 8, 16} {
		for root := 0; root < p; root += max(1, p/3) {
			src := mat.Random(3, 3, 42)
			rep := run(t, p, true, func(c *Comm) error {
				m := mat.New(3, 3)
				if c.Rank() == root {
					m.CopyFrom(src)
				}
				c.BcastMat(root, m)
				if d := mat.MaxAbsDiff(m, src); d != 0 {
					return fmt.Errorf("rank %d wrong bcast (diff %v)", c.Rank(), d)
				}
				return nil
			})
			want := int64((p - 1) * 9 * 8)
			if rep.TotalBytes() != want {
				t.Fatalf("p=%d root=%d: volume %d want %d", p, root, rep.TotalBytes(), want)
			}
		}
	}
}

func TestBcastInts(t *testing.T) {
	run(t, 5, true, func(c *Comm) error {
		var ids []int
		if c.Rank() == 2 {
			ids = []int{4, 5, 6}
		}
		ids = c.BcastInts(2, ids)
		if len(ids) != 3 || ids[2] != 6 {
			return fmt.Errorf("rank %d got %v", c.Rank(), ids)
		}
		return nil
	})
}

func TestReduceMatSum(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		for root := 0; root < p; root += max(1, p-1) {
			rep := run(t, p, true, func(c *Comm) error {
				m := mat.New(2, 2)
				m.Set(0, 0, float64(c.Rank()+1))
				c.ReduceMatSum(root, m)
				if c.Rank() == root {
					want := float64(p*(p+1)) / 2
					if m.At(0, 0) != want {
						return fmt.Errorf("sum %v want %v", m.At(0, 0), want)
					}
				}
				return nil
			})
			want := int64((p - 1) * 4 * 8)
			if rep.TotalBytes() != want {
				t.Fatalf("p=%d root=%d: volume %d want %d", p, root, rep.TotalBytes(), want)
			}
		}
	}
}

func TestAllreduceMaxLoc(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 6, 8, 9} {
		run(t, p, true, func(c *Comm) error {
			in := MaxLoc{Val: float64(c.Rank()), Loc: c.Rank() * 10}
			if c.Rank() == p/2 {
				in.Val = -1000 // largest magnitude, negative
			}
			out := c.AllreduceMaxLoc(in)
			if out.Val != -1000 || out.Loc != (p/2)*10 {
				return fmt.Errorf("p=%d rank %d got %+v", p, c.Rank(), out)
			}
			return nil
		})
	}
}

func TestButterflyVolumePow2(t *testing.T) {
	p := 8
	rep := run(t, p, true, func(c *Comm) error {
		c.Butterfly(Msg{F: []float64{1}, N: 1}, func(a, b Msg) Msg {
			return Msg{F: []float64{a.F[0] + b.F[0]}, N: 1}
		})
		return nil
	})
	// log2(8)=3 rounds, every rank sends 1 element per round.
	want := int64(p * 3 * 8)
	if rep.TotalBytes() != want {
		t.Fatalf("volume %d want %d", rep.TotalBytes(), want)
	}
}

func TestButterflySumNonPow2(t *testing.T) {
	for _, p := range []int{3, 5, 6, 7, 12} {
		run(t, p, true, func(c *Comm) error {
			out := c.Butterfly(Msg{F: []float64{1}, N: 1}, func(a, b Msg) Msg {
				return Msg{F: []float64{a.F[0] + b.F[0]}, N: 1}
			})
			if out.F[0] != float64(p) {
				return fmt.Errorf("p=%d rank %d sum %v", p, c.Rank(), out.F[0])
			}
			return nil
		})
	}
}

// barrier is a butterfly of empty messages with a no-op combine: timed
// traffic of α per endpoint per round and no metered volume.
func barrier(c *Comm) {
	c.Butterfly(Msg{}, func(mine, _ Msg) Msg { return mine })
}

func TestBarrierZeroVolume(t *testing.T) {
	rep := run(t, 7, true, func(c *Comm) error {
		barrier(c)
		return nil
	})
	if rep.TotalBytes() != 0 {
		t.Fatalf("barrier metered %d bytes", rep.TotalBytes())
	}
}

func TestSubCommunicator(t *testing.T) {
	// 6 ranks → two row communicators {0,1,2} and {3,4,5}.
	run(t, 6, true, func(c *Comm) error {
		row := c.WorldRank() / 3
		members := []int{row * 3, row*3 + 1, row*3 + 2}
		rc := c.Sub(fmt.Sprintf("row%d", row), members)
		if rc.Size() != 3 || rc.WorldRank() != c.WorldRank() {
			return errors.New("bad sub comm")
		}
		m := mat.New(1, 1)
		if rc.Rank() == 0 {
			m.Set(0, 0, float64(row+1))
		}
		rc.BcastMat(0, m)
		if m.At(0, 0) != float64(row+1) {
			return fmt.Errorf("cross-communicator leak: rank %d got %v", c.WorldRank(), m.At(0, 0))
		}
		return nil
	})
}

func TestVolumeModeMatchesNumericVolume(t *testing.T) {
	// The central phantom-mode invariant: byte counts are identical.
	body := func(c *Comm) error {
		m := mat.New(4, 4)
		if !c.Payload() {
			m = mat.NewPhantom(4, 4)
		}
		c.BcastMat(0, m)
		c.ReduceMatSum(1, m)
		if c.Rank() == 0 {
			c.SendMat(2, 3, m.View(0, 0, 2, 2))
		}
		if c.Rank() == 2 {
			buf := mat.New(2, 2)
			if !c.Payload() {
				buf = mat.NewPhantom(2, 2)
			}
			c.RecvMat(0, 3, buf)
		}
		return nil
	}
	repN := run(t, 5, true, body)
	repV := run(t, 5, false, body)
	if repN.TotalBytes() != repV.TotalBytes() {
		t.Fatalf("numeric %d != volume %d", repN.TotalBytes(), repV.TotalBytes())
	}
	for r := 0; r < 5; r++ {
		if repN.Sent[r] != repV.Sent[r] {
			t.Fatalf("rank %d: %d != %d", r, repN.Sent[r], repV.Sent[r])
		}
	}
}

func TestRankErrorPropagates(t *testing.T) {
	_, err := Exec(context.Background(), Config{P: 3, Payload: true, Timeout: testTimeout}, func(c *Comm) error {
		if c.Rank() == 1 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
}

// TestRankPanicBecomesError: on either executor a rank's panic, with a plain
// value or an error value, is a one-line *PanicError that carries the rank
// and its stack, and an error value stays reachable through errors.Is. A
// panic with ErrAborted unwinds as ErrAborted itself.
func TestRankPanicBecomesError(t *testing.T) {
	errKaput := errors.New("kaput")
	for _, ex := range []Executor{ExecGoroutines, ExecEvents} {
		for _, v := range []any{"kaput", fmt.Errorf("wrapped: %w", errKaput)} {
			_, err := Exec(context.Background(), Config{P: 2, Payload: true, Executor: ex, Timeout: testTimeout}, func(c *Comm) error {
				if c.Rank() == 1 {
					panic(v)
				}
				return nil
			})
			var pe *PanicError
			if !errors.As(err, &pe) || pe.Rank != 1 || !strings.Contains(string(pe.Stack), "goroutine ") {
				t.Fatalf("%s, panic(%v): err = %#v, want a *PanicError of rank 1 with its stack", ex, v, err)
			}
			if msg := err.Error(); msg != "smpi: rank 1 panicked: "+fmt.Sprint(v) || strings.Contains(msg, "\n") {
				t.Fatalf("%s: error text %q, want one line", ex, msg)
			}
			if _, isErr := v.(error); isErr != errors.Is(err, errKaput) {
				t.Fatalf("%s, panic(%v): errors.Is(err, errKaput) = %v", ex, v, !isErr)
			}
		}
		_, err := Exec(context.Background(), Config{P: 2, Executor: ex, Timeout: testTimeout}, func(c *Comm) error {
			panic(ErrAborted)
		})
		if err != ErrAborted {
			t.Fatalf("%s: panic(ErrAborted) ran to %v, want ErrAborted", ex, err)
		}
	}
}

func TestFailureInjection(t *testing.T) {
	w := NewWorld(4, true)
	var budget int64 = 100 // fail all sends after 100 bytes total
	var sent int64
	w.FailSend = func(from, to int, bytes int64) error {
		if sent += bytes; sent > budget {
			return fmt.Errorf("link %d->%d failed (budget exhausted)", from, to)
		}
		return nil
	}
	_, err := Exec(context.Background(), Config{World: w}, func(c *Comm) error {
		m := mat.New(8, 8)
		c.BcastMat(0, m)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "failed") {
		t.Fatalf("expected injected failure, got %v", err)
	}
}

func TestDeadlockDetectedByTimeout(t *testing.T) {
	_, err := Exec(context.Background(), Config{P: 2, Payload: true, Timeout: 200 * time.Millisecond}, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Recv(1, 1) // never sent
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected timeout error, got %v", err)
	}
}

// TestCollectiveVolumeNonPowerOfTwo pins the collective accounting at the
// awkward communicator sizes the binomial trees must still meter exactly:
// BcastMat, ReduceMatSum, and BcastInts each move exactly (p-1)·len
// elements regardless of how the tree folds.
func TestCollectiveVolumeNonPowerOfTwo(t *testing.T) {
	const elems = 12 // 3x4 matrices and 12-int slices
	for _, p := range []int{3, 5, 6, 7} {
		cases := []struct {
			name string
			body RankFunc
		}{
			{"BcastMat", func(c *Comm) error {
				c.BcastMat(0, mat.New(3, 4))
				return nil
			}},
			{"ReduceMatSum", func(c *Comm) error {
				c.ReduceMatSum(0, mat.New(3, 4))
				return nil
			}},
			{"BcastInts", func(c *Comm) error {
				c.BcastInts(0, make([]int, elems))
				return nil
			}},
		}
		for _, tc := range cases {
			rep := run(t, p, true, tc.body)
			want := int64((p - 1) * elems * 8)
			if got := rep.TotalBytes(); got != want {
				t.Fatalf("%s p=%d: metered %d bytes, want (p-1)·len·8 = %d", tc.name, p, got, want)
			}
		}
	}
}

// TestSimulatedTimeBasics: sends advance the simulated clocks, barriers
// cost latency but no volume, and an idle world has zero makespan.
func TestSimulatedTimeBasics(t *testing.T) {
	rep := run(t, 3, true, func(c *Comm) error {
		barrier(c)
		return nil
	})
	if rep.TotalBytes() != 0 {
		t.Fatalf("barrier metered %d bytes", rep.TotalBytes())
	}
	if rep.Time.Makespan <= 0 {
		t.Fatal("barrier should cost α latency in simulated time")
	}
	idle := run(t, 3, true, func(c *Comm) error { return nil })
	if idle.Time.Makespan != 0 {
		t.Fatalf("idle world makespan %v", idle.Time.Makespan)
	}
}

// Property: tree-broadcast volume is exactly (p-1)·len·8 for any p, len.
func TestQuickBcastVolume(t *testing.T) {
	f := func(p8, len8 uint8) bool {
		p := int(p8%12) + 1
		n := int(len8%20) + 1
		rep, err := Exec(context.Background(), Config{P: p, Timeout: testTimeout}, func(c *Comm) error {
			c.BcastMat(0, mat.NewPhantom(1, n))
			return nil
		})
		if err != nil {
			return false
		}
		return rep.TotalBytes() == int64((p-1)*n*8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: butterfly sum equals p regardless of size.
func TestQuickButterflySum(t *testing.T) {
	f := func(p8 uint8) bool {
		p := int(p8%16) + 1
		ok := true
		_, err := Exec(context.Background(), Config{P: p, Payload: true, Timeout: testTimeout}, func(c *Comm) error {
			out := c.Butterfly(Msg{F: []float64{1}, N: 1}, func(a, b Msg) Msg {
				return Msg{F: []float64{a.F[0] + b.F[0]}, N: 1}
			})
			if out.F[0] != float64(p) {
				ok = false
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestMsgSize pins the wire unit at 88 bytes: the send index a recording
// timeline needs rides in the padding after the flags.
func TestMsgSize(t *testing.T) {
	if sz := unsafe.Sizeof(Msg{}); sz != 88 {
		t.Fatalf("Msg is %d bytes, want 88", sz)
	}
}

// TestRecordedWorldPrices records a world that mixes plain point-to-point
// traffic with a booked butterfly (AllreduceMaxLoc), whose booker records
// every participant's operations, and prices it under a second machine: the
// report must equal a live run's there.
func TestRecordedWorldPrices(t *testing.T) {
	const p = 6
	body := func(c *Comm) error {
		c.SetPhase("ring")
		me := c.Rank()
		for k := 0; k < 3; k++ {
			c.Send((me+1)%p, k, Msg{N: 8 * (me + k + 1)})
			c.Recv((me+p-1)%p, k)
		}
		c.SetPhase("pivot")
		c.AllreduceMaxLoc(MaxLoc{Val: float64(me), Loc: me})
		return nil
	}
	fast, slow := trace.Machine{Alpha: 1e-6, Beta: 1e-10}, trace.Machine{Alpha: 5e-6, Beta: 3e-9}
	w := NewWorldMachine(p, false, fast)
	w.Trace.Record()
	if _, err := Exec(context.Background(), Config{World: w}, body); err != nil {
		t.Fatal(err)
	}
	want, err := Exec(context.Background(), Config{World: NewWorldMachine(p, false, slow)}, body)
	if err != nil {
		t.Fatal(err)
	}
	want.Executor = ""
	if got, _ := w.Trace.Price(slow, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("priced %+v\nlive   %+v", got.Time, want.Time)
	}
}
