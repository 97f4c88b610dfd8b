package smpi

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/mat"
	"repro/internal/topo"
	"repro/internal/trace"
)

// refSwapRows is the message-by-message exchange SwapRows books: one
// ping-pong per part, the lead sending first, the follower receiving into a
// buffer so its send still carries its old values.
func refSwapRows(c *Comm, peer, tag int, lead bool, row *mat.Matrix, parts []int) {
	x := 0
	for _, n := range parts {
		seg := row.View(0, x, 1, n)
		if lead {
			c.SendMat(peer, tag, seg)
			c.RecvMat(peer, tag, seg)
		} else {
			buf := mat.NewPhantom(1, n)
			if c.Payload() {
				buf = mat.New(1, n)
			}
			c.RecvMat(peer, tag, buf)
			c.SendMat(peer, tag, seg)
			seg.CopyFrom(buf)
		}
		x += n
	}
}

// refAllreduceMaxLoc is the butterfly AllreduceMaxLoc books, message by
// message: a 16-byte (value, location) message per exchange, combined with
// the same operand order.
func refAllreduceMaxLoc(c *Comm, in MaxLoc) MaxLoc {
	enc := func(m MaxLoc) Msg { return Msg{F: []float64{m.Val}, I: []int{m.Loc}, N: 2} }
	dec := func(msg Msg) MaxLoc { return MaxLoc{Val: msg.F[0], Loc: msg.I[0]} }
	return dec(c.Butterfly(enc(in), func(mine, theirs Msg) Msg {
		return enc(combineMaxLoc(dec(mine), dec(theirs)))
	}))
}

// exchanges selects the booked runtime calls or their references.
type exchanges struct {
	swap    func(c *Comm, peer, tag int, lead bool, row *mat.Matrix, parts []int)
	maxLoc  func(c *Comm, in MaxLoc) MaxLoc
	variant string
}

var (
	booked    = exchanges{(*Comm).SwapRows, (*Comm).AllreduceMaxLoc, "booked"}
	reference = exchanges{refSwapRows, refAllreduceMaxLoc, "reference"}
)

// faultedTopology is dragonfly-contended (four ranks per node) with a
// straggler and a degraded inter-node link, for a p-rank world.
func faultedTopology(t testing.TB, preset string, p int) trace.Topology {
	t.Helper()
	spec, err := topo.PresetSpec(preset)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := topo.BuildFaulted(spec, trace.DefaultMachine(), p, topo.FaultPlan{
		Links:      []topo.LinkFault{{FromNode: 0, ToNode: 1, Factor: 8}},
		Stragglers: []topo.Straggler{{Rank: 1, Factor: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// checkSwapped checks rank me's row after swapping its last `total`
// columns with peer's: rows start out as 100·rank + column.
func checkSwapped(row *mat.Matrix, me, peer, total int) error {
	for j := 0; j < row.Cols; j++ {
		owner := me
		if j >= row.Cols-total {
			owner = peer
		}
		if got, want := row.At(0, j), float64(100*owner+j); got != want {
			return fmt.Errorf("column %d holds %v, want %v", j, got, want)
		}
	}
	return nil
}

// outcome is everything a run leaves behind that the booked exchange must
// reproduce: the recorded schedule (on the run's timeline), the report
// (clocks included) and, per world rank, the MaxLoc results.
type outcome struct {
	tl     *trace.Timeline
	report *trace.Report
	maxes  [][]MaxLoc
}

// runExchanges runs one communication-dense program of pivot searches and
// row swaps — on the world communicator, on a sub-communicator whose rank 0
// is not world rank 0, with ragged part lists, with either side arriving
// first — on a world that records its schedule under topology tp.
func runExchanges(t *testing.T, x exchanges, p int, payload bool, tp trace.Topology, cfg Config) outcome {
	t.Helper()
	w := NewWorld(p, payload)
	w.Trace.SetTopology(tp)
	w.Trace.Record()
	cfg.World = w
	cfg.Timeout = testTimeout
	maxes := make([][]MaxLoc, p)
	_, err := Exec(context.Background(), cfg, func(c *Comm) error {
		me := c.Rank()
		// Per-rank labels: every message must carry its own sender's.
		c.SetPhase(fmt.Sprintf("search%d", me%2))
		in := MaxLoc{Val: float64((me*7)%5) - 2, Loc: me} // ties and negative values
		if me%4 == 3 {
			in.Loc = -1 // no candidate
		}
		maxes[me] = append(maxes[me], x.maxLoc(c, in))
		var odd []int
		for r := 1; r < p; r += 2 {
			odd = append(odd, r)
		}
		if me%2 == 1 {
			sub := c.Sub("odd", odd)
			maxes[me] = append(maxes[me], x.maxLoc(sub, MaxLoc{Val: float64(me % 3), Loc: 10 * me}))
		}
		c.SetPhase(fmt.Sprintf("swap%d", me%3))
		peer := p - 1 - me // the middle rank of an odd world sits out
		for i, parts := range [][]int{{3, 1, 4, 1, 5}, {2, 7}, {6}} {
			if peer == me {
				break
			}
			lead := (me < peer) == (i%2 == 0)
			// Force the arrival order: the early side sends first, the late
			// side waits for it. Even rounds: lead first; odd: follower.
			if early := lead == (i%2 == 0); early {
				c.Send(peer, 900+i, Msg{N: 1})
			} else {
				c.Recv(peer, 900+i)
			}
			const cols = 14
			row := mat.NewPhantom(1, cols)
			if payload {
				row = mat.New(1, cols)
				for j := range cols {
					row.Set(0, j, float64(100*me+j))
				}
			}
			total := 0
			for _, n := range parts {
				total += n
			}
			// A view of the row's tail: the exchange must touch exactly it.
			x.swap(c, peer, 2*i, lead, row.View(0, cols-total, 1, total), parts)
			if payload {
				if err := checkSwapped(row, me, peer, total); err != nil {
					return fmt.Errorf("rank %d swap %d: %v", me, i, err)
				}
			}
		}
		barrier(c)
		return nil
	})
	if err != nil {
		t.Fatalf("%s p=%d %s: %v", x.variant, p, abortConfigName(cfg), err)
	}
	return outcome{tl: w.Trace, report: w.Trace.Report(), maxes: maxes}
}

// TestBookedExchangesMatchReference is the equivalence claim behind the
// rendezvous: SwapRows and the booked AllreduceMaxLoc record the schedule —
// every timed delivery's peer, size, phase and matched send, in each rank's
// program order — that the message-by-message exchanges they replace record,
// leave every rank's clock and the whole report bit-identical to theirs, and
// move the same data — at every
// communicator size up to 17 (powers of two and not), under both executors
// and at event-window widths 1, 2 and P, on a contended, faulted network.
func TestBookedExchangesMatchReference(t *testing.T) {
	for p := 1; p <= 17; p++ {
		tp := faultedTopology(t, "dragonfly-contended", p)
		for _, payload := range []bool{true, false} {
			if !payload && p%4 != 1 {
				continue // volume mode shares the schedule; spot-check it
			}
			want := runExchanges(t, reference, p, payload, tp, Config{})
			for _, cfg := range []Config{{}, {Executor: ExecEvents}, {Executor: ExecEvents, Workers: 2}, {Executor: ExecEvents, Workers: p}} {
				name := fmt.Sprintf("p=%d payload=%v %s", p, payload, abortConfigName(cfg))
				got := runExchanges(t, booked, p, payload, tp, cfg)
				if want.tl.ScheduleBytes() == 0 && p > 1 {
					t.Fatalf("%s: the reference recorded no schedule", name)
				}
				if d := got.tl.ScheduleDiff(want.tl); d != "" {
					t.Fatalf("%s: schedules differ: %s", name, d)
				}
				if err := reportsEqual(want.report, got.report); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !reflect.DeepEqual(got.maxes, want.maxes) {
					t.Fatalf("%s: MaxLoc results %v, reference %v", name, got.maxes, want.maxes)
				}
			}
		}
	}
}

// recordPanic re-raises a rank's panic after noting its value, so a test can
// see how every rank unwound.
func recordPanic(vals []any, rank int) {
	if rec := recover(); rec != nil {
		vals[rank] = rec
		panic(rec)
	}
}

// TestBookedExchangeFailurePaths refuses the k-th message of a SwapRows (lead
// side and follower side) and of a booked AllreduceMaxLoc (the booker's own
// send and a member's), and cancels the run while a follower is parked on its
// hand-off. Under each executor the run must return the injected error (or
// ErrCanceled), every other rank must unwind with ErrAborted, the stranded
// pooled wire buffer must come back and no goroutine may stay behind.
func TestBookedExchangeFailurePaths(t *testing.T) {
	injected := errors.New("injected link failure")
	for _, cfg := range abortConfigs() {
		name := abortConfigName(cfg)
		baseline := runtime.NumGoroutine()
		check := func(step string, w *World, vals []any, failer int) {
			t.Helper()
			for r, v := range vals {
				if r == failer {
					if err, ok := v.(error); !ok || !errors.Is(err, injected) {
						t.Fatalf("%s %s: refusing rank %d unwound with %v", name, step, r, v)
					}
				} else if v != ErrAborted {
					t.Fatalf("%s %s: rank %d unwound with %v, want ErrAborted", name, step, r, v)
				}
			}
			if w.reclaimed.bufs != 1 {
				t.Fatalf("%s %s: reclaimed %d pooled buffers, want 1", name, step, w.reclaimed.bufs)
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
		// refuse makes FailSend refuse the k-th exchange message (the
		// stranded send, which skip recognizes, is not counted) and records
		// its sender. Every counted call comes from the booking rank.
		refuse := func(w *World, k int, skip func(from, to int) bool, failer *int) {
			n := 0
			w.FailSend = func(from, to int, _ int64) error {
				if skip(from, to) {
					return nil
				}
				if n++; n == k {
					*failer = from
					return injected
				}
				return nil
			}
		}

		// SwapRows between ranks 0 (lead) and 1: messages alternate lead,
		// follower, lead, ...; rank 2 holds a stranded pooled buffer and
		// waits for a message that never comes.
		for k := 1; k <= 4; k++ {
			w := NewWorld(3, true)
			cfg.World = w
			failer := -1
			refuse(w, k, func(_, to int) bool { return to == 2 }, &failer)
			vals := make([]any, 3)
			_, err := Exec(context.Background(), cfg, func(c *Comm) error {
				defer recordPanic(vals, c.Rank())
				switch c.Rank() {
				case 2:
					c.Recv(0, 99)
				default:
					if c.Rank() == 0 {
						c.SendMat(2, 5, mat.New(2, 2)) // tag 5 is never received
					}
					c.SwapRows(1-c.Rank(), 0, c.Rank() == 0, mat.New(1, 6), []int{2, 1, 3})
				}
				return nil
			})
			step := fmt.Sprintf("swap k=%d", k)
			if !errors.Is(err, injected) || failer != (k-1)%2 {
				t.Fatalf("%s %s: Exec returned %v (refused rank %d)", name, step, err, failer)
			}
			check(step, w, vals, failer)
		}

		// AllreduceMaxLoc over world ranks 1..5 (booker: world rank 1). In
		// booking order, message 1 is the fold-in from the tail member, 2
		// the booker's own first send, 9 a member's last round, 10 the
		// booker's fan-out. World rank 0 holds the stranded buffer.
		for _, k := range []int{1, 2, 9, 10} {
			w := NewWorld(6, true)
			cfg.World = w
			failer := -1
			refuse(w, k, func(from, _ int) bool { return from == 0 }, &failer)
			vals := make([]any, 6)
			_, err := Exec(context.Background(), cfg, func(c *Comm) error {
				defer recordPanic(vals, c.Rank())
				if c.Rank() == 0 {
					c.SendMat(1, 5, mat.New(2, 2))
					c.Recv(1, 99)
					return nil
				}
				c.Sub("members", []int{1, 2, 3, 4, 5}).AllreduceMaxLoc(MaxLoc{Val: float64(c.Rank()), Loc: c.Rank()})
				return nil
			})
			step := fmt.Sprintf("maxloc k=%d", k)
			if !errors.Is(err, injected) || failer < 1 {
				t.Fatalf("%s %s: Exec returned %v (refused rank %d)", name, step, err, failer)
			}
			if k == 2 && failer != 1 {
				t.Fatalf("%s %s: message 2 is the booker's, refused on rank %d", name, step, failer)
			}
			check(step, w, vals, failer)
		}

		// Cancel while the follower (rank 1) is parked on its hand-off: the
		// lead is blocked elsewhere, rank 2 cancels once the deposit is in
		// and the follower has parked.
		w := NewWorld(3, true)
		cfg.World = w
		ctx, cancel := context.WithCancel(context.Background())
		vals := make([]any, 3)
		_, err := Exec(ctx, cfg, func(c *Comm) error {
			defer recordPanic(vals, c.Rank())
			switch c.Rank() {
			case 0:
				c.SendMat(2, 5, mat.New(2, 2))
				c.Recv(2, 99)
			case 1:
				c.SwapRows(0, 0, false, mat.New(1, 4), []int{4})
			case 2:
				for !parkedAfterDeposit(w, 1, 0) {
					runtime.Gosched()
				}
				cancel()
				c.Recv(0, 99)
			}
			return nil
		})
		cancel()
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("%s cancel: got %v, want ErrCanceled wrapping context.Canceled", name, err)
		}
		check("cancel", w, vals, -1)
	}
}

// parkedAfterDeposit reports whether world rank r has deposited with booker
// b and parked.
func parkedAfterDeposit(w *World, r, b int) bool {
	mb, own := w.boxes[b], w.boxes[r]
	mb.mu.Lock()
	deposited := slices.ContainsFunc(mb.pend, func(e pending) bool { return e.key.src == r })
	mb.mu.Unlock()
	own.mu.Lock()
	defer own.mu.Unlock()
	return deposited && own.waiting
}
