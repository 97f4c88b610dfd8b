package trace

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-15 }

func TestClockRules(t *testing.T) {
	m := Machine{Alpha: 1, Beta: 0.01} // 1s latency, 0.01 s/byte: easy numbers
	tl := NewTimeline(2, m)

	// Rank 0 sends 100 bytes: clock0 = 1 + 1 = 2.
	st := tl.RecordSend(0, 1, 100, "p")
	if !almost(st, 2) {
		t.Fatalf("send time %v want 2", st)
	}
	// Rank 1 (clock 0) matches: jump to 2 (wait 2), then +2 busy → 4.
	tl.RecordRecv(0, 1, 100, "p", st)

	r := tl.Report()
	if !almost(r.Time.Clock[0], 2) || !almost(r.Time.Clock[1], 4) {
		t.Fatalf("clocks %v", r.Time.Clock)
	}
	if !almost(r.Time.Wait[1], 2) || !almost(r.Time.Busy[1], 2) {
		t.Fatalf("busy/wait: %v / %v", r.Time.Busy, r.Time.Wait)
	}
	if r.Time.CritRank != 1 || !almost(r.Time.Makespan, 4) {
		t.Fatalf("makespan %v on rank %d", r.Time.Makespan, r.Time.CritRank)
	}
	// Makespan = CritBusy + CritWait.
	if !almost(r.Time.CritBusy()+r.Time.CritWait(), r.Time.Makespan) {
		t.Fatalf("busy %v + wait %v != makespan %v",
			r.Time.CritBusy(), r.Time.CritWait(), r.Time.Makespan)
	}
}

func TestNoWaitWhenReceiverIsLate(t *testing.T) {
	m := Machine{Alpha: 1, Beta: 0}
	tl := NewTimeline(2, m)
	st := tl.RecordSend(0, 1, 10, "p") // clock0 = 1
	// Rank 1 does two sends first: clock1 = 2 > sendTime 1 → no wait.
	tl.RecordSend(1, 0, 10, "q")
	tl.RecordSend(1, 0, 10, "q")
	tl.RecordRecv(0, 1, 10, "p", st) // clock1 = 3
	r := tl.Report()
	if r.Time.Wait[1] != 0 {
		t.Fatalf("late receiver accrued wait %v", r.Time.Wait[1])
	}
	if !almost(r.Time.Clock[1], 3) {
		t.Fatalf("clock1 %v want 3", r.Time.Clock[1])
	}
}

func TestReportParityWithEventReplay(t *testing.T) {
	// The volume aggregates derived from the timeline must equal an
	// independent tally of its deliveries, and its recorded schedule, priced
	// under the same machine, must give back the live report bit for bit.
	tl := NewTimeline(4, DefaultMachine())
	tl.Record()
	type send struct {
		from, to int
		bytes    int64
		phase    string
	}
	seq := []send{
		{0, 1, 96, "a"}, {1, 2, 48, "b"}, {2, 3, 24, "a"},
		{3, 0, 8, "c"}, {0, 2, 8, "b"}, {1, 3, 16, "c"},
	}
	sent, recv, msgs := make([]int64, 4), make([]int64, 4), make([]int64, 4)
	byPhase := map[string]int64{}
	for _, s := range seq {
		tl.Recv(s.from, s.to, s.bytes, s.phase, tl.Send(s.from, s.to, s.bytes, s.phase))
		sent[s.from] += s.bytes
		recv[s.to] += s.bytes
		msgs[s.from]++
		byPhase[s.phase] += s.bytes
	}
	got := tl.Report()
	if !reflect.DeepEqual(got.Sent, sent) || !reflect.DeepEqual(got.Recv, recv) || !reflect.DeepEqual(got.Msgs, msgs) {
		t.Fatalf("per-rank sent/recv/msgs %v/%v/%v, tally %v/%v/%v", got.Sent, got.Recv, got.Msgs, sent, recv, msgs)
	}
	if !reflect.DeepEqual(got.ByPhase, byPhase) {
		t.Fatalf("phases %v, tally %v", got.ByPhase, byPhase)
	}
	if priced, _ := tl.Price(DefaultMachine(), nil); !reflect.DeepEqual(priced, got) {
		t.Fatalf("priced schedule %+v, live %+v", priced.Time, got.Time)
	}
}

func TestUntimedPhasesMeterButDontAdvanceClocks(t *testing.T) {
	tl := NewTimeline(2, Machine{Alpha: 1, Beta: 1})
	st := tl.RecordSend(0, 1, 100, "layout")
	tl.RecordRecv(0, 1, 100, "layout", st)
	r := tl.Report()
	if r.TotalBytes() != 100 || r.Msgs[0] != 1 {
		t.Fatalf("untimed phase not metered: %d bytes", r.TotalBytes())
	}
	if r.Time.Makespan != 0 || r.Time.Clock[0] != 0 || r.Time.Clock[1] != 0 {
		t.Fatalf("untimed phase advanced clocks: %+v", r.Time)
	}
	// Timed traffic on the same timeline still advances.
	st = tl.RecordSend(0, 1, 1, "work")
	tl.RecordRecv(0, 1, 1, "work", st)
	if tl.Report().Time.Makespan == 0 {
		t.Fatal("timed phase did not advance clocks")
	}
}

// The housekeeping rule is the timeline's own: on a bare timeline, traffic
// under PhaseLayout or PhaseCollect is metered and moves no clock, and every
// other label moves both ends' clocks — "housekeeping" and labels that merely
// contain a housekeeping one included.
func TestOnlyHousekeepingPhasesAreUntimed(t *testing.T) {
	for _, tc := range []struct {
		phase string
		timed bool
	}{
		{PhaseLayout, false}, {PhaseCollect, false},
		{"housekeeping", true}, {"work", true}, {"solve.layout", true}, {"", true},
	} {
		tl := NewTimeline(2, Machine{Alpha: 1, Beta: 1})
		tl.RecordRecv(0, 1, 8, tc.phase, tl.RecordSend(0, 1, 8, tc.phase))
		r := tl.Report()
		if r.ByPhase[tc.phase] != 8 || r.Msgs[0] != 1 {
			t.Fatalf("%q: not metered: %v", tc.phase, r.ByPhase)
		}
		moved := r.Time.Clock[0] > 0 && r.Time.Clock[1] > 0
		if moved != tc.timed || (r.Time.Makespan > 0) != tc.timed {
			t.Fatalf("%q: clocks %v, makespan %v; want timed=%v", tc.phase, r.Time.Clock, r.Time.Makespan, tc.timed)
		}
	}
}

// A batched booking is k single bookings in one call: the same report, bit
// for bit, with timed traffic before it so the frozen clocks are not simply
// zero and deliveries from two senders.
func TestBatchBookingEqualsSingles(t *testing.T) {
	sizes := []int64{128, 128, 8, 64}
	build := func(batched bool) *Timeline {
		tl := NewTimeline(3, Machine{Alpha: 1, Beta: 0.5})
		tl.RecordRecv(1, 0, 16, "work", tl.RecordSend(1, 0, 16, "work"))
		tl.RecordSend(2, 1, 100, "work")
		if !batched {
			for _, b := range sizes {
				for _, from := range []int{1, 2} {
					tl.RecordRecv(from, 0, b, "collect", tl.RecordSend(from, 0, b, "collect"))
				}
			}
			return tl
		}
		tl.RecordSendBatch(1, sizes, "collect")
		tl.RecordSendBatch(2, sizes, "collect")
		tl.RecordRecvBatch(0, 2*(128+128+8+64), "collect")
		return tl
	}
	single, batch := build(false), build(true)
	if !reflect.DeepEqual(single.Report(), batch.Report()) {
		t.Fatalf("reports differ:\nsingle %+v\nbatch  %+v", single.Report(), batch.Report())
	}
	if got := batch.Report().PhaseMsgs["collect"]; got != int64(2*len(sizes)) {
		t.Fatalf("batch booked %d collect messages, want %d", got, 2*len(sizes))
	}
}

// In a timed phase the k-th message's stamp depends on the k−1 before it, so
// a batch cannot stand in for them: both bookings refuse, and leave the shard
// usable.
func TestBatchBookingInTimedPhasePanics(t *testing.T) {
	tl := NewTimeline(2, DefaultMachine())
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if rec := recover(); rec != errTimedBatch {
				t.Fatalf("%s: panic %v, want %q", name, rec, errTimedBatch)
			}
		}()
		fn()
	}
	mustPanic("send", func() { tl.RecordSendBatch(0, []int64{8, 8}, "work") })
	mustPanic("recv", func() { tl.RecordRecvBatch(1, 8, "work") })
	if r := tl.Report(); r.TotalBytes() != 0 || r.Recv[1] != 0 {
		t.Fatalf("a refused batch was booked: %d bytes sent, %d received", r.TotalBytes(), r.Recv[1])
	}
	tl.RecordSendBatch(0, []int64{8, 8}, "layout") // the shard stays usable
}

func TestMakespanMonotoneInAlphaBeta(t *testing.T) {
	run := func(m Machine) float64 {
		tl := NewTimeline(2, m)
		for i := 0; i < 3; i++ {
			st := tl.RecordSend(0, 1, 100, "p")
			tl.RecordRecv(0, 1, 100, "p", st)
		}
		return tl.Report().Time.Makespan
	}
	base := run(Machine{Alpha: 1e-6, Beta: 1e-9})
	if up := run(Machine{Alpha: 2e-6, Beta: 1e-9}); up <= base {
		t.Fatalf("makespan not increasing in alpha: %v -> %v", base, up)
	}
	if up := run(Machine{Alpha: 1e-6, Beta: 2e-9}); up <= base {
		t.Fatalf("makespan not increasing in beta: %v -> %v", base, up)
	}
}

func TestMachineTime(t *testing.T) {
	m := Machine{Alpha: 2, Beta: 0.5}
	if got := m.Time(10, 3); !almost(got, 3*2+10*0.5) {
		t.Fatalf("Time = %v", got)
	}
}

func TestTimedMsgsExcludeUntimedPhases(t *testing.T) {
	tl := NewTimeline(2, Machine{Alpha: 1, Beta: 0})
	tl.RecordSend(0, 1, 8, "layout")
	st := tl.RecordSend(0, 1, 8, "work")
	tl.RecordRecv(0, 1, 8, "work", st)
	tr := tl.Report().Time
	if tr.Msgs[0] != 1 {
		t.Fatalf("timed msgs %v, want layout send excluded", tr.Msgs)
	}
	if tr.MaxRankMsgs() != 1 {
		t.Fatalf("max timed msgs %d", tr.MaxRankMsgs())
	}
}

func TestTimeReportString(t *testing.T) {
	tl := NewTimeline(2, Machine{Alpha: 1, Beta: 0})
	st := tl.RecordSend(0, 1, 8, "pivot")
	tl.RecordRecv(0, 1, 8, "pivot", st)
	s := tl.Report().Time.String()
	if !strings.Contains(s, "pivot") || !strings.Contains(s, "makespan") {
		t.Fatalf("string: %q", s)
	}
}
