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

func TestEventsRecordMatchedDeliveries(t *testing.T) {
	tl := NewTimeline(2, Machine{Alpha: 1, Beta: 0.01})
	st := tl.RecordSend(0, 1, 100, "panel")
	tl.RecordRecv(0, 1, 100, "panel", st)
	ev := tl.Events()
	if len(ev) != 1 {
		t.Fatalf("events %d", len(ev))
	}
	e := ev[0]
	if e.From != 0 || e.To != 1 || e.Bytes != 100 || e.Phase != "panel" {
		t.Fatalf("event %+v", e)
	}
	if !almost(e.SendTime, 2) || !almost(e.RecvTime, 4) {
		t.Fatalf("event times %+v", e)
	}
}

func TestEventCap(t *testing.T) {
	tl := NewTimeline(2, Machine{})
	tl.SetEventCap(2)
	for i := 0; i < 5; i++ {
		st := tl.RecordSend(0, 1, 1, "p")
		tl.RecordRecv(0, 1, 1, "p", st)
	}
	if got := len(tl.Events()); got != 2 {
		t.Fatalf("retained %d events, cap 2", got)
	}
	if tl.EventsDropped() != 3 {
		t.Fatalf("dropped %d want 3", tl.EventsDropped())
	}
	// Aggregates are exact regardless of the cap.
	if tl.Report().TotalBytes() != 5 {
		t.Fatalf("bytes %d", tl.Report().TotalBytes())
	}
}

func TestReportParityWithEventReplay(t *testing.T) {
	// The volume aggregates derived from the timeline must equal an
	// independent replay of its matched events (every delivery in these
	// sequences is matched, so events are a complete record).
	tl := NewTimeline(4, DefaultMachine())
	type send struct {
		from, to int
		bytes    int64
		phase    string
	}
	seq := []send{
		{0, 1, 100, "a"}, {1, 2, 50, "b"}, {2, 3, 25, "a"},
		{3, 0, 10, "c"}, {0, 2, 5, "b"}, {1, 3, 1, "c"},
	}
	for _, s := range seq {
		st := tl.RecordSend(s.from, s.to, s.bytes, s.phase)
		tl.RecordRecv(s.from, s.to, s.bytes, s.phase, st)
	}
	got := tl.Report()

	replay := NewTimeline(4, DefaultMachine())
	for _, e := range tl.Events() {
		st := replay.RecordSend(e.From, e.To, e.Bytes, e.Phase)
		replay.RecordRecv(e.From, e.To, e.Bytes, e.Phase, st)
	}
	want := replay.Report()

	for r := 0; r < 4; r++ {
		if got.Sent[r] != want.Sent[r] || got.Recv[r] != want.Recv[r] || got.Msgs[r] != want.Msgs[r] {
			t.Fatalf("rank %d mismatch: %+v vs %+v", r, got, want)
		}
	}
	for ph, v := range want.ByPhase {
		if got.ByPhase[ph] != v {
			t.Fatalf("phase %s: %d vs %d", ph, got.ByPhase[ph], v)
		}
	}
}

func TestUntimedPhasesMeterButDontAdvanceClocks(t *testing.T) {
	tl := NewTimeline(2, Machine{Alpha: 1, Beta: 1})
	tl.ExcludeFromTiming("layout")
	st := tl.RecordSend(0, 1, 100, "layout")
	tl.RecordRecv(0, 1, 100, "layout", st)
	r := tl.Report()
	if r.TotalBytes() != 100 || r.Msgs[0] != 1 {
		t.Fatalf("untimed phase not metered: %d bytes", r.TotalBytes())
	}
	if r.Time.Makespan != 0 || r.Time.Clock[0] != 0 || r.Time.Clock[1] != 0 {
		t.Fatalf("untimed phase advanced clocks: %+v", r.Time)
	}
	if len(tl.Events()) != 1 {
		t.Fatalf("untimed phase lost its event")
	}
	// Timed traffic on the same timeline still advances.
	st = tl.RecordSend(0, 1, 1, "work")
	tl.RecordRecv(0, 1, 1, "work", st)
	if tl.Report().Time.Makespan == 0 {
		t.Fatal("timed phase did not advance clocks")
	}
}

// A batched booking is k single bookings in one call: same report, same
// retained events, bit for bit — with timed traffic before it so the frozen
// clocks are not simply zero, deliveries from two senders interleaved, and an
// event cap that cuts the batch short.
func TestBatchBookingEqualsSingles(t *testing.T) {
	sizes := []int64{128, 128, 8, 64}
	build := func(batched bool) *Timeline {
		tl := NewTimeline(3, Machine{Alpha: 1, Beta: 0.5})
		tl.ExcludeFromTiming("collect")
		tl.SetEventCap(6)
		tl.RecordRecv(1, 0, 16, "work", tl.RecordSend(1, 0, 16, "work"))
		tl.RecordSend(2, 1, 100, "work") // rank 2's clock (51) now sits ahead of rank 0's (18)
		if !batched {
			var parts []Delivery
			for _, b := range sizes {
				parts = append(parts,
					Delivery{From: 1, Bytes: b, SendTime: tl.RecordSend(1, 0, b, "collect")},
					Delivery{From: 2, Bytes: b, SendTime: tl.RecordSend(2, 0, b, "collect")})
			}
			for _, p := range parts {
				tl.RecordRecv(p.From, 0, p.Bytes, "collect", p.SendTime)
			}
			return tl
		}
		st1 := tl.RecordSendBatch(1, sizes, "collect")
		st2 := tl.RecordSendBatch(2, sizes, "collect")
		var parts []Delivery
		for _, b := range sizes {
			parts = append(parts, Delivery{From: 1, Bytes: b, SendTime: st1}, Delivery{From: 2, Bytes: b, SendTime: st2})
		}
		tl.RecordRecvBatch(0, "collect", parts)
		return tl
	}
	single, batch := build(false), build(true)
	if !reflect.DeepEqual(single.Report(), batch.Report()) {
		t.Fatalf("reports differ:\nsingle %+v\nbatch  %+v", single.Report(), batch.Report())
	}
	if !reflect.DeepEqual(single.Events(), batch.Events()) {
		t.Fatalf("events differ:\nsingle %+v\nbatch  %+v", single.Events(), batch.Events())
	}
	if got := batch.Report().PhaseMsgs["collect"]; got != int64(2*len(sizes)) {
		t.Fatalf("batch booked %d collect messages, want %d", got, 2*len(sizes))
	}
	// Events 1 and 2 are the first collect deliveries: rank 1's stamp is behind
	// the receiver's clock, rank 2's ahead of it and clamps the interval.
	if ev := batch.Events(); ev[1].RecvTime != 18 || ev[2].RecvTime != 51 {
		t.Fatalf("completion times %v and %v, want 18 and 51", ev[1].RecvTime, ev[2].RecvTime)
	}
	if n, d := len(batch.Events()), batch.EventsDropped(); n != 6 || d != 3 {
		t.Fatalf("cap 6 retained %d events and dropped %d, want 6 and 3", n, d)
	}
}

// In a timed phase the k-th message's stamp depends on the k−1 before it, so
// a batch cannot stand in for them: both bookings refuse, and leave the shard
// usable.
func TestBatchBookingInTimedPhasePanics(t *testing.T) {
	tl := NewTimeline(2, DefaultMachine())
	tl.ExcludeFromTiming("layout")
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
	mustPanic("recv", func() { tl.RecordRecvBatch(1, "work", []Delivery{{From: 0, Bytes: 8}}) })
	if r := tl.Report(); r.TotalBytes() != 0 || len(tl.Events()) != 0 {
		t.Fatalf("a refused batch was booked: %d bytes, %d events", r.TotalBytes(), len(tl.Events()))
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
	tl.ExcludeFromTiming("layout")
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
