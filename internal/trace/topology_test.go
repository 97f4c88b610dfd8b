package trace

import (
	"reflect"
	"testing"
)

// flatStub evaluates the identical float expression the plain timeline
// uses, so a timeline with it installed must be bit-identical to one
// without any topology.
type flatStub struct{ m Machine }

func (f flatStub) Name() string                               { return "flat-stub" }
func (f flatStub) SendCost(from, to int, bytes int64) float64 { return f.m.Time(float64(bytes), 1) }
func (f flatStub) RecvCost(from, to int, bytes int64) (float64, float64) {
	return 0, f.m.Time(float64(bytes), 1)
}

// contendedStub charges a fixed cost per message and serializes the
// receiver's ingress link at occ seconds per delivery.
type contendedStub struct{ cost, occ float64 }

func (c contendedStub) Name() string                               { return "contended-stub" }
func (c contendedStub) SendCost(from, to int, bytes int64) float64 { return c.cost }
func (c contendedStub) RecvCost(from, to int, bytes int64) (float64, float64) {
	return c.occ, c.cost
}

// TestFlatTopologyBitParity drives the same message script through a
// plain timeline and one with a flat topology installed; every derived
// number must be bit-identical, and only the provenance stamp differs.
func TestFlatTopologyBitParity(t *testing.T) {
	m := Machine{Alpha: 1.3e-6, Beta: 2.7e-10}
	script := func(tl *Timeline) {
		st := tl.RecordSend(0, 1, 4096, "pivot")
		tl.RecordRecv(0, 1, 4096, "pivot", st)
		st = tl.RecordSend(1, 2, 123, "update")
		tl.RecordRecv(1, 2, 123, "update", st)
		st = tl.RecordSend(2, 0, 999, "update")
		tl.RecordRecv(2, 0, 999, "update", st)
		st = tl.RecordSend(2, 1, 77, "pivot")
		tl.RecordRecv(2, 1, 77, "pivot", st)
	}
	plain := NewTimeline(3, m)
	script(plain)
	flat := NewTimeline(3, m)
	flat.SetTopology(flatStub{m})
	script(flat)
	pr, fr := plain.Report(), flat.Report()
	if fr.Time.Topology != "flat-stub" {
		t.Fatalf("topology stamp %q, want flat-stub", fr.Time.Topology)
	}
	if pr.Time.Topology != "" {
		t.Fatalf("plain run stamped a topology: %q", pr.Time.Topology)
	}
	fr.Time.Topology = ""
	if !reflect.DeepEqual(pr, fr) {
		t.Fatalf("flat topology is not bit-identical to the plain machine:\nplain %+v\nflat  %+v", pr, fr)
	}
}

// TestIngressLinkFIFO pins the contention charging rule: deliveries
// matched by one rank serialize on its ingress link in matching order,
// and the serialization shows up as wait, not busy time.
func TestIngressLinkFIFO(t *testing.T) {
	tl := NewTimeline(3, Machine{})
	tl.SetTopology(contendedStub{cost: 1, occ: 10})
	// Two sends arrive at rank 2 "instantly" (zero-cost machine clocks on
	// ranks 0/1 → both send stamps are 1·cost after their sends).
	st0 := tl.RecordSend(0, 2, 100, "pivot")
	st1 := tl.RecordSend(1, 2, 100, "pivot")
	// Rank 2 matches rank 0's delivery first, then rank 1's.
	tl.RecordRecv(0, 2, 100, "pivot", st0)
	mid := tl.Clock(2)
	tl.RecordRecv(1, 2, 100, "pivot", st1)
	// First delivery: start = max(0, st0=1) = 1 (link idle, occupies
	// [1, 11)), then +1 recv cost → clock 2.
	if mid != 2 {
		t.Fatalf("first delivery finished at %v, want 2", mid)
	}
	// Second delivery: in flight at st1=1, receiver free at 2, but the
	// link is busy until 11 → start 11, +1 recv cost → clock 12.
	if got := tl.Clock(2); got != 12 {
		t.Fatalf("second delivery finished at %v, want 12 (FIFO link grant)", got)
	}
	rep := tl.Report()
	// Wait on rank 2: (1-0) for the first message's flight + (11-2) for
	// the link. Busy: two 1-second receptions.
	if got := rep.Time.Wait[2]; got != 10 {
		t.Fatalf("rank 2 wait %v, want 10", got)
	}
	if got := rep.Time.Busy[2]; got != 2 {
		t.Fatalf("rank 2 busy %v, want 2", got)
	}
	// Other ranks' links are independent: a delivery matched by rank 0
	// sees an idle link even though rank 2's is saturated.
	st2 := tl.RecordSend(1, 0, 100, "pivot")
	tl.RecordRecv(1, 0, 100, "pivot", st2)
	if got := tl.Clock(0); got != st2+1 {
		t.Fatalf("rank 0 delivery finished at %v, want %v (own idle link)", got, st2+1)
	}
}
