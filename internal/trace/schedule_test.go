package trace

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestOpIs12Bytes pins the recorded schedule's footprint: 12 bytes per
// operation, so 24 per timed delivery.
func TestOpIs12Bytes(t *testing.T) {
	if sz := unsafe.Sizeof(op{}); sz != 12 {
		t.Fatalf("op is %d bytes, want 12", sz)
	}
}

// TestPriceMatchesLiveRun runs the concurrent stress schedule once,
// recording, under each of three machines, prices every recording under
// every machine, and requires the priced report to equal a live run's under
// that machine field for field — clocks, busy and wait bit for bit, the
// contended link state included.
func TestPriceMatchesLiveRun(t *testing.T) {
	const p, rounds = 8, 48
	type machine struct {
		m  Machine
		tp Topology
	}
	machines := []machine{
		{DefaultMachine(), nil},
		{Machine{Alpha: 3e-6, Beta: 7e-10}, flatStub{Machine{Alpha: 3e-6, Beta: 7e-10}}},
		{DefaultMachine(), contendedStub{cost: 1e-6, occ: 5e-6}},
	}
	run := func(mc machine, record bool) *Timeline {
		tl := NewTimeline(p, mc.m)
		tl.SetTopology(mc.tp)
		if record {
			tl.Record()
		}
		runStressSchedule(tl, p, rounds, true)
		return tl
	}
	live := make([]*Report, len(machines))
	for i, mc := range machines {
		live[i] = run(mc, false).Report()
	}
	for i, rec := range machines {
		tl := run(rec, true)
		if got := tl.Report(); !reflect.DeepEqual(got, live[i]) {
			t.Fatalf("recording changed the live report under machine %d", i)
		}
		var timed int64
		for _, n := range live[i].Time.Msgs {
			timed += n
		}
		if got := tl.ScheduleBytes(); got != 24*timed || timed == 0 {
			t.Fatalf("schedule holds %d bytes for %d timed deliveries, want 24 each", got, timed)
		}
		for j, mc := range machines {
			if got, _ := tl.Price(mc.m, mc.tp); !reflect.DeepEqual(got, live[j]) {
				t.Fatalf("recorded under machine %d, priced under %d:\n got %+v\nwant %+v", i, j, got.Time, live[j].Time)
			}
		}
	}
}

// TestPriceRequiresRecording: pricing a timeline that kept no schedule is a
// programming error, and so is a timed receive on a recording timeline that
// does not name its send.
func TestPriceRequiresRecording(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("price", func() { NewTimeline(2, DefaultMachine()).Price(DefaultMachine(), nil) })
	tl := NewTimeline(2, DefaultMachine())
	tl.Record()
	mustPanic("unindexed receive", func() { tl.RecordRecv(0, 1, 8, "p", tl.RecordSend(0, 1, 8, "p")) })
	mustPanic("partial element", func() { tl.Send(0, 1, 12, "p") })
}

// TestScheduleDiff: two recordings of one program agree, and a receive order
// swapped on one rank, or a send relabelled, is reported at the first
// operation it moves.
func TestScheduleDiff(t *testing.T) {
	run := func(swap bool, phase string) *Timeline {
		tl := NewTimeline(3, DefaultMachine())
		tl.Record()
		a, b := tl.Send(1, 0, 8, "p"), tl.Send(2, 0, 16, phase)
		if swap {
			tl.Recv(2, 0, 16, phase, b)
			tl.Recv(1, 0, 8, "p", a)
		} else {
			tl.Recv(1, 0, 8, "p", a)
			tl.Recv(2, 0, 16, phase, b)
		}
		return tl
	}
	want := run(false, "p")
	if d := run(false, "p").ScheduleDiff(want); d != "" {
		t.Fatalf("identical programs differ: %s", d)
	}
	if d := run(true, "p").ScheduleDiff(want); d != `rank 0 operation 0: recv from 2 of its send 0 in "p" vs recv from 1 of its send 0 in "p"` {
		t.Fatalf("swapped receives: %q", d)
	}
	if d := run(false, "q").ScheduleDiff(want); d != `rank 0 operation 1: recv from 2 of its send 0 in "q" vs recv from 2 of its send 0 in "p"` {
		t.Fatalf("relabelled send: %q", d)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleDiff against a timeline that did not record: no panic")
		}
	}()
	want.ScheduleDiff(NewTimeline(3, DefaultMachine()))
}

// TestMarkedReport runs a two-stage program — a ring exchange in one phase,
// every rank marking, then an exchange in a new phase on rank pairs — and
// requires its marked report to equal the report of the first stage run
// alone, live under each machine and priced from a recording under any
// other. Without EnableMarks, Mark does nothing and MarkedReport panics.
func TestMarkedReport(t *testing.T) {
	const p, rounds = 6, 5
	type machine struct {
		m  Machine
		tp Topology
	}
	machines := []machine{
		{DefaultMachine(), nil},
		{Machine{Alpha: 3e-6, Beta: 7e-10}, flatStub{Machine{Alpha: 3e-6, Beta: 7e-10}}},
		{DefaultMachine(), contendedStub{cost: 1e-6, occ: 5e-6}},
	}
	exchange := func(tl *Timeline, to func(r, k int) int, phase string) {
		for k := range rounds {
			sts := make([]Stamp, p)
			for r := range p {
				sts[r] = tl.Send(r, to(r, k), int64(8*(1+(r+k)%5)), phase)
			}
			for r := range p {
				tl.Recv(r, to(r, k), int64(8*(1+(r+k)%5)), phase, sts[r])
			}
		}
	}
	run := func(mc machine, both, marks bool) *Timeline {
		tl := NewTimeline(p, mc.m)
		tl.SetTopology(mc.tp)
		tl.Record()
		if marks {
			tl.EnableMarks()
		}
		exchange(tl, func(r, k int) int { return (r + 1 + k%(p-1)) % p }, "ring")
		for r := range p {
			tl.Mark(r)
		}
		if both {
			exchange(tl, func(r, _ int) int { return r ^ 1 }, "pairs")
		}
		return tl
	}
	want := make([]*Report, len(machines))
	for i, mc := range machines {
		want[i] = run(mc, false, false).Report()
	}
	for i, rec := range machines {
		tl := run(rec, true, true)
		if got := tl.MarkedReport(); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("machine %d: marked report\n got %+v\nwant %+v", i, got.Time, want[i].Time)
		}
		if reflect.DeepEqual(tl.Report(), want[i]) {
			t.Fatalf("machine %d: the second stage left the final report unchanged", i)
		}
		for j, mc := range machines {
			if _, got := tl.Price(mc.m, mc.tp); !reflect.DeepEqual(got, want[j]) {
				t.Fatalf("recorded under machine %d, priced under %d: marked report\n got %+v\nwant %+v", i, j, got.Time, want[j].Time)
			}
		}
	}
	tl := run(machines[0], true, false)
	if _, marked := tl.Price(DefaultMachine(), nil); marked != nil || tl.marks != nil {
		t.Fatal("a timeline without EnableMarks kept marks")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MarkedReport without EnableMarks: no panic")
		}
	}()
	tl.MarkedReport()
}
