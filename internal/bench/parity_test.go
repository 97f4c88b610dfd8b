package bench

import (
	"context"
	"testing"

	"repro/internal/conflux"
	"repro/internal/costmodel"
	"repro/internal/lu2d"
	"repro/internal/smpi"
	"repro/internal/trace"
)

// runEngineWorld replays one engine's volume-mode schedule on a world the
// test owns, so the timeline (and its retained events) stays accessible.
func runEngineWorld(t *testing.T, algo costmodel.Algorithm, n, p int, mem float64) *smpi.World {
	t.Helper()
	w := smpi.NewWorldMachine(p, false, trace.DefaultMachine())
	_, err := smpi.Exec(context.Background(), smpi.Config{World: w}, func(c *smpi.Comm) error {
		var err error
		switch algo {
		case costmodel.LibSci:
			_, err = lu2d.Run(c, nil, lu2d.LibSciOptions(n, p, LibSciNB))
		case costmodel.SLATE:
			_, err = lu2d.Run(c, nil, lu2d.SLATEOptions(n, p))
		case costmodel.CANDMC:
			_, err = conflux.Run(c, nil, conflux.CANDMCOptions(n, p, mem))
		case costmodel.COnfLUX:
			_, err = conflux.Run(c, nil, conflux.DefaultOptions(n, p, mem))
		}
		return err
	})
	if err != nil {
		t.Fatalf("%s: %v", algo, err)
	}
	return w
}

// TestTimelineReportParityAllEngines pins the tentpole refactor: the volume
// Report derived from the event timeline must be identical — per-rank
// sent/recv/msgs and per-phase bytes/msgs — to the pre-refactor counter
// semantics, reconstructed here by replaying every matched event — its send
// and its receive — into a fresh timeline. A mismatch means a delivery was dropped, double-counted,
// or mis-attributed on its way through the timeline.
func TestTimelineReportParityAllEngines(t *testing.T) {
	n, p := 128, 8
	mem := costmodel.MaxMemoryParams(n, p).M
	for _, algo := range costmodel.Algorithms {
		w := runEngineWorld(t, algo, n, p, mem)
		if w.Trace.EventsDropped() != 0 {
			t.Fatalf("%s: event cap exceeded at test scale", algo)
		}
		got := w.Trace.Report()

		replay := trace.NewTimeline(p, trace.DefaultMachine())
		for _, e := range w.Trace.Events() {
			st := replay.RecordSend(e.From, e.To, e.Bytes, e.Phase)
			replay.RecordRecv(e.From, e.To, e.Bytes, e.Phase, st)
		}
		want := replay.Report()

		for r := 0; r < p; r++ {
			if got.Sent[r] != want.Sent[r] || got.Recv[r] != want.Recv[r] || got.Msgs[r] != want.Msgs[r] {
				t.Fatalf("%s rank %d: sent/recv/msgs %d/%d/%d from timeline vs %d/%d/%d from events",
					algo, r, got.Sent[r], got.Recv[r], got.Msgs[r], want.Sent[r], want.Recv[r], want.Msgs[r])
			}
		}
		if len(got.ByPhase) != len(want.ByPhase) {
			t.Fatalf("%s: phase sets differ: %v vs %v", algo, got.ByPhase, want.ByPhase)
		}
		for ph, v := range want.ByPhase {
			if got.ByPhase[ph] != v {
				t.Fatalf("%s phase %q: %d vs %d bytes", algo, ph, got.ByPhase[ph], v)
			}
		}
		for ph, v := range want.PhaseMsgs {
			if got.PhaseMsgs[ph] != v {
				t.Fatalf("%s phase %q: %d vs %d msgs", algo, ph, got.PhaseMsgs[ph], v)
			}
		}
	}
}

// TestSimulatedTimeDeterministic pins the makespan determinism acceptance
// criterion: repeated volume-mode runs yield bit-identical simulated times
// (logical clocks depend only on per-rank program order and message
// matching, never on goroutine scheduling).
func TestSimulatedTimeDeterministic(t *testing.T) {
	var first float64
	for i := 0; i < 3; i++ {
		m, err := Measure(t.Context(), costmodel.COnfLUX, 128, 8, costmodel.MaxMemoryParams(128, 8).M)
		if err != nil {
			t.Fatal(err)
		}
		if m.SimTime <= 0 {
			t.Fatalf("no simulated time: %v", m.SimTime)
		}
		if i == 0 {
			first = m.SimTime
		} else if m.SimTime != first {
			t.Fatalf("run %d makespan %v != %v", i, m.SimTime, first)
		}
	}
}

// TestSimulatedTimeMonotoneInMachine pins the α-β monotonicity criterion at
// engine level: doubling either machine parameter strictly increases the
// simulated makespan of a real schedule.
func TestSimulatedTimeMonotoneInMachine(t *testing.T) {
	measure := func(m costmodel.Machine) float64 {
		saved := Machine
		Machine = m
		defer func() { Machine = saved }()
		res, err := Measure(t.Context(), costmodel.LibSci, 128, 8, costmodel.MaxMemoryParams(128, 8).M)
		if err != nil {
			t.Fatal(err)
		}
		return res.SimTime
	}
	base := measure(costmodel.Machine{Alpha: 1e-6, Beta: 1e-10})
	if up := measure(costmodel.Machine{Alpha: 2e-6, Beta: 1e-10}); up <= base {
		t.Fatalf("makespan not strictly increasing in alpha: %v -> %v", base, up)
	}
	if up := measure(costmodel.Machine{Alpha: 1e-6, Beta: 2e-10}); up <= base {
		t.Fatalf("makespan not strictly increasing in beta: %v -> %v", base, up)
	}
}

// TestBusyWaitSplitInvariant: for every rank, clock = busy + wait, and the
// makespan is the critical rank's clock.
func TestBusyWaitSplitInvariant(t *testing.T) {
	w := runEngineWorld(t, costmodel.COnfLUX, 128, 8, costmodel.MaxMemoryParams(128, 8).M)
	tr := w.Trace.Report().Time
	for r := range tr.Clock {
		if diff := tr.Clock[r] - (tr.Busy[r] + tr.Wait[r]); diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("rank %d: clock %v != busy %v + wait %v", r, tr.Clock[r], tr.Busy[r], tr.Wait[r])
		}
	}
	if tr.Makespan != tr.Clock[tr.CritRank] {
		t.Fatalf("makespan %v != critical rank clock %v", tr.Makespan, tr.Clock[tr.CritRank])
	}
}
