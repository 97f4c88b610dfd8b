package bench

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/conflux"
	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/lu2d"
	"repro/internal/smpi"
	"repro/internal/trace"
)

// runEngineWorld replays one engine's volume-mode schedule on a recording
// world the test owns, so the timeline (and its recorded schedule) stays
// accessible.
func runEngineWorld(t *testing.T, algo costmodel.Algorithm, n, p int, mem float64) *smpi.World {
	t.Helper()
	w := smpi.NewWorldMachine(p, false, trace.DefaultMachine())
	w.Trace.Record()
	_, err := smpi.Exec(context.Background(), smpi.Config{World: w}, func(c *smpi.Comm) error {
		var err error
		switch algo {
		case costmodel.LibSci:
			_, err = lu2d.Run(c, nil, lu2d.LibSciOptions(n, p, engine.DefaultLibSciNB))
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

// TestTimelineReportParityAllEngines holds the timeline's two records of a
// run to each other: the report its aggregates and clocks give, and its
// recorded schedule. The schedule must hold one send and one receive per
// timed message (a delivery dropped or double-counted on its way through the
// timeline breaks the count); priced under the run's own machine it must
// give back the report, every clock, busy and wait time bit for bit; and a
// second replay must record the same schedule, operation by operation.
func TestTimelineReportParityAllEngines(t *testing.T) {
	n, p := 128, 8
	mem := costmodel.MaxMemoryParams(n, p).M
	for _, algo := range costmodel.Algorithms {
		w := runEngineWorld(t, algo, n, p, mem)
		got := w.Trace.Report()
		var timed int64
		for _, k := range got.Time.Msgs {
			timed += k
		}
		if b := w.Trace.ScheduleBytes(); b == 0 || b != 24*timed {
			t.Fatalf("%s: schedule holds %d bytes for %d timed messages, want 24 each", algo, b, timed)
		}
		if priced, _ := w.Trace.Price(trace.DefaultMachine(), nil); !reflect.DeepEqual(priced, got) {
			t.Fatalf("%s: priced schedule %+v, live %+v", algo, priced.Time, got.Time)
		}
		if d := runEngineWorld(t, algo, n, p, mem).Trace.ScheduleDiff(w.Trace); d != "" {
			t.Fatalf("%s: a second replay recorded a different schedule: %s", algo, d)
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
		m, err := paper.Measure(t.Context(), costmodel.COnfLUX, 128, 8, costmodel.MaxMemoryParams(128, 8).M)
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
		res, err := Harness{Machine: m}.Measure(t.Context(), costmodel.LibSci, 128, 8, costmodel.MaxMemoryParams(128, 8).M)
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
