package bench

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cholesky"
	"repro/internal/conflux"
	"repro/internal/costmodel"
	"repro/internal/lu2d"
	"repro/internal/smpi"
	"repro/internal/trace"
)

// allEngines is the full engine set of the executor-parity acceptance
// criterion: the four Table 2 LU codes plus the Cholesky extension kernel.
var allEngines = append(append([]costmodel.Algorithm(nil), costmodel.Algorithms...), costmodel.Cholesky)

// parityWorkerCounts is the concurrent-window sweep of the acceptance
// criterion: widths {1, 2, 4} plus the host's NumCPU when distinct.
func parityWorkerCounts() []int {
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		counts = append(counts, n)
	}
	return counts
}

// runEngineExecutor replays one engine's volume-mode schedule under an
// explicitly selected executor and window width and returns the trace
// report.
func runEngineExecutor(t *testing.T, algo costmodel.Algorithm, n, p int, mem float64, ex smpi.Executor, workers int) *trace.Report {
	t.Helper()
	rep, err := smpi.Exec(context.Background(), smpi.Config{P: p, Payload: false, Executor: ex, Workers: workers}, func(c *smpi.Comm) error {
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
		case costmodel.Cholesky:
			_, err = cholesky.Run(c, nil, cholesky.DefaultOptions(n, p, mem))
		}
		return err
	})
	if err != nil {
		t.Fatalf("%s n=%d p=%d %s: %v", algo, n, p, ex, err)
	}
	if rep.Executor != string(ex) {
		t.Fatalf("%s: report stamped %q, want %q", algo, rep.Executor, ex)
	}
	return rep
}

// requireExecutorParity asserts the acceptance criterion between two runs:
// byte-identical volume (per rank and per phase) and bit-identical
// simulated time (per-rank clocks, so the makespan too).
func requireExecutorParity(t *testing.T, label string, g, e *trace.Report) {
	t.Helper()
	for r := 0; r < g.P; r++ {
		if g.Sent[r] != e.Sent[r] || g.Recv[r] != e.Recv[r] || g.Msgs[r] != e.Msgs[r] {
			t.Fatalf("%s rank %d: goroutines sent/recv/msgs %d/%d/%d vs events %d/%d/%d",
				label, r, g.Sent[r], g.Recv[r], g.Msgs[r], e.Sent[r], e.Recv[r], e.Msgs[r])
		}
	}
	if len(g.ByPhase) != len(e.ByPhase) {
		t.Fatalf("%s: phase sets differ: %v vs %v", label, g.ByPhase, e.ByPhase)
	}
	for ph, v := range g.ByPhase {
		if e.ByPhase[ph] != v {
			t.Fatalf("%s phase %q: %d vs %d bytes", label, ph, v, e.ByPhase[ph])
		}
	}
	for ph, v := range g.PhaseMsgs {
		if e.PhaseMsgs[ph] != v {
			t.Fatalf("%s phase %q: %d vs %d msgs", label, ph, v, e.PhaseMsgs[ph])
		}
	}
	if g.Time.Makespan != e.Time.Makespan {
		t.Fatalf("%s: makespan %v (goroutines) != %v (events)", label, g.Time.Makespan, e.Time.Makespan)
	}
	for r := range g.Time.Clock {
		if g.Time.Clock[r] != e.Time.Clock[r] ||
			g.Time.Busy[r] != e.Time.Busy[r] || g.Time.Wait[r] != e.Time.Wait[r] {
			t.Fatalf("%s rank %d: clock/busy/wait %v/%v/%v vs %v/%v/%v",
				label, r, g.Time.Clock[r], g.Time.Busy[r], g.Time.Wait[r],
				e.Time.Clock[r], e.Time.Busy[r], e.Time.Wait[r])
		}
	}
}

// TestExecutorParityAllEngines pins the tentpole acceptance criterion at
// engine level: for all five engines and awkward small world sizes
// (including non-power-of-two, non-square p), the goroutine executor and
// the event executor at every window width {1, 2, 4, NumCPU} produce
// byte-identical volume and bit-identical simulated time.
func TestExecutorParityAllEngines(t *testing.T) {
	const n = 64
	for _, algo := range allEngines {
		for _, p := range []int{3, 4, 5, 6} {
			mem := costmodel.MaxMemoryParams(n, p).M
			g := runEngineExecutor(t, algo, n, p, mem, smpi.ExecGoroutines, 0)
			for _, w := range parityWorkerCounts() {
				e := runEngineExecutor(t, algo, n, p, mem, smpi.ExecEvents, w)
				label := fmt.Sprintf("%s/p=%d/w=%d", algo, p, w)
				requireExecutorParity(t, label, g, e)
			}
		}
	}
}

// TestExecutorParityPaperScaleSpot is the paper-scale spot check of the
// same criterion: one COnfLUX replay at a Fig. 6-shaped geometry, compared
// across executors and against a wide concurrent window. Skipped under
// -short (the full tier-1 run covers it).
func TestExecutorParityPaperScaleSpot(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale spot check skipped with -short")
	}
	n, p := 2048, 64
	mem := costmodel.MaxMemoryParams(n, p).M
	g := runEngineExecutor(t, costmodel.COnfLUX, n, p, mem, smpi.ExecGoroutines, 0)
	e := runEngineExecutor(t, costmodel.COnfLUX, n, p, mem, smpi.ExecEvents, 1)
	requireExecutorParity(t, "COnfLUX/paper-spot", g, e)
	ew := runEngineExecutor(t, costmodel.COnfLUX, n, p, mem, smpi.ExecEvents, runtime.NumCPU())
	requireExecutorParity(t, "COnfLUX/paper-spot/wide", g, ew)
}
