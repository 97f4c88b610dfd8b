// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§8–§9) by running the four LU
// implementations in volume mode on the simulated machine, metering the
// aggregate bytes sent (the paper's Score-P methodology), and pairing the
// measurements with the Table 2 cost models. Engines are dispatched
// through the internal/engine registry — the same path the public API
// uses — and every entry point takes a context.Context, so a sweep is
// cancelable mid-run (cmd/confluxbench wires SIGINT to it). See DESIGN.md
// §3 for the experiment index and EXPERIMENTS.md for recorded results.
package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/conflux"
	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/lu2d"
	"repro/internal/smpi"
	"repro/internal/trace"

	// The registry is this harness's only dispatch path to the engines.
	_ "repro/internal/engine/all"
)

// Measurement is one (algorithm, N, P) volume-mode data point.
type Measurement struct {
	Algo          costmodel.Algorithm
	N, P          int
	M             float64
	MeasuredBytes int64   // aggregate payload bytes, layout/collect excluded
	ModeledBytes  float64 // Table 2 model (paper's published models)
	FittedBytes   float64 // this implementation's fitted model (COnfLUX only)
	Msgs          int64
	// MaxRankMsgs is the latency-critical path: the largest number of
	// messages any rank injects in timed (algorithm) phases — the
	// layout/collect housekeeping is excluded, matching MeasuredBytes
	// and the simulated clocks.
	MaxRankMsgs int64
	SimTime     float64 // simulated α-β makespan of the run, seconds
	PredTime    float64 // α-β prediction from the Table 2 volume model
	GridDesc    string
}

// MeasuredGB returns the measured volume in GB (Table 2 units).
func (m Measurement) MeasuredGB() float64 { return float64(m.MeasuredBytes) / 1e9 }

// ModeledGB returns the modeled volume in GB.
func (m Measurement) ModeledGB() float64 { return m.ModeledBytes / 1e9 }

// PredictionPct returns modeled/measured ×100 — Table 2's "(prediction %)".
func (m Measurement) PredictionPct() float64 {
	if m.MeasuredBytes == 0 {
		return 0
	}
	return 100 * m.ModeledBytes / float64(m.MeasuredBytes)
}

// PerNodeBytes returns the measured per-rank volume (Fig. 6 y-axis).
func (m Measurement) PerNodeBytes() float64 {
	return float64(m.MeasuredBytes) / float64(m.P)
}

// Timeout bounds a single volume-mode run; paper-scale points take minutes.
var Timeout = 30 * time.Minute

// Machine is the α-β machine the harness simulates time against
// (cmd/confluxbench overrides it from -alpha/-beta).
var Machine = costmodel.DefaultMachine()

// Executor selects how replayed worlds schedule their ranks (goroutines,
// also the empty string, or events). cmd/confluxbench wires -executor
// here; the sched experiment sweeps it. Results are executor-independent —
// this switches only the host-side wall-clock/allocation profile.
var Executor smpi.Executor

// ExecWorkers is the event executor's concurrent-window width for replayed
// worlds (cmd/confluxbench wires -workers here; the sched experiment sweeps
// it). 0 or 1 is the serial schedule. Like Executor, it changes only the
// host-side profile — reports are bit-identical at every width. Distinct
// from Workers in parallel.go, which fans independent worlds across cores;
// ExecWorkers parallelizes the ranks of a single world.
var ExecWorkers int

// LibSciNB is the "user-specified" ScaLAPACK block size used throughout the
// harness (Table 2 lists LibSci's block size as a user parameter). It
// aliases the engine's own default so harness measurements and public-API
// Session runs can never diverge on the block size.
const LibSciNB = lu2d.DefaultLibSciNB

// runVolume replays one volume-mode schedule on p ranks of the flat α-β
// machine under ctx, bounded by the harness Timeout. Cancellation aborts the
// simulated world, so a paper-scale sweep stops promptly on SIGINT.
func runVolume(ctx context.Context, p int, fn smpi.RankFunc) (*trace.Report, error) {
	return runVolumeOn(ctx, p, nil, fn)
}

// runVolumeOn is runVolume with the clocks priced by tp (nil = flat).
func runVolumeOn(ctx context.Context, p int, tp trace.Topology, fn smpi.RankFunc) (*trace.Report, error) {
	ctx, cancel := context.WithTimeout(ctx, Timeout)
	defer cancel()
	return smpi.Exec(ctx, smpi.Config{
		P:          p,
		Machine:    Machine,
		MachineSet: true,
		Executor:   Executor,
		Workers:    ExecWorkers,
		Topology:   tp,
	}, fn)
}

// Measure runs one algorithm at (n, p) with per-rank memory m (elements) in
// volume mode and returns the measurement. The engine is resolved through
// the registry, so any registered algorithm is measurable.
func Measure(ctx context.Context, algo costmodel.Algorithm, n, p int, mem float64) (Measurement, error) {
	out := Measurement{Algo: algo, N: n, P: p, M: mem}
	params := costmodel.Params{N: n, P: p, M: mem}
	// Table 2 models exist only for the paper's comparison set; other
	// registered engines (Cholesky) measure with zero model columns.
	published := false
	for _, a := range costmodel.Algorithms {
		if algo == a {
			published = true
			break
		}
	}
	if published {
		out.ModeledBytes = costmodel.TotalBytes(algo, params)
	}
	eng, err := engine.Lookup(algo)
	if err != nil {
		return out, fmt.Errorf("bench: %w", err)
	}
	cfg := engine.Config{Ranks: p, Memory: mem, NB: LibSciNB}
	out.GridDesc = engine.GridDesc(eng, n, cfg)
	if algo == costmodel.COnfLUX {
		out.FittedBytes = conflux.ModelPerRankElements(params) * float64(p) * trace.BytesPerElement
	}
	rep, err := runVolume(ctx, p, func(c *smpi.Comm) error {
		_, _, err := eng.Run(c, nil, n, cfg)
		return err
	})
	if err != nil {
		return out, fmt.Errorf("bench: %s N=%d P=%d: %w", algo, n, p, err)
	}
	out.MeasuredBytes = rep.AlgorithmBytes(trace.PhaseLayout, trace.PhaseCollect)
	out.Msgs = rep.TotalMsgs()
	out.MaxRankMsgs = rep.Time.MaxRankMsgs()
	out.SimTime = rep.Time.Makespan
	if published {
		out.PredTime = costmodel.PredictedTime(algo, params, Machine, float64(out.MaxRankMsgs))
	}
	return out, nil
}

// MeasureAll measures every algorithm at the paper's memory setting
// M = N²/P^{2/3} (maximum replication, Fig. 6 caption). The algorithms'
// worlds are independent, so they run concurrently through the parallel
// runner; the result order is always costmodel.Algorithms order.
func MeasureAll(ctx context.Context, n, p int) ([]Measurement, error) {
	params := costmodel.MaxMemoryParams(n, p)
	jobs := make([]measureJob, 0, len(costmodel.Algorithms))
	for _, algo := range costmodel.Algorithms {
		jobs = append(jobs, measureJob{algo: algo, n: n, p: p, mem: params.M})
	}
	return measureMany(ctx, jobs)
}
