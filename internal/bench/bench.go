// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§8–§9) by running the four LU
// implementations in volume mode on the simulated machine, metering the
// aggregate bytes sent (the paper's Score-P methodology), and pairing the
// measurements with the Table 2 cost models. Engines are dispatched
// through the internal/engine table — the same path the public API uses.
// Every experiment is a method of a Harness, the simulated machine and the
// number of worlds run at once, and takes a context.Context, so a sweep is
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
	"repro/internal/smpi"
	"repro/internal/trace"
)

// Harness is what every experiment runs under: the α-β machine simulated
// time is measured against, and how many independent simulated worlds run
// concurrently. cmd/confluxbench builds it from -alpha, -beta and -parallel.
type Harness struct {
	Machine costmodel.Machine
	// Workers bounds concurrent worlds, not goroutines: each world runs P
	// goroutines of its own. Zero or less means one per host CPU
	// (GOMAXPROCS).
	Workers int
}

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

// timeout bounds a single volume-mode run; paper-scale points take minutes.
const timeout = 30 * time.Minute

// runVolume replays one volume-mode schedule on p ranks of h's flat α-β
// machine under ctx, bounded by the harness timeout. Cancellation aborts the
// simulated world, so a paper-scale sweep stops promptly on SIGINT.
func (h Harness) runVolume(ctx context.Context, p int, fn smpi.RankFunc) (*trace.Report, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	return smpi.Exec(ctx, smpi.Config{World: smpi.NewWorldMachine(p, false, h.Machine)}, fn)
}

// recordVolume is runVolume on a recording timeline, which it returns:
// Price re-times the run under any other machine or topology.
func (h Harness) recordVolume(ctx context.Context, p int, fn smpi.RankFunc) (*trace.Timeline, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	w := smpi.NewWorldMachine(p, false, h.Machine)
	w.Trace.Record()
	_, err := smpi.Exec(ctx, smpi.Config{World: w}, fn)
	return w.Trace, err
}

// Measure runs one algorithm at (n, p) with per-rank memory m (elements) in
// volume mode and returns the measurement. The engine is looked up in the
// engine table, so Cholesky is measurable too.
func (h Harness) Measure(ctx context.Context, algo costmodel.Algorithm, n, p int, mem float64) (Measurement, error) {
	out := Measurement{Algo: algo, N: n, P: p, M: mem}
	params := costmodel.Params{N: n, P: p, M: mem}
	// Table 2 models exist only for the paper's comparison set; Cholesky
	// measures with zero model columns.
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
	cfg := engine.Config{Ranks: p, Memory: mem}
	out.GridDesc = eng.GridDesc(n, cfg)
	if algo == costmodel.COnfLUX {
		out.FittedBytes = conflux.ModelPerRankElements(params) * float64(p) * trace.BytesPerElement
	}
	rep, err := h.runVolume(ctx, p, engine.VolumeJob(eng, n, cfg).Body)
	if err != nil {
		return out, fmt.Errorf("bench: %s N=%d P=%d: %w", algo, n, p, err)
	}
	out.MeasuredBytes = rep.AlgorithmBytes()
	out.Msgs = rep.TotalMsgs()
	out.MaxRankMsgs = rep.Time.MaxRankMsgs()
	out.SimTime = rep.Time.Makespan
	if published {
		out.PredTime = costmodel.PredictedTime(algo, params, h.Machine, float64(out.MaxRankMsgs))
	}
	return out, nil
}

// MeasureAll measures every algorithm at the paper's memory setting
// M = N²/P^{2/3} (maximum replication, Fig. 6 caption). The algorithms'
// worlds are independent, so they run concurrently through the parallel
// runner; the result order is always costmodel.Algorithms order.
func (h Harness) MeasureAll(ctx context.Context, n, p int) ([]Measurement, error) {
	params := costmodel.MaxMemoryParams(n, p)
	jobs := make([]measureJob, 0, len(costmodel.Algorithms))
	for _, algo := range costmodel.Algorithms {
		jobs = append(jobs, measureJob{algo: algo, n: n, p: p, mem: params.M})
	}
	return h.measureMany(ctx, jobs)
}
