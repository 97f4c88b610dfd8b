package bench

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"

	"repro/internal/smpi"
	"repro/internal/trisolve"
)

// SolveMeasurement is one (N, P, NRHS) solve-phase volume-mode data point:
// the distributed forward/back substitution replayed on the simulated
// machine, metered and timed exactly like the factorization experiments.
type SolveMeasurement struct {
	N, P, NRHS  int
	FwdBytes    int64 // solve.fwd phase traffic
	BackBytes   int64 // solve.back phase traffic
	Msgs        int64
	MaxRankMsgs int64   // timed-phase latency critical path
	SimTime     float64 // simulated α-β makespan, seconds
	GridDesc    string
}

// SolveBytes is the total solve-phase traffic (fwd + back).
func (m SolveMeasurement) SolveBytes() int64 { return m.FwdBytes + m.BackBytes }

// MeasureSolve replays the distributed triangular solve at (n, p) with nrhs
// right-hand sides in volume mode and returns the measurement.
func (h Harness) MeasureSolve(ctx context.Context, n, p, nrhs int) (SolveMeasurement, error) {
	opt := trisolve.DefaultOptions(n, p, nrhs)
	out := SolveMeasurement{
		N: n, P: p, NRHS: opt.NRHS,
		GridDesc: fmt.Sprintf("%dx%d", opt.Grid.Pr, opt.Grid.Pc),
	}
	rep, err := h.runVolume(ctx, p, func(c *smpi.Comm) error {
		_, err := trisolve.Run(c, nil, nil, opt)
		return err
	})
	if err != nil {
		return out, fmt.Errorf("bench: solve N=%d P=%d NRHS=%d: %w", n, p, nrhs, err)
	}
	out.FwdBytes = rep.ByPhase[trisolve.PhaseFwd]
	out.BackBytes = rep.ByPhase[trisolve.PhaseBack]
	out.Msgs = rep.TotalMsgs()
	out.MaxRankMsgs = rep.Time.MaxRankMsgs()
	out.SimTime = rep.Time.Makespan
	return out, nil
}

// SolveResult is the solve-phase scaling experiment: solve volume and
// simulated time vs P at fixed N, for a batch of right-hand sides. The
// interesting shape is the contrast with factorization: volume grows only
// as (Pr+Pc)·N·NRHS while the 2·nt collective steps keep the makespan
// latency-bound, so batching RHS is nearly free in simulated time.
type SolveResult struct {
	N, NRHS int
	Points  []SolveMeasurement
}

// RunSolve sweeps rank counts at fixed n with nrhs right-hand sides; the
// points run concurrently through the parallel runner in ps order.
func (h Harness) RunSolve(ctx context.Context, n int, ps []int, nrhs int) (*SolveResult, error) {
	res := &SolveResult{N: n, NRHS: nrhs, Points: make([]SolveMeasurement, len(ps))}
	err := ForEach(ctx, h.Workers, len(ps), func(ctx context.Context, i int) error {
		m, err := h.MeasureSolve(ctx, n, ps[i], nrhs)
		if err != nil {
			return err
		}
		res.Points[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints one row per P: solve-phase traffic split, message counts,
// and the simulated makespan.
func (s *SolveResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Distributed solve scaling: N=%d, NRHS=%d, volume [MB] and simulated α-β time [s]\n", s.N, s.NRHS)
	fmt.Fprintf(w, "%6s %-8s %12s %12s %10s %14s %14s\n",
		"P", "grid", "fwd[MB]", "back[MB]", "msgs", "max-rank-msgs", "sim-time[s]")
	for _, m := range s.Points {
		fmt.Fprintf(w, "%6d %-8s %12.3f %12.3f %10d %14d %14.6f\n",
			m.P, m.GridDesc, float64(m.FwdBytes)/1e6, float64(m.BackBytes)/1e6,
			m.Msgs, m.MaxRankMsgs, m.SimTime)
	}
}

// WriteCSV emits solve rows: n,p,nrhs,fwd_bytes,back_bytes,msgs,
// max_rank_msgs,sim_time_s,grid.
func (s *SolveResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	defer cw.Flush()
	if err := cw.Write([]string{"n", "p", "nrhs", "fwd_bytes", "back_bytes", "msgs", "max_rank_msgs", "sim_time_s", "grid"}); err != nil {
		return err
	}
	for _, m := range s.Points {
		if err := cw.Write([]string{
			itoa(m.N), itoa(m.P), itoa(m.NRHS),
			fmt.Sprintf("%d", m.FwdBytes),
			fmt.Sprintf("%d", m.BackBytes),
			fmt.Sprintf("%d", m.Msgs),
			fmt.Sprintf("%d", m.MaxRankMsgs),
			fmt.Sprintf("%.9f", m.SimTime),
			m.GridDesc,
		}); err != nil {
			return err
		}
	}
	return nil
}
