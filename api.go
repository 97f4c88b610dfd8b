// Package conflux (module "repro") is the public API of this reproduction of
// "On the Parallel I/O Optimality of Linear Algebra Kernels: Near-Optimal LU
// Factorization" (Kwasniewski et al., PPoPP 2021).
//
// The surface is Session-based: conflux.New constructs a handle on one
// simulated machine configuration via functional options, and its methods —
// Factorize, Solve/SolveMany, CommVolume, CommVolumeSolve, FactorizeSPD —
// run jobs against it under a context.Context:
//
//   - Factorize / Solve / SolveMany run the COnfLUX near-communication-
//     optimal LU factorization (or any other engine) and the
//     distributed multi-RHS triangular solve on a simulated P-rank
//     machine, with numeric results gathered at the caller and both
//     phases metered and timed (DESIGN.md §8). Numeric payloads run on
//     cache-blocked local kernels (DESIGN.md §15).
//   - CommVolume replays an engine's communication schedule in volume
//     mode and returns the metered traffic — the paper's measurement
//     methodology (§8).
//   - LowerBoundLU and friends expose the X-Partitioning I/O lower bounds
//     of §3–§6.
//
// Engines dispatch through internal/engine's fixed table (DESIGN.md §9);
// failures carry the typed sentinels ErrShape, ErrSingular,
// ErrNotPositiveDefinite, ErrUnknownAlgorithm, and ErrCanceled for
// errors.Is.
//
// See README.md for a tour and DESIGN.md for the system inventory.
package conflux

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/costmodel"
	"repro/internal/mat"
	"repro/internal/smpi"
	"repro/internal/trace"
	"repro/internal/trisolve"
	"repro/internal/xpart"
)

// Matrix is a dense row-major float64 matrix (re-exported).
type Matrix = mat.Matrix

// VolumeReport is a communication-volume report (re-exported). Its Time
// field carries the simulated-time view of the same run (TimeReport).
type VolumeReport = trace.Report

// TimeReport is the α-β simulated-time report of a run: makespan, per-rank
// busy/wait split, and critical-path phase attribution (re-exported).
type TimeReport = trace.TimeReport

// Machine is the α-β (latency–bandwidth) machine parameter set the
// simulated clocks advance with (re-exported from internal/costmodel).
// Its IsZero method distinguishes "unset" from the meaningful all-free
// machine, which sessions request explicitly with WithFreeMachine.
type Machine = costmodel.Machine

// DefaultMachine returns paper-scale interconnect parameters (Piz
// Daint-class: ~1 µs latency, ~10 GB/s bandwidth).
func DefaultMachine() Machine { return costmodel.DefaultMachine() }

// NewMatrix allocates a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix { return mat.New(r, c) }

// RandomMatrix returns a deterministic random n×n matrix, diagonally
// boosted so factorizations are well conditioned.
func RandomMatrix(n int, seed uint64) *Matrix { return mat.RandomDiagDominant(n, seed) }

// Algorithm names an engine (re-exported).
type Algorithm = costmodel.Algorithm

// The engines: the four algorithms of the paper's evaluation (Table 2) plus
// the Cholesky extension kernel. Engines() lists the set.
const (
	COnfLUX  = costmodel.COnfLUX
	CANDMC   = costmodel.CANDMC
	LibSci   = costmodel.LibSci
	SLATE    = costmodel.SLATE
	Cholesky = costmodel.Cholesky
)

// Result is the outcome of a distributed factorization.
//
// Concurrency: the factor fields (LU, Perm, Volume, Time, CommTime) are
// written once by Factorize and safe for concurrent reads afterwards.
// Concurrent solves on one Result are safe — the solve accounting
// (SolveVolume, SolveBytes, SolveTime) is mutex-guarded — but those three
// fields must only be read while no solve is in flight.
type Result struct {
	// LU holds the combined factors: row i of LU is row Perm[i] of P·A,
	// unit-lower L below the diagonal, U on and above.
	LU *Matrix
	// Perm maps factor position -> original row index (A[Perm,:] = L·U).
	Perm []int
	// Volume is the communication-volume report of the run; Volume.Time
	// holds the full simulated-time detail.
	Volume *VolumeReport
	// Time is the simulated α-β makespan of the run in seconds: the final
	// logical clock of the slowest rank, waits included. The simulation
	// times algorithm communication only — computation is not modeled, and
	// the layout/collect housekeeping phases are untimed, mirroring the
	// AlgorithmBytes volume exclusion (§7.4).
	Time float64
	// CommTime is the critical rank's pure transfer time (α+β·bytes work,
	// excluding waits): Time = CommTime + critical-rank wait.
	CommTime float64
	// Executor is the resolved executor that ran the factorization
	// ("goroutines" or "events"). Provenance only: both executors produce
	// identical factors, volume, and simulated time.
	Executor string
	// SolveVolume is the communication report of the most recent
	// distributed solve run on these factors (nil until one runs). Its
	// timed phases are trisolve's "solve.fwd" and "solve.back"; the RHS
	// scatter and solution gather are labeled layout/collect and excluded,
	// mirroring the factorization accounting.
	SolveVolume *VolumeReport
	// SolveBytes accumulates the solve-phase traffic (forward plus back
	// substitution bytes) across every distributed solve on this Result.
	SolveBytes int64
	// SolveTime accumulates the simulated α-β makespans of the
	// distributed solves on this Result, in seconds.
	SolveTime float64

	// mu guards the solve accounting above across concurrent solves.
	mu sync.Mutex

	// sess is the session the factorization ran on; nil marks a
	// hand-assembled Result, whose solves run on a one-rank session.
	sess *Session
}

// SolveFactoredContext solves a·x = b using already-computed factors. The
// solve runs distributed on the session Factorize recorded, or on a one-rank
// session for a hand-assembled Result, and is metered into
// r.SolveVolume/SolveBytes/SolveTime. A singular factor (zero U diagonal)
// reports an ErrSingular-wrapped error instead of producing Inf/NaN.
// Cancellation of ctx aborts the solve with ErrCanceled.
func (r *Result) SolveFactoredContext(ctx context.Context, b []float64) ([]float64, error) {
	bm := mat.FromSlice(len(b), 1, append([]float64(nil), b...))
	x, err := r.SolveManyFactoredContext(ctx, bm)
	if err != nil {
		return nil, err
	}
	return x.Pack(), nil
}

// SolveManyFactoredContext solves a·X = B (B is n×nrhs) using already-
// computed factors. The solve runs distributed on the solve ranks of the
// session Factorize recorded (a one-rank session for a hand-assembled
// Result), under that session's α-β machine; the run's volume report
// replaces r.SolveVolume and its solve-phase bytes and makespan accumulate
// into r.SolveBytes / r.SolveTime. Concurrent solves on one Result are safe
// (the accounting is mutex-guarded); cancellation of ctx aborts the
// simulation with ErrCanceled.
func (r *Result) SolveManyFactoredContext(ctx context.Context, b *Matrix) (*Matrix, error) {
	if r.LU == nil || r.LU.Phantom() {
		return nil, fmt.Errorf("conflux: factors unavailable (volume-mode run?)")
	}
	n := len(r.Perm)
	if err := checkShape("SolveManyFactored", n, r.LU, b); err != nil {
		return nil, err
	}
	s := r.sess
	if s == nil {
		s, _ = New(WithRanks(1)) // cannot fail
	}
	pb := mat.PermuteRows(b, r.Perm)
	opt := trisolve.DefaultOptions(n, s.cfg.SolveRanks, b.Cols)
	var x *Matrix
	rep, err := s.run(ctx, opt.Grid.Total, true, func(c *smpi.Comm) error {
		var lu, rhs *mat.Matrix
		if c.Rank() == 0 {
			lu, rhs = r.LU, pb
		}
		res, err := trisolve.Run(c, lu, rhs, opt)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			x = res.X
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if x == nil {
		return nil, fmt.Errorf("conflux: no solution gathered at rank 0")
	}
	r.mu.Lock()
	r.SolveVolume = rep
	r.SolveBytes += rep.ByPhase[trisolve.PhaseFwd] + rep.ByPhase[trisolve.PhaseBack]
	r.SolveTime += rep.Time.Makespan
	r.mu.Unlock()
	return x, nil
}

// AlgorithmBytes extracts the algorithm-attributed traffic from a report,
// excluding the initial layout scatter and final verification gather.
func AlgorithmBytes(rep *VolumeReport) int64 {
	return rep.AlgorithmBytes()
}

// LowerBoundLU returns the paper's §6 parallel I/O lower bound for LU
// factorization, in elements per processor: 2N³/(3P√M) + N(N−1)/(2P).
// memory <= 0 selects the paper's maximum-replication setting.
func LowerBoundLU(n, p int, memory float64) float64 {
	return xpart.LUParallelLowerBound(n, p, defaultMem(n, p, memory))
}

// LowerBoundMMM returns the matrix-multiplication bound 2N³/(P√M).
func LowerBoundMMM(n, p int, memory float64) float64 {
	return xpart.MMMSequentialLowerBound(n, defaultMem(n, p, memory)) / float64(p)
}

// LowerBoundCholesky returns the Cholesky bound derived with the same
// machinery (≈ N³/(3P√M)).
func LowerBoundCholesky(n, p int, memory float64) float64 {
	return xpart.CholeskyLowerBound(n, defaultMem(n, p, memory)) / float64(p)
}

func defaultMem(n, p int, memory float64) float64 {
	if memory <= 0 {
		return costmodel.MaxMemoryParams(n, p).M
	}
	return memory
}

// ModelPerRankElements returns the Table 2 cost model for an algorithm, in
// elements per rank. memory <= 0 selects the paper's maximum-replication
// setting M = N²/P^(2/3).
func ModelPerRankElements(algo Algorithm, n, p int, memory float64) float64 {
	if memory <= 0 {
		memory = costmodel.MaxMemoryParams(n, p).M
	}
	return costmodel.PerRankElements(algo, costmodel.Params{N: n, P: p, M: memory})
}
