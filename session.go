package conflux

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/blas"
	"repro/internal/engine"
	"repro/internal/mat"
	"repro/internal/smpi"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/trisolve"

	// Register every in-tree engine: the registry is the only dispatch
	// path from the public API to the engine layer.
	_ "repro/internal/engine/all"
)

// Session is the entry point: a handle on one simulated machine
// configuration — the P-rank world size, the α-β Machine, the selected
// engine, and the solve-phase geometry — that runs any number of jobs
// (factorizations, solves, volume replays) and accumulates their trace
// totals. Construct it with New and functional options:
//
//	s, err := conflux.New(
//		conflux.WithRanks(8),
//		conflux.WithAlgorithm(conflux.CANDMC),
//	)
//	res, err := s.Factorize(ctx, a)
//
// Every method takes a context.Context; cancellation (or a deadline)
// aborts the in-flight simulation promptly and surfaces as ErrCanceled.
//
// Concurrency: a Session is safe for concurrent use. Each job runs on its
// own simulated world; the accumulated Stats are mutex-guarded. The one
// shared mutable object is a Result — see its concurrency contract.
type Session struct {
	cfg sessionConfig
	eng engine.Engine // resolved once by New; Lookup cannot fail afterwards

	mu    sync.Mutex
	stats SessionStats
}

// SessionStats is the accumulated trace view of every simulation a Session
// has completed: volume replays, factorizations, and distributed solves.
type SessionStats struct {
	// Runs counts simulations that ran to completion. Runs that fail
	// inside the simulation or are canceled are not counted; a run whose
	// post-simulation validation fails (e.g. an engine returning no pivot
	// permutation) is, since its traffic was fully simulated.
	Runs int
	// Bytes is the total metered traffic across runs, housekeeping
	// (layout/collect) included.
	Bytes int64
	// SimTime is the sum of the simulated α-β makespans, in seconds.
	SimTime float64
	// Executor is the executor ("goroutines" or "events") the session's
	// runs execute on; empty until the first run completes.
	Executor string
}

// sessionConfig is the resolved, immutable configuration of a Session.
type sessionConfig struct {
	ranks        int
	memory       float64 // 0: paper's max-replication default, per n
	algorithm    Algorithm
	machine      Machine
	machineSet   bool
	solveRanks   int // 0: ranks
	rhs          int
	refineSweeps int
	nb           int
	timeout      time.Duration
	executor     smpi.Executor
	workers      int       // 0 = 1: serial event schedule
	topology     topo.Spec // zero = plain machine path
	faults       topo.FaultPlan
}

func defaultSessionConfig() sessionConfig {
	return sessionConfig{
		ranks:     4,
		algorithm: COnfLUX,
		rhs:       1,
		timeout:   10 * time.Minute,
		executor:  smpi.ExecGoroutines,
	}
}

// Option configures a Session under construction (functional options).
type Option func(*sessionConfig) error

// WithRanks sets the number of simulated processors P (default 4).
func WithRanks(p int) Option {
	return func(c *sessionConfig) error {
		if p <= 0 {
			return fmt.Errorf("conflux: WithRanks requires p > 0, got %d", p)
		}
		c.ranks = p
		return nil
	}
}

// finiteNonNeg is the range check on float options; NaN fails it, which a
// plain `v < 0` guard would let through.
func finiteNonNeg(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// WithMemory sets the per-rank fast memory M in elements. WithMemory(0)
// selects the paper's maximum-replication default M = N²/P^(2/3), resolved
// per job from its matrix dimension; a negative or non-finite m is rejected
// like every other out-of-range option value.
func WithMemory(m float64) Option {
	return func(c *sessionConfig) error {
		if !finiteNonNeg(m) {
			return fmt.Errorf("conflux: WithMemory requires finite m >= 0 (0 selects the paper default), got %v", m)
		}
		c.memory = m
		return nil
	}
}

// WithAlgorithm selects the engine (default COnfLUX). The name must be
// registered in the engine registry; New fails with ErrUnknownAlgorithm
// otherwise.
func WithAlgorithm(a Algorithm) Option {
	return func(c *sessionConfig) error {
		c.algorithm = a
		return nil
	}
}

// WithMachine sets the α-β machine parameters exactly as given — including
// the all-free zero Machine, which WithFreeMachine names explicitly. The
// default (option absent) is DefaultMachine(). A negative or non-finite α or
// β is rejected: no report computed under one means anything.
func WithMachine(m Machine) Option {
	return func(c *sessionConfig) error {
		if !finiteNonNeg(m.Alpha) || !finiteNonNeg(m.Beta) {
			return fmt.Errorf("conflux: WithMachine requires finite alpha, beta >= 0, got %+v", m)
		}
		c.machine = m
		c.machineSet = true
		return nil
	}
}

// WithFreeMachine selects the all-free machine (α = 0, β = 0): traffic is
// metered but simulated time stays zero.
func WithFreeMachine() Option { return WithMachine(Machine{}) }

// WithSolveRanks sets the number of simulated ranks the distributed
// triangular solve runs on (default: the factorization rank count). The
// solve uses its own 2D grid, independent of the factorization grid.
func WithSolveRanks(p int) Option {
	return func(c *sessionConfig) error {
		if p <= 0 {
			return fmt.Errorf("conflux: WithSolveRanks requires p > 0, got %d", p)
		}
		c.solveRanks = p
		return nil
	}
}

// WithRHS sets the right-hand-side count volume-mode solve replays
// generate (default 1). Numeric solves infer the width from B.
func WithRHS(nrhs int) Option {
	return func(c *sessionConfig) error {
		if nrhs <= 0 {
			return fmt.Errorf("conflux: WithRHS requires nrhs > 0, got %d", nrhs)
		}
		c.rhs = nrhs
		return nil
	}
}

// WithRefineSweeps bounds the iterative-refinement loop of Solve and
// SolveMany: after the direct solve, up to k rounds of residual
// recomputation and distributed re-solve (default 0: none).
func WithRefineSweeps(k int) Option {
	return func(c *sessionConfig) error {
		if k < 0 {
			return fmt.Errorf("conflux: WithRefineSweeps requires k >= 0, got %d", k)
		}
		c.refineSweeps = k
		return nil
	}
}

// WithBlockSize sets the block size for engines with a user-specified
// blocking parameter (LibSci; Table 2 lists it as a user choice). 0 selects
// the engine default.
func WithBlockSize(nb int) Option {
	return func(c *sessionConfig) error {
		if nb < 0 {
			return fmt.Errorf("conflux: WithBlockSize requires nb >= 0, got %d", nb)
		}
		c.nb = nb
		return nil
	}
}

// WithExecutor selects how simulations schedule their ranks: "goroutines"
// (the default: one live goroutine per rank) or "events" (the discrete-event
// loop — ranks are coroutines driven by a clock-ordered scheduler). Both
// executors produce byte-identical volume and bit-identical simulated time
// (DESIGN.md §1); goroutines is the faster on every recorded point
// (EXPERIMENTS.md, "Executors"). An unknown name fails New with
// ErrUnknownExecutor. The choice is stamped on Stats().Executor,
// Result.Executor, and VolumeReport.Executor.
func WithExecutor(name string) Option {
	return func(c *sessionConfig) error {
		e, err := smpi.ResolveExecutor(smpi.Executor(name))
		if err != nil {
			return publicErr(err)
		}
		c.executor = e
		return nil
	}
}

// WithWorkers sets the event executor's concurrent-window width: up to n
// of the ready ranks with the earliest logical clocks execute
// simultaneously between scheduler barriers (DESIGN.md §12). The default
// (n = 1) is the serial baton schedule; n = runtime.NumCPU() spreads a
// single world across the host's cores. Reports are bit-identical at
// every width — the knob trades scheduler overhead against parallelism
// and changes nothing observable. Widths above the world size are
// clamped; the goroutine executor ignores the setting.
func WithWorkers(n int) Option {
	return func(c *sessionConfig) error {
		if n < 1 {
			return fmt.Errorf("conflux: WithWorkers requires n >= 1, got %d", n)
		}
		c.workers = n
		return nil
	}
}

// WithTimeout sets the safety-net bound on every simulation the session
// runs, applied on top of whatever deadline the per-call context carries —
// it exists so a schedule bug surfaces as ErrCanceled instead of a
// deadlock. Default 10 minutes; 0 disables it (rely on the context alone).
func WithTimeout(d time.Duration) Option {
	return func(c *sessionConfig) error {
		if d < 0 {
			return fmt.Errorf("conflux: WithTimeout requires d >= 0, got %v", d)
		}
		c.timeout = d
		return nil
	}
}

// New constructs a Session from functional options, validating each option
// and that the selected algorithm has a registered engine (otherwise the
// error wraps ErrUnknownAlgorithm).
func New(opts ...Option) (*Session, error) {
	cfg := defaultSessionConfig()
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if !cfg.machineSet {
		cfg.machine = DefaultMachine()
	}
	if cfg.solveRanks <= 0 {
		cfg.solveRanks = cfg.ranks
	}
	eng, err := engine.Lookup(cfg.algorithm)
	if err != nil {
		return nil, publicErr(err)
	}
	return &Session{cfg: cfg, eng: eng}, nil
}

// Engines returns the registered algorithm names in sorted order — the set
// WithAlgorithm accepts.
func Engines() []Algorithm { return engine.Names() }

// Algorithm returns the engine the session dispatches to.
func (s *Session) Algorithm() Algorithm { return s.cfg.algorithm }

// Ranks returns the simulated world size P of the session's machine.
func (s *Session) Ranks() int { return s.cfg.ranks }

// Machine returns the α-β machine parameters the session's clocks advance
// with.
func (s *Session) Machine() Machine { return s.cfg.machine }

// Stats returns the accumulated trace totals of every simulation this
// session has completed so far.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Config is the resolved, immutable configuration of a Session — the full
// canonical parameter tuple. Every simulation output (volume, simulated
// time, factors) is a pure function of the tuple's first ten fields; the
// last three (Timeout, Executor, Workers) are pinned by the parity suites
// to change nothing observable, which is what makes results cacheable by
// key: internal/plan derives its deterministic cache keys from exactly
// this struct, and its key-completeness test reflects over it, so adding a
// field here without classifying it as key-relevant or key-irrelevant is a
// build-gate failure, not a silent cache-aliasing bug.
type Config struct {
	// Ranks is the simulated world size P.
	Ranks int
	// Memory is the per-rank fast memory in elements; 0 means the paper's
	// maximum-replication default M = N²/P^(2/3), resolved per job from
	// its matrix dimension.
	Memory float64
	// Algorithm names the engine the session dispatches to.
	Algorithm Algorithm
	// Machine is the α-β machine the simulated clocks advance with,
	// already resolved (DefaultMachine when no option set it; the zero
	// value here really is the all-free machine).
	Machine Machine
	// SolveRanks is the distributed triangular solve's rank count,
	// resolved (it defaults to Ranks at construction).
	SolveRanks int
	// RHS is the right-hand-side count of volume-mode solve replays.
	RHS int
	// RefineSweeps bounds the iterative-refinement loop.
	RefineSweeps int
	// BlockSize is the user-specified blocking parameter; 0 means the
	// engine default (deterministic given Algorithm and the tuple above).
	BlockSize int
	// Topology is the network-topology specification (zero = the plain
	// Machine path). Every leaf is a scalar, and reports are bit-identical
	// across executors and widths under any topology, so the whole nested
	// struct is key-relevant and nothing else.
	Topology Topology
	// Faults is the canonical encoding of the fault/straggler plan
	// (FaultPlan.Canonical; "" = none). The encoding is deterministic with
	// exact-hex factors, so it keys the cache exactly like β does.
	Faults string
	// Timeout is the session safety timeout. It bounds wall-clock
	// execution only and cannot change a completed run's outputs.
	Timeout time.Duration
	// Executor is the configured scheduling strategy ("goroutines" or
	// "events"). Reports are pinned byte/bit-identical
	// across executors (DESIGN.md §11), so it must never enter a result
	// cache key.
	Executor string
	// Workers is the event executor's concurrent-window width (resolved;
	// minimum 1). Reports are bit-identical at every width (DESIGN.md
	// §12), so like Executor it is cache-key-irrelevant.
	Workers int
}

// Config returns the session's resolved configuration — the canonical
// parameter tuple its simulations are a pure function of.
func (s *Session) Config() Config {
	workers := s.cfg.workers
	if workers < 1 {
		workers = 1
	}
	return Config{
		Ranks:        s.cfg.ranks,
		Memory:       s.cfg.memory,
		Algorithm:    s.cfg.algorithm,
		Machine:      s.cfg.machine,
		SolveRanks:   s.cfg.solveRanks,
		RHS:          s.cfg.rhs,
		RefineSweeps: s.cfg.refineSweeps,
		BlockSize:    s.cfg.nb,
		Topology:     s.cfg.topology,
		Faults:       s.cfg.faults.Canonical(),
		Timeout:      s.cfg.timeout,
		Executor:     string(s.cfg.executor),
		Workers:      workers,
	}
}

// engineConfig is the per-run engine configuration derived from the
// session.
func (s *Session) engineConfig() engine.Config {
	return engine.Config{Ranks: s.cfg.ranks, Memory: s.cfg.memory, NB: s.cfg.nb}
}

// run executes one simulation on a fresh world of the given size under the
// session machine, layering the session safety timeout onto ctx, and folds
// the completed run into the session stats.
func (s *Session) run(ctx context.Context, world int, payload bool, fn smpi.RankFunc) (*VolumeReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, s.cfg.timeout,
			fmt.Errorf("conflux: simulation exceeded the session safety timeout %v", s.cfg.timeout))
		defer cancel()
	}
	// The topology is built per run: fault plans and fat-tree heights are
	// sized to the world actually simulated (which can exceed Ranks when
	// SolveRanks is larger).
	var tp trace.Topology
	if !s.cfg.topology.IsZero() || !s.cfg.faults.Empty() {
		var terr error
		tp, terr = topo.BuildFaulted(s.cfg.topology, s.cfg.machine, world, s.cfg.faults)
		if terr != nil {
			return nil, publicErr(terr)
		}
	}
	rep, err := smpi.Exec(ctx, smpi.Config{
		P:          world,
		Payload:    payload,
		Machine:    s.cfg.machine,
		MachineSet: true,
		Topology:   tp,
		Executor:   s.cfg.executor,
		Workers:    s.cfg.workers,
	}, fn)
	if err != nil {
		return nil, publicErr(err)
	}
	s.mu.Lock()
	s.stats.Runs++
	s.stats.Bytes += rep.TotalBytes()
	s.stats.SimTime += rep.Time.Makespan
	s.stats.Executor = rep.Executor
	s.mu.Unlock()
	return rep, nil
}

// Factorize runs a distributed LU factorization of a (n×n) on the session
// machine and returns the gathered factors. The input is not modified.
// Cancellation of ctx aborts the simulation and returns ErrCanceled.
func (s *Session) Factorize(ctx context.Context, a *Matrix) (*Result, error) {
	if a == nil || a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: Factorize requires a square matrix", ErrShape)
	}
	n := a.Rows
	cfg := s.engineConfig()
	var out *Result
	rep, err := s.run(ctx, s.cfg.ranks, true, func(c *smpi.Comm) error {
		var in *Matrix
		if c.Rank() == 0 {
			in = a
		}
		lu, perm, err := s.eng.Run(c, in, n, cfg)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			out = &Result{LU: lu, Perm: perm}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if out == nil {
		return nil, fmt.Errorf("conflux: no result gathered at rank 0")
	}
	if len(out.Perm) != n {
		return nil, fmt.Errorf("conflux: engine %q returned no pivot permutation; use FactorizeSPD for Cholesky", s.cfg.algorithm)
	}
	out.Volume = rep
	out.Time = rep.Time.Makespan
	out.CommTime = rep.Time.CritBusy()
	out.Executor = rep.Executor
	out.sess = s
	return out, nil
}

// Solve factorizes a with the session engine and solves a·x = b, returning
// x. The triangular solve runs distributed on the session's solve ranks,
// with the configured rounds of iterative refinement.
func (s *Session) Solve(ctx context.Context, a *Matrix, b []float64) ([]float64, error) {
	if a == nil || a.Rows != a.Cols || len(b) != a.Rows {
		return nil, fmt.Errorf("%w: Solve requires square A and len(b) == n", ErrShape)
	}
	bm := mat.FromSlice(len(b), 1, append([]float64(nil), b...))
	x, _, err := s.SolveMany(ctx, a, bm)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(b))
	for i := range out {
		out[i] = x.At(i, 0)
	}
	return out, nil
}

// SolveMany factorizes a and solves a·X = B for every column of B at once
// on the distributed machine, returning X and the factorization Result
// (whose SolveVolume/SolveBytes/SolveTime fields report the metered solve
// phase). With WithRefineSweeps(k), each of up to k sweeps recomputes the
// residual R = B − A·X and re-solves distributed for the correction,
// stopping early once the residual is at rounding level.
func (s *Session) SolveMany(ctx context.Context, a, b *Matrix) (*Matrix, *Result, error) {
	if a == nil || a.Rows != a.Cols || b == nil || b.Rows != a.Rows {
		return nil, nil, fmt.Errorf("%w: SolveMany requires square A and B with B.Rows == n", ErrShape)
	}
	res, err := s.Factorize(ctx, a)
	if err != nil {
		return nil, nil, err
	}
	x, err := res.SolveManyFactoredContext(ctx, b)
	if err != nil {
		return nil, nil, err
	}
	normB := mat.NormInf(b)
	for sweep := 0; sweep < s.cfg.refineSweeps; sweep++ {
		resid := b.Clone()
		blas.Gemm(-1, a, x, 1, resid)
		if mat.NormInf(resid) <= 1e-14*normB {
			break
		}
		d, err := res.SolveManyFactoredContext(ctx, resid)
		if err != nil {
			return nil, nil, err
		}
		x.AddFrom(d)
	}
	return x, res, nil
}

// CommVolume replays the session algorithm's communication schedule at
// dimension n in volume mode (no arithmetic, identical byte counts) and
// returns the report, including the simulated α-β time under the session
// machine (rep.Time).
func (s *Session) CommVolume(ctx context.Context, n int) (*VolumeReport, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: CommVolume requires n > 0", ErrShape)
	}
	cfg := s.engineConfig()
	return s.run(ctx, s.cfg.ranks, false, func(c *smpi.Comm) error {
		_, _, err := s.eng.Run(c, nil, n, cfg)
		return err
	})
}

// CommVolumeSolve replays a full factorize-plus-solve schedule at dimension
// n in volume mode on one simulated world: the session algorithm's
// factorization on the factorization ranks, then the distributed triangular
// solve with the configured right-hand-side count on the solve ranks — the
// same rank counts the numeric solve path uses. The returned report carries
// the factorization phases alongside "solve.fwd"/"solve.back", so the
// end-to-end communication volume and simulated α-β time of a solver
// workload can be read off one run.
func (s *Session) CommVolumeSolve(ctx context.Context, n int) (*VolumeReport, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: CommVolumeSolve requires n > 0", ErrShape)
	}
	cfg := s.engineConfig()
	sopt := trisolve.DefaultOptions(n, s.cfg.solveRanks, s.cfg.rhs)
	world := s.cfg.ranks
	if s.cfg.solveRanks > world {
		world = s.cfg.solveRanks
	}
	// Each phase runs on its own prefix sub-communicator, so the grids see
	// exactly the rank counts the numeric path gives them (grid ranks ==
	// world ranks, which the engines' sub-grid construction relies on).
	prefix := func(p int) []int {
		out := make([]int, p)
		for i := range out {
			out[i] = i
		}
		return out
	}
	factorComm, solveComm := prefix(s.cfg.ranks), prefix(s.cfg.solveRanks)
	return s.run(ctx, world, false, func(c *smpi.Comm) error {
		if c.Rank() < s.cfg.ranks {
			if _, _, err := s.eng.Run(c.Sub("factor", factorComm), nil, n, cfg); err != nil {
				return err
			}
		}
		if c.Rank() < s.cfg.solveRanks {
			if _, err := trisolve.Run(c.Sub("solve", solveComm), nil, nil, sopt); err != nil {
				return err
			}
		}
		return nil
	})
}

// FactorizeSPD runs the 2.5D Cholesky factorization (the paper conclusions'
// extension kernel) of a symmetric positive definite matrix on the session
// machine, returning the lower factor L with a = L·Lᵀ and the volume
// report. It dispatches to the Cholesky engine regardless of the session's
// configured LU algorithm.
func (s *Session) FactorizeSPD(ctx context.Context, a *Matrix) (*Matrix, *VolumeReport, error) {
	if a == nil || a.Rows != a.Cols {
		return nil, nil, fmt.Errorf("%w: FactorizeSPD requires a square matrix", ErrShape)
	}
	n := a.Rows
	eng, err := engine.Lookup(Cholesky)
	if err != nil {
		return nil, nil, publicErr(err)
	}
	cfg := s.engineConfig()
	var l *Matrix
	rep, err := s.run(ctx, s.cfg.ranks, true, func(c *smpi.Comm) error {
		var in *Matrix
		if c.Rank() == 0 {
			in = a
		}
		lower, _, err := eng.Run(c, in, n, cfg)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			l = lower
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if l == nil {
		return nil, nil, fmt.Errorf("conflux: no factor gathered at rank 0")
	}
	return l, rep, nil
}
