package conflux

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/blas"
	"repro/internal/engine"
	"repro/internal/mat"
	"repro/internal/smpi"
	"repro/internal/topo"
	"repro/internal/trace"
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
	cfg Config
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

// Option configures a Session under construction (functional options).
type Option func(*Config) error

// WithRanks sets the number of simulated processors P (default 4).
func WithRanks(p int) Option {
	return func(c *Config) error {
		if p <= 0 {
			return fmt.Errorf("conflux: WithRanks requires p > 0, got %d", p)
		}
		c.Ranks = p
		return nil
	}
}

// WithMemory sets the per-rank fast memory M in elements. WithMemory(0)
// selects the paper's maximum-replication default M = N²/P^(2/3), resolved
// per job from its matrix dimension; a negative or non-finite m is rejected
// like every other out-of-range option value.
func WithMemory(m float64) Option {
	return func(c *Config) error {
		if err := trace.CheckNonNegative("m", m); err != nil {
			return fmt.Errorf("conflux: WithMemory: %w (0 selects the paper default)", err)
		}
		c.Memory = m
		return nil
	}
}

// WithAlgorithm selects the engine (default COnfLUX). The name must be one
// of Engines(); New fails with ErrUnknownAlgorithm otherwise.
func WithAlgorithm(a Algorithm) Option {
	return func(c *Config) error {
		c.Algorithm = a
		return nil
	}
}

// WithMachine sets the α-β machine parameters exactly as given — including
// the all-free zero Machine, which WithFreeMachine names explicitly. The
// default (option absent) is DefaultMachine(). A negative or non-finite α or
// β is rejected: no report computed under one means anything.
func WithMachine(m Machine) Option {
	return func(c *Config) error {
		if err := errors.Join(trace.CheckNonNegative("alpha", m.Alpha), trace.CheckNonNegative("beta", m.Beta)); err != nil {
			return fmt.Errorf("conflux: WithMachine: %w", err)
		}
		c.Machine = m
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
	return func(c *Config) error {
		if p <= 0 {
			return fmt.Errorf("conflux: WithSolveRanks requires p > 0, got %d", p)
		}
		c.SolveRanks = p
		return nil
	}
}

// WithRHS sets the right-hand-side count volume-mode solve replays
// generate (default 1). Numeric solves infer the width from B.
func WithRHS(nrhs int) Option {
	return func(c *Config) error {
		if nrhs <= 0 {
			return fmt.Errorf("conflux: WithRHS requires nrhs > 0, got %d", nrhs)
		}
		c.RHS = nrhs
		return nil
	}
}

// WithRefineSweeps bounds the iterative-refinement loop of Solve and
// SolveMany: after the direct solve, up to k rounds of residual
// recomputation and distributed re-solve (default 0: none).
func WithRefineSweeps(k int) Option {
	return func(c *Config) error {
		if k < 0 {
			return fmt.Errorf("conflux: WithRefineSweeps requires k >= 0, got %d", k)
		}
		c.RefineSweeps = k
		return nil
	}
}

// WithBlockSize sets the block size for engines with a user-specified
// blocking parameter (LibSci; Table 2 lists it as a user choice). 0 selects
// the engine default.
func WithBlockSize(nb int) Option {
	return func(c *Config) error {
		if nb < 0 {
			return fmt.Errorf("conflux: WithBlockSize requires nb >= 0, got %d", nb)
		}
		c.BlockSize = nb
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
	return func(c *Config) error {
		e, err := smpi.ResolveExecutor(smpi.Executor(name))
		if err != nil {
			return publicErr(err)
		}
		c.Executor = string(e)
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
	return func(c *Config) error {
		if n < 1 {
			return fmt.Errorf("conflux: WithWorkers requires n >= 1, got %d", n)
		}
		c.Workers = n
		return nil
	}
}

// WithTimeout sets the safety-net bound on every simulation the session
// runs, applied on top of whatever deadline the per-call context carries —
// it exists so a schedule bug surfaces as ErrCanceled instead of a
// deadlock. Default 10 minutes; 0 disables it (rely on the context alone).
func WithTimeout(d time.Duration) Option {
	return func(c *Config) error {
		if d < 0 {
			return fmt.Errorf("conflux: WithTimeout requires d >= 0, got %v", d)
		}
		c.Timeout = d
		return nil
	}
}

// New constructs a Session from functional options, validating each option
// and that the selected algorithm names an engine (otherwise the error wraps
// ErrUnknownAlgorithm).
func New(opts ...Option) (*Session, error) {
	cfg := Config{
		Ranks:     4,
		Algorithm: COnfLUX,
		Machine:   DefaultMachine(),
		RHS:       1,
		Timeout:   10 * time.Minute,
		Executor:  string(smpi.ExecGoroutines),
		Workers:   1,
	}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.SolveRanks == 0 {
		cfg.SolveRanks = cfg.Ranks
	}
	eng, err := engine.Lookup(cfg.Algorithm)
	if err != nil {
		return nil, publicErr(err)
	}
	return &Session{cfg: cfg, eng: eng}, nil
}

// Engines returns the engines' algorithm names in sorted order — the set
// WithAlgorithm accepts.
func Engines() []Algorithm { return engine.Names() }

// Algorithm returns the engine the session dispatches to.
func (s *Session) Algorithm() Algorithm { return s.cfg.Algorithm }

// Ranks returns the simulated world size P of the session's machine.
func (s *Session) Ranks() int { return s.cfg.Ranks }

// Machine returns the α-β machine parameters the session's clocks advance
// with.
func (s *Session) Machine() Machine { return s.cfg.Machine }

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
func (s *Session) Config() Config { return s.cfg }

// engineConfig is the per-run engine configuration derived from the
// session.
func (s *Session) engineConfig() engine.Config {
	return engine.Config{Ranks: s.cfg.Ranks, Memory: s.cfg.Memory, NB: s.cfg.BlockSize}
}

// run executes one simulation on a fresh world of the given size under the
// session machine, layering the session safety timeout onto ctx, and folds
// the completed run into the session stats.
func (s *Session) run(ctx context.Context, world int, payload bool, fn smpi.RankFunc) (*VolumeReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, s.cfg.Timeout,
			fmt.Errorf("conflux: simulation exceeded the session safety timeout %v", s.cfg.Timeout))
		defer cancel()
	}
	// The topology is built per run: fault plans and fat-tree heights are
	// sized to the world actually simulated (which can exceed Ranks when
	// SolveRanks is larger). A zero Topology with no faults builds nil, the
	// plain machine path.
	fp, err := topo.ParseFaultPlan(s.cfg.Faults)
	if err != nil {
		return nil, publicErr(err)
	}
	tp, err := topo.BuildFaulted(s.cfg.Topology, s.cfg.Machine, world, fp)
	if err != nil {
		return nil, publicErr(err)
	}
	w := smpi.NewWorldMachine(world, payload, s.cfg.Machine)
	w.Trace.SetTopology(tp)
	rep, err := smpi.Exec(ctx, smpi.Config{World: w, Executor: smpi.Executor(s.cfg.Executor), Workers: s.cfg.Workers}, fn)
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

// checkShape is the one shape rule of every job, met before any world
// starts: n ≥ 1, A (ab[0], when the job takes one) n×n, and B (ab[1], when
// it solves) n rows by at least one column. A nil matrix fails it.
func checkShape(job string, n int, ab ...*Matrix) error {
	ok := n >= 1
	for i, m := range ab {
		ok = ok && m != nil && m.Rows == n && m.Cols >= 1 && (i > 0 || m.Cols == n)
	}
	if !ok {
		return fmt.Errorf("%w: %s needs n >= 1, an n×n A and an n-row B with at least one column", ErrShape, job)
	}
	return nil
}

// order is A's dimension n, or 0 for a nil A (which checkShape refuses).
func order(a *Matrix) int {
	if a == nil {
		return 0
	}
	return a.Rows
}

// Factorize runs a distributed LU factorization of a (n×n) on the session
// machine and returns the gathered factors. The input is not modified.
// Cancellation of ctx aborts the simulation and returns ErrCanceled.
func (s *Session) Factorize(ctx context.Context, a *Matrix) (*Result, error) {
	lu, perm, rep, err := s.factor(ctx, s.eng, a)
	if err != nil {
		return nil, err
	}
	if len(perm) != a.Rows {
		return nil, fmt.Errorf("conflux: engine %q returned no pivot permutation; use FactorizeSPD for Cholesky", s.cfg.Algorithm)
	}
	return &Result{
		LU:       lu,
		Perm:     perm,
		Volume:   rep,
		Time:     rep.Time.Makespan,
		CommTime: rep.Time.CritBusy(),
		Executor: rep.Executor,
		sess:     s,
	}, nil
}

// factor is the rank body Factorize and FactorizeSPD share: a must pass
// checkShape, rank 0 feeds it, eng runs on the session's ranks, and rank 0
// keeps the factor and pivot permutation it gathered.
func (s *Session) factor(ctx context.Context, eng engine.Engine, a *Matrix) (*Matrix, []int, *VolumeReport, error) {
	if err := checkShape(string(eng.Name())+" factorization", order(a), a); err != nil {
		return nil, nil, nil, err
	}
	n := a.Rows
	cfg := s.engineConfig()
	var lu *Matrix
	var perm []int
	rep, err := s.run(ctx, s.cfg.Ranks, true, func(c *smpi.Comm) error {
		var in *Matrix
		if c.Rank() == 0 {
			in = a
		}
		f, p, err := eng.Run(c, in, n, cfg)
		if c.Rank() == 0 {
			lu, perm = f, p
		}
		return err
	})
	if err != nil {
		return nil, nil, nil, err
	}
	if lu == nil {
		return nil, nil, nil, fmt.Errorf("conflux: no factor gathered at rank 0")
	}
	return lu, perm, rep, nil
}

// Solve factorizes a with the session engine and solves a·x = b, returning
// x. The triangular solve runs distributed on the session's solve ranks,
// with the configured rounds of iterative refinement.
func (s *Session) Solve(ctx context.Context, a *Matrix, b []float64) ([]float64, error) {
	bm := mat.FromSlice(len(b), 1, append([]float64(nil), b...))
	x, _, err := s.SolveMany(ctx, a, bm)
	if err != nil {
		return nil, err
	}
	return x.Pack(), nil
}

// SolveMany factorizes a and solves a·X = B for every column of B at once
// on the distributed machine, returning X and the factorization Result
// (whose SolveVolume/SolveBytes/SolveTime fields report the metered solve
// phase). With WithRefineSweeps(k), each of up to k sweeps recomputes the
// residual R = B − A·X and re-solves distributed for the correction,
// stopping early once the residual is at rounding level.
func (s *Session) SolveMany(ctx context.Context, a, b *Matrix) (*Matrix, *Result, error) {
	if err := checkShape("SolveMany", order(a), a, b); err != nil {
		return nil, nil, err
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
	for sweep := 0; sweep < s.cfg.RefineSweeps; sweep++ {
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
	if err := checkShape("CommVolume", n); err != nil {
		return nil, err
	}
	job := engine.VolumeJob(s.eng, n, s.engineConfig())
	return s.run(ctx, job.World, false, job.Body)
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
	if err := checkShape("CommVolumeSolve", n); err != nil {
		return nil, err
	}
	job := engine.SolveJob(s.eng, n, s.engineConfig(), s.cfg.SolveRanks, s.cfg.RHS)
	return s.run(ctx, job.World, false, job.Body)
}

// FactorizeSPD runs the 2.5D Cholesky factorization (the paper conclusions'
// extension kernel) of a symmetric positive definite matrix on the session
// machine, returning the lower factor L with a = L·Lᵀ and the volume
// report. It dispatches to the Cholesky engine regardless of the session's
// configured LU algorithm. An input with a pivot that is not positive —
// zero, negative or NaN — fails with ErrNotPositiveDefinite.
func (s *Session) FactorizeSPD(ctx context.Context, a *Matrix) (*Matrix, *VolumeReport, error) {
	eng, err := engine.Lookup(Cholesky)
	if err != nil {
		return nil, nil, publicErr(err)
	}
	l, _, rep, err := s.factor(ctx, eng, a)
	if err != nil {
		return nil, nil, err
	}
	return l, rep, nil
}
