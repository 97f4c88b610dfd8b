package conflux

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/mat"
	"repro/internal/smpi"
	"repro/internal/testutil"
)

// slowReplayN sizes the replay the cancellation tests interrupt: LibSci's
// partial pivoting runs one message round per column whatever any engine's
// blocking parameter is, so CommVolume(slowReplayN) at P=16 takes ~9 s on the
// 2-core CI host (2026-10-01) — 180× the 50 ms the tests allow it.
const slowReplayN = 16384

// TestSessionCancellation proves an in-flight simulation is interrupted:
// the volume replay below runs for several seconds uncanceled, but returns
// ErrCanceled well under that once the context fires.
func TestSessionCancellation(t *testing.T) {
	s, err := New(WithRanks(16), WithAlgorithm(LibSci))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = s.CommVolume(ctx, slowReplayN)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v must also wrap context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v — simulation not interrupted", elapsed)
	}
	if st := s.Stats(); st.Runs != 0 {
		t.Fatalf("canceled run counted into stats: %+v", st)
	}
}

// TestSessionSafetyTimeout: WithTimeout is a deadline even when the caller
// context has none.
func TestSessionSafetyTimeout(t *testing.T) {
	s, err := New(WithRanks(16), WithAlgorithm(LibSci), WithTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.CommVolume(context.Background(), slowReplayN)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v must also wrap DeadlineExceeded", err)
	}
}

func TestNewUnknownAlgorithm(t *testing.T) {
	_, err := New(WithAlgorithm("HPL"))
	if err == nil || !errors.Is(err, ErrUnknownAlgorithm) {
		t.Fatalf("err = %v, want ErrUnknownAlgorithm", err)
	}
	const want = `conflux: unknown algorithm: no registered engine for algorithm "HPL" (registered: [CANDMC COnfLUX Cholesky LibSci SLATE])`
	if err.Error() != want {
		t.Fatalf("err = %q\nwant  %q", err, want)
	}
}

func TestNewRejectsBadOptions(t *testing.T) {
	for name, opt := range map[string]Option{
		"ranks":      WithRanks(0),
		"solveRanks": WithSolveRanks(-1),
		"rhs":        WithRHS(0),
		"refine":     WithRefineSweeps(-2),
		"timeout":    WithTimeout(-time.Second),
		"blocksize":  WithBlockSize(-1),
		"alphaNaN":   WithMachine(Machine{Alpha: math.NaN(), Beta: 1e-10}),
		"betaInf":    WithMachine(Machine{Alpha: 1e-6, Beta: math.Inf(1)}),
		"betaNeg":    WithMachine(Machine{Alpha: 1e-6, Beta: -1e-10}),
		"memoryNaN":  WithMemory(math.NaN()),
		"memoryInf":  WithMemory(math.Inf(1)),
	} {
		if _, err := New(opt); err == nil {
			t.Fatalf("%s: invalid option accepted", name)
		}
	}
}

func TestShapeErrorsTyped(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Factorize(t.Context(), NewMatrix(3, 4)); !errors.Is(err, ErrShape) {
		t.Fatalf("Factorize: %v", err)
	}
	if _, err := s.Factorize(t.Context(), nil); !errors.Is(err, ErrShape) {
		t.Fatalf("Factorize(nil): %v", err)
	}
	if _, err := s.Solve(t.Context(), RandomMatrix(4, 1), make([]float64, 5)); !errors.Is(err, ErrShape) {
		t.Fatalf("Solve: %v", err)
	}
	if _, err := s.CommVolume(t.Context(), 0); !errors.Is(err, ErrShape) {
		t.Fatalf("CommVolume: %v", err)
	}
}

// TestZeroShapeEveryJob: every job on every engine refuses n = 0 with
// ErrShape before any world starts, so no run is counted.
func TestZeroShapeEveryJob(t *testing.T) {
	empty := NewMatrix(0, 0)
	jobs := map[string]func(*Session) error{
		"Factorize": func(s *Session) error { _, err := s.Factorize(t.Context(), empty); return err },
		"FactorizeSPD": func(s *Session) error {
			_, _, err := s.FactorizeSPD(t.Context(), empty)
			return err
		},
		"Solve": func(s *Session) error { _, err := s.Solve(t.Context(), empty, nil); return err },
		"SolveMany": func(s *Session) error {
			_, _, err := s.SolveMany(t.Context(), empty, NewMatrix(0, 1))
			return err
		},
		"CommVolume":      func(s *Session) error { _, err := s.CommVolume(t.Context(), 0); return err },
		"CommVolumeSolve": func(s *Session) error { _, err := s.CommVolumeSolve(t.Context(), 0); return err },
	}
	for _, algo := range Engines() {
		s, err := New(WithAlgorithm(algo), WithRanks(4))
		if err != nil {
			t.Fatal(err)
		}
		for name, job := range jobs {
			if err := job(s); !errors.Is(err, ErrShape) {
				t.Errorf("%s %s at n=0: %v, want ErrShape", algo, name, err)
			}
		}
		if runs := s.Stats().Runs; runs != 0 {
			t.Errorf("%s: %d runs at n=0, want none", algo, runs)
		}
	}
}

// TestSolveManyZeroColumnsBeforeFactorize: a B with no columns fails
// SolveMany with ErrShape before the factorization runs.
func TestSolveManyZeroColumnsBeforeFactorize(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.SolveMany(t.Context(), RandomMatrix(8, 1), NewMatrix(8, 0)); !errors.Is(err, ErrShape) {
		t.Fatalf("SolveMany with a 0-column B: %v, want ErrShape", err)
	}
	if runs := s.Stats().Runs; runs != 0 {
		t.Fatalf("SolveMany with a 0-column B ran %d simulations before refusing it", runs)
	}
}

// TestSingularTyped: a hand-assembled Result, which solves on a one-rank
// session, and a Factorize result, which solves on its own session, both
// wrap ErrSingular. Hand-assembled Results of nonsingular factors solve to
// rounding level and meter the solve.
func TestSingularTyped(t *testing.T) {
	n := 8
	lu := NewMatrix(n, n)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
		lu.Set(i, i, 1)
	}
	lu.Set(5, 5, 0)
	hand := &Result{LU: lu, Perm: perm}
	if _, err := hand.SolveFactoredContext(t.Context(), make([]float64, n)); !errors.Is(err, ErrSingular) {
		t.Fatalf("hand-assembled: %v", err)
	}

	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 3, 17, 64} {
		a := RandomMatrix(n, uint64(n))
		res, err := s.Factorize(t.Context(), a)
		if err != nil {
			t.Fatal(err)
		}
		hand := &Result{LU: res.LU, Perm: res.Perm}
		b := make([]float64, n)
		for i := range b {
			b[i] = float64(i%5) - 1.5
		}
		x, err := hand.SolveFactoredContext(t.Context(), b)
		if err != nil {
			t.Fatalf("hand-assembled n=%d: %v", n, err)
		}
		resid, normB := 0.0, 0.0
		for i := range b {
			ri := b[i]
			for j, xj := range x {
				ri -= a.At(i, j) * xj
			}
			resid, normB = max(resid, math.Abs(ri)), max(normB, math.Abs(b[i]))
		}
		if resid > 1e-12*normB {
			t.Fatalf("hand-assembled n=%d: residual %v, want <= 1e-12 * %v", n, resid, normB)
		}
		if hand.SolveVolume == nil {
			t.Fatalf("hand-assembled n=%d: SolveVolume not set", n)
		}
	}
	res, err := s.Factorize(t.Context(), RandomMatrix(32, 13))
	if err != nil {
		t.Fatal(err)
	}
	res.LU.Set(17, 17, 0)
	if _, err := res.SolveFactoredContext(t.Context(), make([]float64, 32)); !errors.Is(err, ErrSingular) {
		t.Fatalf("distributed path: %v", err)
	}
}

// TestWithFreeMachine pins the zero-value satellite: the all-free machine
// is expressible (volume metered, simulated time exactly zero), while a
// session with no machine option runs under DefaultMachine.
func TestWithFreeMachine(t *testing.T) {
	n, p := 64, 4
	free, err := New(WithRanks(p), WithFreeMachine())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := free.CommVolume(t.Context(), n)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalBytes() == 0 {
		t.Fatal("free machine must still meter volume")
	}
	if rep.Time.Makespan != 0 {
		t.Fatalf("free machine makespan = %v, want 0", rep.Time.Makespan)
	}
	// WithMachine(Machine{}) is the same explicit request.
	explicit, err := New(WithRanks(p), WithMachine(Machine{}))
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := explicit.CommVolume(t.Context(), n)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Time.Makespan != 0 {
		t.Fatalf("explicit zero machine makespan = %v, want 0", rep2.Time.Makespan)
	}
	// No machine option selects the default (nonzero α-β), and
	// Machine.IsZero tells the two cases apart.
	def, err := mustNew(t, WithRanks(p)).CommVolume(t.Context(), n)
	if err != nil {
		t.Fatal(err)
	}
	if def.Time.Makespan == 0 {
		t.Fatal("an absent machine option must mean DefaultMachine, not all-free")
	}
	if !(Machine{}).IsZero() || DefaultMachine().IsZero() {
		t.Fatal("Machine.IsZero misclassifies")
	}
}

// TestResultConcurrentSolves: the solve accounting on one Result is
// goroutine-safe (run under -race) and accumulates every solve exactly
// once.
func TestResultConcurrentSolves(t *testing.T) {
	n := 48
	a := RandomMatrix(n, 9)
	s, err := New(WithRanks(4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Factorize(t.Context(), a)
	if err != nil {
		t.Fatal(err)
	}
	base, err := res.SolveManyFactoredContext(t.Context(), mat.Random(n, 1, 7))
	if err != nil {
		t.Fatal(err)
	}
	_ = base
	perSolveBytes, perSolveTime := res.SolveBytes, res.SolveTime

	const workers = 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			b := mat.Random(n, 1, seed)
			x, err := res.SolveManyFactoredContext(context.Background(), b)
			if err != nil {
				t.Errorf("solve: %v", err)
				return
			}
			if be := testutil.SolveBackwardError(a, x, b); be > 1e-9 {
				t.Errorf("backward error %v", be)
			}
		}(uint64(100 + w))
	}
	wg.Wait()
	if res.SolveBytes != perSolveBytes*(workers+1) {
		t.Fatalf("byte accounting lost updates: %d, want %d", res.SolveBytes, perSolveBytes*(workers+1))
	}
	// The makespans are identical floats, but summation order vs a single
	// multiplication can differ by rounding — compare within ulp scale.
	wantTime := perSolveTime * (workers + 1)
	if diff := res.SolveTime - wantTime; diff > 1e-12*wantTime || diff < -1e-12*wantTime {
		t.Fatalf("time accounting lost updates: %v, want %v", res.SolveTime, wantTime)
	}
	st := s.Stats()
	if st.Runs != workers+2 { // factorize + 1 serial + workers concurrent solves
		t.Fatalf("session runs = %d, want %d", st.Runs, workers+2)
	}
}

// TestEnginesListsRegistry: the engine table drives the public engine list,
// in sorted order.
func TestEnginesListsRegistry(t *testing.T) {
	if got, want := Engines(), []Algorithm{CANDMC, COnfLUX, Cholesky, LibSci, SLATE}; !slices.Equal(got, want) {
		t.Fatalf("Engines() = %q, want %q", got, want)
	}
}

// TestFactorizeWithCholeskyEngineRejected: the generic LU entry point
// reports a clear error for the permutation-less Cholesky engine rather
// than returning unusable factors.
func TestFactorizeWithCholeskyEngineRejected(t *testing.T) {
	s, err := New(WithAlgorithm(Cholesky))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Factorize(t.Context(), testutil.SPD(16, 3)); err == nil {
		t.Fatal("Factorize with the Cholesky engine must error (use FactorizeSPD)")
	}
}

// TestWithMemoryValidation: WithMemory(0) keeps meaning "paper default",
// but a negative m is rejected like every other out-of-range option value
// instead of being silently coerced to the default.
func TestWithMemoryValidation(t *testing.T) {
	if _, err := New(WithMemory(-1)); err == nil {
		t.Fatal("WithMemory(-1): invalid option accepted")
	}
	s, err := New(WithMemory(0))
	if err != nil {
		t.Fatalf("WithMemory(0): %v", err)
	}
	if got := s.Config().Memory; got != 0 {
		t.Fatalf("WithMemory(0) resolved to %v, want 0 (paper default)", got)
	}
	s, err = New(WithMemory(4096))
	if err != nil {
		t.Fatalf("WithMemory(4096): %v", err)
	}
	if got := s.Config().Memory; got != 4096 {
		t.Fatalf("WithMemory(4096) resolved to %v", got)
	}
}

// TestSessionConfigResolved: Config() reports the canonical tuple with the
// construction-time defaults already applied, and a session built from no
// options at all (COnfLUX on 4 ranks) factorizes.
func TestSessionConfigResolved(t *testing.T) {
	def := mustNew(t)
	if cfg := def.Config(); cfg.Ranks != 4 || cfg.Algorithm != COnfLUX || cfg.RHS != 1 {
		t.Fatalf("default Config() = %+v, want COnfLUX on 4 ranks, 1 RHS", cfg)
	}
	a := RandomMatrix(32, 3)
	res, err := def.Factorize(t.Context(), a)
	if err != nil {
		t.Fatal(err)
	}
	if r := testutil.ResidualLUPerm(a, res.LU, res.Perm); r > 1e-11 {
		t.Fatalf("default session residual %v", r)
	}
	s, err := New(WithRanks(9), WithAlgorithm(SLATE), WithRHS(3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Config()
	if cfg.Ranks != 9 || cfg.Algorithm != SLATE || cfg.RHS != 3 {
		t.Fatalf("Config() = %+v lost explicit options", cfg)
	}
	if cfg.SolveRanks != 9 {
		t.Fatalf("Config().SolveRanks = %d, want resolved default 9", cfg.SolveRanks)
	}
	if cfg.Machine != DefaultMachine() {
		t.Fatalf("Config().Machine = %+v, want resolved DefaultMachine", cfg.Machine)
	}
	if cfg.Executor != "goroutines" || cfg.Workers != 1 {
		t.Fatalf("Config() executor/workers = %q/%d, want goroutines/1", cfg.Executor, cfg.Workers)
	}
	// Every other option reads back unchanged; the fault plan as its
	// canonical string.
	faults := FaultPlan{Stragglers: []Straggler{{Rank: 3, Factor: 2}, {Rank: 1, Factor: 1.5}},
		Links: []LinkFault{{FromNode: 0, ToNode: 1, Factor: 4}}}
	preset, err := TopologyPreset("dragonfly-contended")
	if err != nil {
		t.Fatal(err)
	}
	s, err = New(WithRanks(9), WithMemory(1e5), WithBlockSize(16), WithRefineSweeps(2),
		WithTimeout(time.Minute), WithWorkers(3), WithExecutor("events"),
		WithTopologyPreset("dragonfly-contended"), WithFaults(faults))
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Ranks: 9, Memory: 1e5, Algorithm: COnfLUX, Machine: DefaultMachine(), SolveRanks: 9,
		RHS: 1, RefineSweeps: 2, BlockSize: 16, Topology: preset, Faults: faults.Canonical(),
		Timeout: time.Minute, Executor: "events", Workers: 3}
	if got := s.Config(); got != want {
		t.Fatalf("Config() = %+v\nwant       %+v", got, want)
	}
	free, err := New(WithFreeMachine())
	if err != nil {
		t.Fatal(err)
	}
	if !free.Config().Machine.IsZero() {
		t.Fatalf("Config().Machine = %+v after WithFreeMachine, want zero", free.Config().Machine)
	}
}

// TestTinyNAtDeepReplication runs every engine at n ≤ 2 on the rank counts
// whose replication rule asked for more layers than rows (P ∈ {8, 16, 27,
// 31} give c = 2 or 3). The 2.5D engines then had no blocking parameter
// (v ≥ c and v ≤ n) and their ranks panicked.
func TestTinyNAtDeepReplication(t *testing.T) {
	for _, p := range []int{8, 16, 27, 31} {
		for n := 1; n <= 2; n++ {
			for _, algo := range Engines() {
				s, err := New(WithRanks(p), WithAlgorithm(algo))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.CommVolume(t.Context(), n); err != nil {
					t.Errorf("%s CommVolume(%d) at P=%d: %v", algo, n, p, err)
				}
				if algo == Cholesky {
					if _, _, err := s.FactorizeSPD(t.Context(), testutil.SPD(n, 7)); err != nil {
						t.Errorf("FactorizeSPD(%d) at P=%d: %v", n, p, err)
					}
					continue
				}
				a := RandomMatrix(n, 7)
				res, err := s.Factorize(t.Context(), a)
				if err != nil {
					t.Errorf("%s Factorize(%d) at P=%d: %v", algo, n, p, err)
					continue
				}
				if r := testutil.ResidualLUPerm(a, res.LU, res.Perm); r > 1e-12 {
					t.Errorf("%s Factorize(%d) at P=%d: residual %v", algo, n, p, r)
				}
			}
		}
	}
}

// panicEngine is an engine whose rank 1 panics with v.
type panicEngine struct {
	engine.Engine
	v any
}

func (e panicEngine) Run(c *smpi.Comm, in *Matrix, n int, cfg engine.Config) (*Matrix, []int, error) {
	if c.Rank() == 1 {
		panic(e.v)
	}
	return nil, nil, nil
}

// TestRankPanicOneLine: a rank that panics fails CommVolume with one line of
// text, no goroutine stack in it, while errors.As still reaches the rank and
// its stack, and an error panic value stays reachable through errors.Is.
func TestRankPanicOneLine(t *testing.T) {
	errBoom := errors.New("boom")
	for _, v := range []any{"boom", fmt.Errorf("engine: %w", errBoom)} {
		s := mustNew(t, WithRanks(2))
		s.eng = panicEngine{s.eng, v}
		_, err := s.CommVolume(t.Context(), 8)
		var pe *smpi.PanicError
		if !errors.As(err, &pe) || pe.Rank != 1 || !strings.Contains(string(pe.Stack), "goroutine ") {
			t.Fatalf("panic(%v): err = %v, want a rank-1 smpi.PanicError with its stack", v, err)
		}
		if msg := err.Error(); strings.Contains(msg, "\n") || strings.Contains(msg, "goroutine ") {
			t.Fatalf("panic(%v): error text %q, want one line without a stack", v, msg)
		}
		if _, isErr := v.(error); isErr != errors.Is(err, errBoom) {
			t.Fatalf("panic(%v): errors.Is(err, errBoom) = %v", v, !isErr)
		}
	}
}
