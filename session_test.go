package conflux

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/mat"
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

// TestSingularTyped: both solve paths (sequential fallback and the
// distributed engine) wrap ErrSingular.
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
		t.Fatalf("sequential path: %v", err)
	}

	s, err := New()
	if err != nil {
		t.Fatal(err)
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

// TestEnginesListsRegistry: the registry drives the public engine list.
func TestEnginesListsRegistry(t *testing.T) {
	got := map[Algorithm]bool{}
	for _, a := range Engines() {
		got[a] = true
	}
	for _, want := range []Algorithm{COnfLUX, CANDMC, LibSci, SLATE, Cholesky} {
		if !got[want] {
			t.Fatalf("Engines() = %v missing %q", Engines(), want)
		}
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
	free, err := New(WithFreeMachine())
	if err != nil {
		t.Fatal(err)
	}
	if !free.Config().Machine.IsZero() {
		t.Fatalf("Config().Machine = %+v after WithFreeMachine, want zero", free.Config().Machine)
	}
}
