package plan

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	conflux "repro"
)

func volumeReq(t *testing.T, n, p int) Request {
	t.Helper()
	// In a Request the zero machine IS the all-free machine (there is no
	// "unset"); the paper-default α-β is spelled explicitly, as the HTTP
	// layer does for absent parameters.
	m := conflux.DefaultMachine()
	req, err := Request{Algorithm: conflux.COnfLUX, N: n, P: p, Alpha: m.Alpha, Beta: m.Beta}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// gatedRunner blocks every computation until release is closed, counting
// invocations.
type gatedRunner struct {
	mu      sync.Mutex
	calls   int
	release chan struct{}
}

func (g *gatedRunner) run(ctx context.Context, req Request, _ []Machine) (Answers, error) {
	g.mu.Lock()
	g.calls++
	g.mu.Unlock()
	select {
	case <-g.release:
		return Answers{req.Job: {{TotalBytes: int64(req.N)}}}, nil
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}
}

func (g *gatedRunner) count() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.calls
}

// TestEvaluateSingleflight: concurrent identical requests coalesce onto
// one simulation, and every caller gets its result.
func TestEvaluateSingleflight(t *testing.T) {
	g := &gatedRunner{release: make(chan struct{})}
	p := NewPlanner(t.Context(), Options{MaxInFlight: 4, Runner: g.run})
	req := volumeReq(t, 64, 4)
	const clients = 50
	var wg sync.WaitGroup
	results := make([]*Exact, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, errs[i] = p.Evaluate(context.Background(), req, 5*time.Second)
		}(i)
	}
	// Let the clients pile onto the in-flight entry, then release it.
	time.Sleep(20 * time.Millisecond)
	close(g.release)
	wg.Wait()
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if results[i] == nil || results[i].TotalBytes != 64 {
			t.Fatalf("client %d: result %+v", i, results[i])
		}
	}
	if g.count() != 1 {
		t.Fatalf("%d simulations ran for %d identical requests, want 1", g.count(), clients)
	}
	if st := p.Stats(); st.Simulations != 1 || st.Cache.Misses != 1 {
		t.Fatalf("stats %+v: want 1 simulation, 1 miss", st)
	}
}

// TestEvaluateFastTier: wait=0 returns OutcomePending immediately while
// the computation proceeds detached; once it lands, the same request is a
// cache hit.
func TestEvaluateFastTier(t *testing.T) {
	g := &gatedRunner{release: make(chan struct{})}
	p := NewPlanner(t.Context(), Options{MaxInFlight: 1, Runner: g.run})
	req := volumeReq(t, 96, 4)
	val, out, err := p.Evaluate(context.Background(), req, 0)
	if err != nil || out != OutcomePending || val != nil {
		t.Fatalf("first call: val=%v out=%q err=%v, want pending", val, out, err)
	}
	close(g.release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		val, out, err = p.Evaluate(context.Background(), req, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if out == OutcomeHit {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no cache hit after background completion (out=%q)", out)
		}
		time.Sleep(time.Millisecond)
	}
	if val.TotalBytes != 96 {
		t.Fatalf("cached value %+v", val)
	}
	if g.count() != 1 {
		t.Fatalf("%d simulations, want 1", g.count())
	}
}

// waitInFlight blocks until n detached computations hold simulation slots
// — the occupier's slot acquisition is asynchronous to its Evaluate call.
func waitInFlight(t *testing.T, p *Planner, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().InFlight < n {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight count never reached %d (stats %+v)", n, p.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// waitDrained blocks until no simulation holds a pool slot — the release
// happens after the result is published, so a completed Evaluate does not
// imply a free slot yet.
func waitDrained(t *testing.T, p *Planner) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().InFlight > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pool never drained (stats %+v)", p.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShedOverloaded: with the pool saturated and no queue, a distinct
// request is shed immediately with the typed ErrOverloaded.
func TestShedOverloaded(t *testing.T) {
	g := &gatedRunner{release: make(chan struct{})}
	p := NewPlanner(t.Context(), Options{MaxInFlight: 1, MaxQueue: -1, Runner: g.run})
	if _, out, err := p.Evaluate(context.Background(), volumeReq(t, 64, 4), 0); err != nil || out != OutcomePending {
		t.Fatalf("occupier: out=%q err=%v", out, err)
	}
	waitInFlight(t, p, 1)
	_, _, err := p.Evaluate(context.Background(), volumeReq(t, 65, 4), time.Second)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if st := p.Stats(); st.ShedQueueFull == 0 {
		t.Fatalf("stats %+v: shed not recorded", st)
	}
	close(g.release)
}

// TestShedQueueTimeout: a queued request that never gets a slot sheds with
// the typed ErrQueueTimeout after the queue timeout.
func TestShedQueueTimeout(t *testing.T) {
	g := &gatedRunner{release: make(chan struct{})}
	p := NewPlanner(t.Context(), Options{
		MaxInFlight: 1, MaxQueue: 8, QueueTimeout: 30 * time.Millisecond, Runner: g.run,
	})
	if _, _, err := p.Evaluate(context.Background(), volumeReq(t, 64, 4), 0); err != nil {
		t.Fatal(err)
	}
	waitInFlight(t, p, 1)
	_, _, err := p.Evaluate(context.Background(), volumeReq(t, 66, 4), 5*time.Second)
	if !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("err = %v, want ErrQueueTimeout", err)
	}
	if st := p.Stats(); st.ShedQueueTimeout == 0 {
		t.Fatalf("stats %+v: shed not recorded", st)
	}
	close(g.release)
}

// TestShedRetriesAfterRecovery: shedding is not sticky — once the pool
// frees up, the same request computes normally.
func TestShedRetriesAfterRecovery(t *testing.T) {
	g := &gatedRunner{release: make(chan struct{})}
	p := NewPlanner(t.Context(), Options{MaxInFlight: 1, MaxQueue: -1, Runner: g.run})
	occupier := volumeReq(t, 64, 4)
	victim := volumeReq(t, 65, 4)
	p.Evaluate(context.Background(), occupier, 0)
	waitInFlight(t, p, 1)
	if _, _, err := p.Evaluate(context.Background(), victim, time.Second); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	close(g.release)
	waitDrained(t, p) // the occupier's slot must actually free
	val, _, err := p.Evaluate(context.Background(), victim, 5*time.Second)
	if err != nil || val == nil || val.TotalBytes != 65 {
		t.Fatalf("post-recovery: val=%+v err=%v", val, err)
	}
}

// TestNoGoroutineLeakAfterBurst: a burst of coalesced and shed requests
// leaves no goroutines behind once computations drain.
func TestNoGoroutineLeakAfterBurst(t *testing.T) {
	before := runtime.NumGoroutine()
	g := &gatedRunner{release: make(chan struct{})}
	p := NewPlanner(t.Context(), Options{MaxInFlight: 2, MaxQueue: 4, QueueTimeout: 20 * time.Millisecond, Runner: g.run})
	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p.Evaluate(context.Background(), volumeReq(t, 32+i%8, 4), 50*time.Millisecond)
		}(i)
	}
	wg.Wait()
	close(g.release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before burst, %d after drain", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestExactMatchesUncachedSession is the acceptance pin: the planner's
// cached exact tier is byte-identical to an uncached Session run — and
// identical whichever executor or window width that uncached run uses,
// which is precisely why executor/workers are excluded from the key. It
// holds for answers another request's run produced too: once the planner
// has served hier-contended, the plain-machine solve run records its
// schedule, and the volume request answered from that run's marks, and the
// hier-contended volume request answered from their pricing, each equal an
// uncached Session run.
func TestExactMatchesUncachedSession(t *testing.T) {
	pl := NewPlanner(t.Context(), Options{MaxInFlight: 2})
	spec, err := conflux.TopologyPreset("hier-contended")
	if err != nil {
		t.Fatal(err)
	}
	eval := func(r Request, want Outcome) *Exact {
		t.Helper()
		v, out, err := pl.Evaluate(context.Background(), r, 30*time.Second)
		if err != nil || v == nil || out != want {
			t.Fatalf("evaluate %s: out=%q err=%v, want %q", r.Key(), out, err, want)
		}
		return v
	}
	warm := volumeReq(t, 64, 8)
	warm.Topology = spec
	eval(warm, OutcomeComputed)
	req := volumeReq(t, 96, 8)
	solveReq := req
	solveReq.Job = JobSolve
	solved := eval(solveReq, OutcomeComputed)
	got := eval(req, OutcomeComputed)
	// A repeat must be a pure cache hit with the same value.
	if again := eval(req, OutcomeHit); *again != *got {
		t.Fatalf("re-evaluate: %+v, first %+v", again, got)
	}
	hier := req
	hier.Topology = spec
	priced := eval(hier, OutcomeComputed)
	if st := pl.Stats(); st.Simulations != 4 || st.Repriced != 2 {
		t.Fatalf("stats %+v: want 4 simulations, 2 repriced", st)
	}
	for _, tc := range []struct {
		exact *Exact
		solve bool
		opts  []conflux.Option
	}{
		{got, false, []conflux.Option{conflux.WithRanks(8)}},
		{got, false, []conflux.Option{conflux.WithRanks(8), conflux.WithExecutor("goroutines")}},
		{got, false, []conflux.Option{conflux.WithRanks(8), conflux.WithExecutor("events"), conflux.WithWorkers(4)}},
		{priced, false, []conflux.Option{conflux.WithRanks(8), conflux.WithTopology(spec)}},
		{solved, true, []conflux.Option{conflux.WithRanks(8)}},
	} {
		s, err := conflux.New(tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		volume := s.CommVolume
		if tc.solve {
			volume = s.CommVolumeSolve
		}
		rep, err := volume(context.Background(), 96)
		if err != nil {
			t.Fatal(err)
		}
		if tc.exact.TotalBytes != rep.TotalBytes() ||
			tc.exact.AlgorithmBytes != conflux.AlgorithmBytes(rep) ||
			tc.exact.PerRankBytes != rep.PerNodeBytes() ||
			tc.exact.MaxRankBytes != rep.MaxRankBytes() ||
			tc.exact.Msgs != rep.TotalMsgs() ||
			tc.exact.MaxRankMsgs != rep.Time.MaxRankMsgs() ||
			tc.exact.Makespan != rep.Time.Makespan ||
			tc.exact.CritBusy != rep.Time.CritBusy() {
			t.Fatalf("cached exact %+v != uncached session report (bytes=%d algo=%d msgs=%d makespan=%v)",
				tc.exact, rep.TotalBytes(), conflux.AlgorithmBytes(rep), rep.TotalMsgs(), rep.Time.Makespan)
		}
	}
}

// fakeMachines answers every request under both jobs — whether it pairs or
// not, so only the planner decides which answers it keeps — with its N, its
// machine's α and its job, live or priced, and records the machines each
// live run was asked to price.
type fakeMachines struct {
	mu     sync.Mutex
	others [][]Machine
}

func (f *fakeMachines) run(_ context.Context, req Request, others []Machine) (Answers, error) {
	f.mu.Lock()
	f.others = append(f.others, others)
	f.mu.Unlock()
	ans := Answers{}
	for _, r := range []Request{req, req.other()} {
		xs := []*Exact{fakeExact(r)}
		for _, m := range others {
			xs = append(xs, fakeExact(r.On(m)))
		}
		ans[r.Job] = xs
	}
	return ans, nil
}

// fakeExact is fakeMachines' answer to r.
func fakeExact(r Request) *Exact {
	return &Exact{TotalBytes: int64(r.N), Makespan: r.Alpha, Grid: string(r.Job)}
}

// TestRepricePolicy walks the machine-set policy: a live run prices exactly
// the other served machines whose answer is neither cached nor priced, the
// matching request takes the priced answer (one simulation, one repriced,
// no live run), and the set keeps only the maxMachines most recent.
func TestRepricePolicy(t *testing.T) {
	f := &fakeMachines{}
	pl := NewPlanner(t.Context(), Options{MaxInFlight: 1, Runner: f.run})
	at := func(n int, alpha float64) Request {
		r := volumeReq(t, n, 4)
		r.Alpha = alpha
		return r
	}
	eval := func(r Request) *Exact {
		t.Helper()
		v, _, err := pl.Evaluate(context.Background(), r, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	eval(at(64, 1))      // set {1}: nothing else to price
	eval(at(64, 2))      // set {2, 1}: n=64 on 1 is cached
	eval(at(96, 1))      // set {1, 2}: prices n=96 on 2
	v := eval(at(96, 2)) // taken from the priced table
	if v.TotalBytes != 96 || v.Makespan != 2 {
		t.Fatalf("priced answer %+v, want n=96 on alpha=2", v)
	}
	if st := pl.Stats(); st.Simulations != 4 || st.Repriced != 1 || len(f.others) != 3 {
		t.Fatalf("stats %+v after %d live runs: want 4 simulations, 1 repriced, 3 live runs", st, len(f.others))
	}
	if got := f.others[2]; len(got) != 1 || got[0].Alpha != 2 {
		t.Fatalf("n=96 on 1 priced %+v, want only alpha=2", got)
	}
	if len(f.others[0]) != 0 || len(f.others[1]) != 0 {
		t.Fatalf("runs with nothing uncached to price were asked to: %+v", f.others[:2])
	}
	// Nine more machines: the set keeps the eight most recent, so a new
	// schedule's run prices the seven others and no more.
	for a := 3; a <= 11; a++ {
		eval(at(128, float64(a)))
	}
	eval(at(256, 11))
	f.mu.Lock()
	last := f.others[len(f.others)-1]
	f.mu.Unlock()
	if len(last) != maxMachines-1 || last[0].Alpha != 10 || last[len(last)-1].Alpha != 4 {
		t.Fatalf("priced %+v, want the seven most recent other machines, alpha 10 down to 4", last)
	}
}

// TestPairedJobsPolicy: a request whose solve ranks fit in its P answers
// both jobs from one live run — a solve request answers the volume request
// that follows on its own machine, and both jobs on the other served
// machines, with no second run — while one with SolveRanks > P runs its
// other job live.
func TestPairedJobsPolicy(t *testing.T) {
	f := &fakeMachines{}
	pl := NewPlanner(t.Context(), Options{MaxInFlight: 1, Runner: f.run})
	at := func(n int, alpha float64, job Job, solveRanks int) Request {
		r := volumeReq(t, n, 4)
		r.Alpha, r.Job, r.SolveRanks = alpha, job, solveRanks
		return r
	}
	eval := func(r Request) *Exact {
		t.Helper()
		v, _, err := pl.Evaluate(context.Background(), r, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if *v != *fakeExact(r) {
			t.Fatalf("%s: answer %+v, want %+v", r.Key(), v, fakeExact(r))
		}
		return v
	}
	live := func() int {
		f.mu.Lock()
		defer f.mu.Unlock()
		return len(f.others)
	}
	eval(at(64, 2, JobVolume, 4)) // set {2}
	eval(at(96, 1, JobSolve, 4))  // set {1, 2}: answers the volume job on 1, both on 2
	if st := pl.Stats(); live() != 2 || st.Simulations != 2 || st.Repriced != 0 {
		t.Fatalf("stats %+v after %d live runs: want 2 simulations, 2 live runs", st, live())
	}
	eval(at(96, 1, JobVolume, 4))
	eval(at(96, 2, JobVolume, 4))
	eval(at(96, 2, JobSolve, 4))
	if st := pl.Stats(); live() != 2 || st.Simulations != 5 || st.Repriced != 3 {
		t.Fatalf("stats %+v after %d live runs: want 5 simulations, 3 repriced, still 2 live runs", st, live())
	}
	// The volume answer on 2 of the first run was reserved there too.
	eval(at(64, 2, JobSolve, 4))
	if st := pl.Stats(); live() != 2 || st.Repriced != 4 {
		t.Fatalf("stats %+v after %d live runs: want 4 repriced, 2 live runs", st, live())
	}
	// SolveRanks > P: the two jobs run on different worlds, so the run
	// answers its own job only, on its machine and priced on the other.
	eval(at(128, 1, JobSolve, 8))
	eval(at(128, 1, JobVolume, 8))
	eval(at(128, 2, JobSolve, 8))
	if st := pl.Stats(); live() != 4 || st.Simulations != 9 || st.Repriced != 5 {
		t.Fatalf("stats %+v after %d live runs: want 9 simulations, 5 repriced, 4 live runs", st, live())
	}
}

// TestKeyMissesRunDistinctSimulations: requests differing only in machine
// β (or nb, or memory) must not share cache entries.
func TestKeyMissesRunDistinctSimulations(t *testing.T) {
	pl := NewPlanner(t.Context(), Options{MaxInFlight: 2})
	base := volumeReq(t, 64, 4)
	variant := base
	variant.Beta *= 2
	variant, err := variant.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := pl.Evaluate(context.Background(), base, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := pl.Evaluate(context.Background(), variant, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Stats().Simulations != 2 {
		t.Fatalf("simulations = %d, want 2 (β difference must miss)", pl.Stats().Simulations)
	}
	if b.TotalBytes != v.TotalBytes {
		t.Fatalf("volume is machine-independent, got %d vs %d", b.TotalBytes, v.TotalBytes)
	}
	if b.Makespan == v.Makespan {
		t.Fatal("doubling β left the makespan unchanged — wrong machine simulated")
	}
}

// TestModelForCoversTable2: the instant tier exists exactly for the
// paper's comparison set and is strictly positive.
func TestModelForCoversTable2(t *testing.T) {
	req := volumeReq(t, 4096, 64)
	for _, a := range []conflux.Algorithm{conflux.COnfLUX, conflux.CANDMC, conflux.LibSci, conflux.SLATE} {
		r := req
		r.Algorithm = a
		m, ok := ModelFor(r)
		if !ok {
			t.Fatalf("%s: no model tier", a)
		}
		if m.PerRankBytes <= 0 || m.TotalBytes <= 0 || m.ApproxMsgs <= 0 || m.PredictedSeconds <= 0 {
			t.Fatalf("%s: degenerate model %+v", a, m)
		}
	}
	r := req
	r.Algorithm = conflux.Cholesky
	if _, ok := ModelFor(r); ok {
		t.Fatal("Cholesky has no Table 2 model; ModelFor must report false")
	}
}

// TestEvaluateKeyedMemo: EvaluateKeyed hands out its entry's memo on hits
// only, the same memo on every hit of one entry, and a fresh, empty memo once
// the entry is evicted and its key computed again.
func TestEvaluateKeyedMemo(t *testing.T) {
	var runs atomic.Int64
	pl := NewPlanner(t.Context(), Options{MaxInFlight: 1, MaxEntries: 1,
		Runner: func(_ context.Context, req Request, _ []Machine) (Answers, error) {
			return Answers{req.Job: {{TotalBytes: runs.Add(1)}}}, nil
		}})
	eval := func(req Request) (*Exact, Outcome, *Memo) {
		t.Helper()
		x, outcome, memo, err := pl.EvaluateKeyed(t.Context(), req, req.Key(), 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return x, outcome, memo
	}
	a, b := volumeReq(t, 64, 4), volumeReq(t, 96, 4)
	if _, outcome, memo := eval(a); outcome != OutcomeComputed || memo != nil {
		t.Fatalf("first request: %s with memo %p, want computed without one", outcome, memo)
	}
	_, outcome, m1 := eval(a)
	if outcome != OutcomeHit || m1 == nil || m1.Bytes() != nil {
		t.Fatalf("first hit: %s with memo %p, want a hit with an empty memo", outcome, m1)
	}
	m1.Set([]byte("first"))
	if _, _, memo := eval(a); memo != m1 || string(memo.Bytes()) != "first" {
		t.Fatalf("second hit got memo %p, want the entry's %p holding its bytes", memo, m1)
	}
	eval(b) // evicts a at capacity 1
	x, outcome, memo := eval(a)
	if outcome != OutcomeComputed || memo != nil || x.TotalBytes != 3 {
		t.Fatalf("after eviction: %s, memo %p, run %d; want computed by the third run, no memo", outcome, memo, x.TotalBytes)
	}
	if _, _, m2 := eval(a); m2 == m1 || m2.Bytes() != nil {
		t.Fatalf("recomputed entry's memo %p holds %q, want a new empty one", m2, m2.Bytes())
	}
}
