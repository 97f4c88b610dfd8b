package plan

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	conflux "repro"
	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/smpi"
	"repro/internal/trace"
)

// Typed shedding errors. cmd/confluxd maps them onto HTTP 429/503 with
// Retry-After; programmatic callers branch with errors.Is.
var (
	// ErrOverloaded: the simulation pool is full and the wait queue is at
	// capacity — the request was rejected without queueing at all.
	ErrOverloaded = errors.New("plan: overloaded, simulation queue full")
	// ErrQueueTimeout: the request queued for a simulation slot but none
	// freed up within the queue timeout.
	ErrQueueTimeout = errors.New("plan: timed out waiting for a simulation slot")
)

// Exact is the exact simulation tier: the metered quantities of one run,
// straight off the trace report. It deliberately carries no
// executor/workers provenance — responses must be byte-identical whichever
// executor produced them, which is the same pin that keeps those fields
// out of the cache key.
type Exact struct {
	// TotalBytes is the aggregate bytes sent, housekeeping included.
	TotalBytes int64 `json:"total_bytes"`
	// AlgorithmBytes excludes the layout scatter and collect gather —
	// the paper's headline metric.
	AlgorithmBytes int64 `json:"algorithm_bytes"`
	// PerRankBytes is TotalBytes averaged over ranks (Fig. 6 y-axis).
	PerRankBytes float64 `json:"per_rank_bytes"`
	// MaxRankBytes is the most-loaded rank's sent bytes.
	MaxRankBytes int64 `json:"max_rank_bytes"`
	// Msgs is the aggregate message count.
	Msgs int64 `json:"msgs"`
	// MaxRankMsgs is the latency-critical path: the largest timed-phase
	// message count any rank injects.
	MaxRankMsgs int64 `json:"max_rank_msgs"`
	// Makespan is the simulated α-β makespan in seconds.
	Makespan float64 `json:"makespan_s"`
	// CritBusy is the critical rank's pure transfer time (waits
	// excluded).
	CritBusy float64 `json:"crit_busy_s"`
	// Grid describes the processor grid the engine chose.
	Grid string `json:"grid,omitempty"`
}

// Model is the instant approximate tier: the closed-form Table 2 cost
// model plus the α-β prediction it implies, served while (or instead of)
// the exact simulation running. For JobSolve requests it covers the
// factorization phase only — the paper has no closed-form solve model.
type Model struct {
	PerRankBytes     float64 `json:"per_rank_bytes"`
	TotalBytes       float64 `json:"total_bytes"`
	ApproxMsgs       float64 `json:"approx_msgs"`
	PredictedSeconds float64 `json:"predicted_s"`
}

// ModelFor returns the model tier for a canonicalized request, or false
// for algorithms outside the Table 2 comparison set (Cholesky).
func ModelFor(req Request) (Model, bool) {
	found := false
	for _, a := range costmodel.Algorithms {
		if a == req.Algorithm {
			found = true
			break
		}
	}
	if !found {
		return Model{}, false
	}
	params := costmodel.Params{N: req.N, P: req.P, M: req.Memory}
	machine := conflux.Machine{Alpha: req.Alpha, Beta: req.Beta}
	msgs := costmodel.ApproxPerRankMsgs(req.Algorithm, params, req.NB)
	return Model{
		PerRankBytes:     costmodel.PerRankBytes(req.Algorithm, params),
		TotalBytes:       costmodel.TotalBytes(req.Algorithm, params),
		ApproxMsgs:       msgs,
		PredictedSeconds: costmodel.PredictedTime(req.Algorithm, params, machine, msgs),
	}, true
}

// Simulate runs the exact simulation for a canonicalized request: req's job
// alone, on req's machine.
func Simulate(ctx context.Context, req Request) (*Exact, error) {
	ans, err := simulate(ctx, req, nil, false)
	if err != nil {
		return nil, err
	}
	return ans.get(req.Job, 0), nil
}

// Answers is what one live run answers, per job: Answers[j][0] is job j's
// answer on the request's machine and Answers[j][1+i] its answer on the i-th
// other machine, nil where that machine cannot be built at the run's world
// size. A run answers the request's job and, when the request pairs (see
// Request.pairs), the other job too.
type Answers map[Job][]*Exact

// get returns job j's answer at index i, nil when the run has none.
func (a Answers) get(j Job, i int) *Exact {
	if xs := a[j]; i < len(xs) {
		return xs[i]
	}
	return nil
}

// SimulateAndPrice runs req's replay once — the job body Session.CommVolume
// or CommVolumeSolve runs, on a world through smpi.Exec, so each answer is
// byte-identical to an uncached Session run (pinned by
// TestExactMatchesUncachedSession) — and, when others is non-empty, records
// the run's schedule and prices it under each of them. When req pairs it
// replays the factorize-plus-solve schedule whatever req's job, and reads the
// volume job's answers off the marks each rank leaves where its
// factorization ends, live and priced. The schedule is dropped before
// returning.
func SimulateAndPrice(ctx context.Context, req Request, others []Machine) (Answers, error) {
	return simulate(ctx, req, others, req.pairs())
}

// simulate is SimulateAndPrice with the pairing chosen by the caller.
func simulate(ctx context.Context, req Request, others []Machine, both bool) (Answers, error) {
	eng, err := engine.Lookup(req.Algorithm)
	if err != nil {
		return nil, err
	}
	cfg := engine.Config{Ranks: req.P, Memory: req.Memory, NB: req.NB}
	full := req.Job
	job := engine.VolumeJob(eng, req.N, cfg)
	if both || req.Job == JobSolve {
		full = JobSolve
		job = engine.SolveJob(eng, req.N, cfg, req.SolveRanks, req.RHS)
	}
	m := req.Machine()
	tp, err := m.build(job.World)
	if err != nil {
		return nil, err
	}
	w := smpi.NewWorldMachine(job.World, false, m.alphaBeta())
	w.Trace.SetTopology(tp)
	if len(others) > 0 {
		w.Trace.Record()
	}
	if both {
		w.Trace.EnableMarks()
	}
	rep, err := smpi.Exec(ctx, smpi.Config{World: w}, job.Body)
	if err != nil {
		return nil, err
	}
	grid := eng.GridDesc(req.N, cfg)
	ans := Answers{full: make([]*Exact, 1+len(others))}
	ans[full][0] = exactOf(rep, grid)
	if both {
		ans[JobVolume] = make([]*Exact, 1+len(others))
		ans[JobVolume][0] = exactOf(w.Trace.MarkedReport(), grid)
	}
	for i, o := range others {
		tp, err := o.build(job.World)
		if err != nil {
			continue
		}
		rep, marked := w.Trace.Price(o.alphaBeta(), tp)
		ans[full][1+i] = exactOf(rep, grid)
		if both {
			ans[JobVolume][1+i] = exactOf(marked, grid)
		}
	}
	return ans, nil
}

// exactOf reads the exact tier off a volume report.
func exactOf(rep *trace.Report, grid string) *Exact {
	return &Exact{
		TotalBytes:     rep.TotalBytes(),
		AlgorithmBytes: conflux.AlgorithmBytes(rep),
		PerRankBytes:   rep.PerNodeBytes(),
		MaxRankBytes:   rep.MaxRankBytes(),
		Msgs:           rep.TotalMsgs(),
		MaxRankMsgs:    rep.Time.MaxRankMsgs(),
		Makespan:       rep.Time.Makespan,
		CritBusy:       rep.Time.CritBusy(),
		Grid:           grid,
	}
}

// Options configures a Planner. The zero value selects serving defaults.
type Options struct {
	// MaxInFlight bounds concurrently running simulations (default
	// GOMAXPROCS).
	MaxInFlight int
	// MaxQueue bounds requests waiting for a simulation slot; a request
	// arriving with the queue full is shed immediately with
	// ErrOverloaded (default 64; negative means 0 — shed the moment the
	// pool is full).
	MaxQueue int
	// QueueTimeout bounds how long a queued computation waits for a slot
	// before shedding with ErrQueueTimeout (default 2s).
	QueueTimeout time.Duration
	// SimTimeout bounds one simulation's wall clock (default 2m); it
	// rides the Session cancellation machinery, so a stuck schedule
	// aborts instead of pinning a slot.
	SimTimeout time.Duration
	// MaxEntries bounds the result cache (default 64k entries).
	MaxEntries int
	// Runner runs a request live and returns what that one run answers:
	// the request's job and, when the request pairs, the other job, each on
	// the request's machine and on each of the other machines it is given
	// (see Answers); default SimulateAndPrice. Tests inject fakes here.
	Runner func(ctx context.Context, req Request, others []Machine) (Answers, error)
}

// maxMachines caps the planner's machine set, so a live run prices at most
// maxMachines−1 other machines.
const maxMachines = 8

// pricedEntries bounds the table of priced answers not yet asked for.
const pricedEntries = 1024

// errNotPriced completes a reserved priced answer its run could not produce
// (the machine does not build at the run's world size); the request it was
// reserved for then runs live.
var errNotPriced = errors.New("plan: machine not priceable for this schedule")

// machineSet is the planner's most-recently-seen machines, newest first.
type machineSet struct {
	mu sync.Mutex
	ms []Machine
}

// see moves m to the front of the set, dropping the least recently seen
// machine past maxMachines, and returns the others.
func (s *machineSet) see(m Machine) []Machine {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := slices.Index(s.ms, m)
	if i < 0 {
		if len(s.ms) < maxMachines {
			s.ms = append(s.ms, Machine{})
		}
		i = len(s.ms) - 1
	}
	copy(s.ms[1:i+1], s.ms[:i])
	s.ms[0] = m
	return slices.Clone(s.ms[1:])
}

// Planner is the admission-controlled serving core: a result cache with
// singleflight in front of a bounded simulation pool. All methods are safe
// for concurrent use.
//
// A miss on a machine the planner has not just computed usually repeats a
// schedule it has already run: requests that differ only in α, β, topology
// or fault plan replay the same messages. So the planner keeps the machines
// it has served (at most maxMachines), and a live run whose request has
// other machines in that set records its schedule, prices it under each of
// them, and keeps only the priced answers, in a bounded table that the
// matching requests take from later (DESIGN.md §16). A run whose request
// pairs answers both jobs the same way: the other job's answer on the
// request's machine goes into that table too (DESIGN.md §13).
type Planner struct {
	cache        *Cache
	priced       *Cache
	machines     machineSet
	sem          chan struct{}
	maxQueue     int
	queueTimeout time.Duration
	simTimeout   time.Duration
	base         context.Context
	run          func(ctx context.Context, req Request, others []Machine) (Answers, error)

	queued      atomic.Int64
	sims        atomic.Int64
	repriced    atomic.Int64
	simErrors   atomic.Int64
	shedFull    atomic.Int64
	shedTimeout atomic.Int64
}

// NewPlanner constructs a planner whose background computations live until
// ctx is canceled (pass the server's lifetime context).
func NewPlanner(ctx context.Context, o Options) *Planner {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if o.MaxQueue == 0 {
		o.MaxQueue = 64
	}
	if o.MaxQueue < 0 {
		o.MaxQueue = 0
	}
	if o.QueueTimeout <= 0 {
		o.QueueTimeout = 2 * time.Second
	}
	if o.SimTimeout <= 0 {
		o.SimTimeout = 2 * time.Minute
	}
	if o.Runner == nil {
		o.Runner = SimulateAndPrice
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return &Planner{
		cache:        NewCache(o.MaxEntries),
		priced:       NewCache(pricedEntries),
		sem:          make(chan struct{}, o.MaxInFlight),
		maxQueue:     o.MaxQueue,
		queueTimeout: o.QueueTimeout,
		simTimeout:   o.SimTimeout,
		base:         ctx,
		run:          o.Runner,
	}
}

// Outcome classifies how Evaluate answered.
type Outcome string

const (
	// OutcomeHit: served from the cache.
	OutcomeHit Outcome = "hit"
	// OutcomeComputed: a simulation ran (or was joined) and completed
	// within the wait budget.
	OutcomeComputed Outcome = "computed"
	// OutcomePending: the simulation is still running; the caller got no
	// exact tier yet, but a later identical request will hit the cache.
	OutcomePending Outcome = "pending"
)

// Evaluate answers one canonicalized request: cache hit, join of an
// in-flight computation, or a freshly admitted simulation. wait bounds how
// long the caller blocks for the exact tier; 0 returns immediately
// (OutcomePending on anything but a hit) while the computation proceeds in
// the background — the fast-tier contract. Shedding (ErrOverloaded,
// ErrQueueTimeout) surfaces as an error to every caller coalesced onto the
// shed computation; the cache retries it on the next request.
//
// The computation itself is detached from the caller: it runs under the
// planner's lifetime context, so one canceled client never kills work
// other clients are waiting on.
func (p *Planner) Evaluate(ctx context.Context, req Request, wait time.Duration) (*Exact, Outcome, error) {
	req, err := req.Canonicalize()
	if err != nil {
		return nil, "", err
	}
	x, outcome, _, err := p.EvaluateKeyed(ctx, req, req.Key(), wait)
	return x, outcome, err
}

// EvaluateKeyed is Evaluate for a request its caller has canonicalized and
// keyed already: req is canonical and key is req.Key(). A caller that needs
// the key itself, as cmd/confluxd does for every candidate it answers,
// builds it once this way. On a hit it also returns the entry's Memo, which
// the caller may fill with bytes that depend on the entry alone and read back
// on the entry's later hits; on any other outcome the Memo is nil.
func (p *Planner) EvaluateKeyed(ctx context.Context, req Request, key string, wait time.Duration) (*Exact, Outcome, *Memo, error) {
	e, owner := p.cache.begin(key)
	if owner {
		go p.compute(key, e, req)
	} else if e.completed() {
		if e.err != nil {
			return nil, "", nil, e.err
		}
		return e.val, OutcomeHit, &e.memo, nil
	}
	if wait <= 0 {
		// Still report a completion that raced ahead of us.
		if e.completed() && e.err == nil {
			return e.val, OutcomeComputed, nil, nil
		}
		return nil, OutcomePending, nil, nil
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-e.done:
		if e.err != nil {
			return nil, "", nil, e.err
		}
		return e.val, OutcomeComputed, nil, nil
	case <-timer.C:
		return nil, OutcomePending, nil, nil
	case <-ctx.Done():
		return nil, "", nil, context.Cause(ctx)
	}
}

// compute is the detached owner-side computation: an answer another run
// already produced, or admission (bounded queue, queue timeout) and then the
// simulation under the planner lifetime and the per-run timeout. Its outcome
// — value, simulation error, or typed shed error — is published to every
// waiter through the cache entry.
func (p *Planner) compute(key string, e *entry, req Request) {
	others := p.machines.see(req.Machine())
	if val, ok := p.takePriced(key); ok {
		p.sims.Add(1)
		p.repriced.Add(1)
		p.cache.complete(key, e, val, nil)
		return
	}
	// Fast path: a free slot, no queueing.
	select {
	case p.sem <- struct{}{}:
	default:
		// Pool full: queue if there is room, shed otherwise.
		if q := p.queued.Add(1); q > int64(p.maxQueue) {
			p.queued.Add(-1)
			p.shedFull.Add(1)
			p.cache.complete(key, e, nil, fmt.Errorf("%w (%d in flight, %d queued)",
				ErrOverloaded, cap(p.sem), p.maxQueue))
			return
		}
		timer := time.NewTimer(p.queueTimeout)
		select {
		case p.sem <- struct{}{}:
			p.queued.Add(-1)
			timer.Stop()
		case <-timer.C:
			p.queued.Add(-1)
			p.shedTimeout.Add(1)
			p.cache.complete(key, e, nil, fmt.Errorf("%w (waited %v)", ErrQueueTimeout, p.queueTimeout))
			return
		case <-p.base.Done():
			p.queued.Add(-1)
			timer.Stop()
			p.cache.complete(key, e, nil, context.Cause(p.base))
			return
		}
	}
	defer func() { <-p.sem }()
	slots, ms := p.reserve(req, others)
	ctx, cancel := context.WithTimeout(p.base, p.simTimeout)
	defer cancel()
	p.sims.Add(1)
	ans, err := p.run(ctx, req, ms)
	if err != nil {
		p.simErrors.Add(1)
		ans = nil
	}
	p.cache.complete(key, e, ans.get(req.Job, 0), err)
	for _, sl := range slots {
		pv, perr := ans.get(sl.job, sl.at), err
		if pv == nil && perr == nil {
			perr = errNotPriced
		}
		p.priced.complete(sl.key, sl.e, pv, perr)
	}
}

// slot is an answer a live run has reserved in the priced table: job's answer
// at index at of the run's Answers.
type slot struct {
	job Job
	at  int
	key string
	e   *entry
}

// reserve claims, in the priced table, the answers a live run of req adds to
// its own, wherever one is not cached, computing or priced already: when req
// pairs, the other job on req's machine; and each job the run answers on
// every machine of others. It returns the claims and the machines the run
// must price for them.
func (p *Planner) reserve(req Request, others []Machine) ([]slot, []Machine) {
	var slots []slot
	claim := func(r Request, at int) bool {
		k := r.Key()
		if _, ok := p.cache.lookup(k); ok {
			return false
		}
		pe, owner := p.priced.begin(k)
		if owner {
			slots = append(slots, slot{r.Job, at, k, pe})
		}
		return owner
	}
	jobs := []Request{req}
	if req.pairs() {
		jobs = append(jobs, req.other())
		claim(req.other(), 0)
	}
	var ms []Machine
	for _, m := range others {
		priced := false
		for _, r := range jobs {
			priced = claim(r.On(m), 1+len(ms)) || priced
		}
		if priced {
			ms = append(ms, m)
		}
	}
	return slots, ms
}

// takePriced removes key's answer from the priced table and returns it,
// first waiting for the run that reserved it if that run is still going.
// It reports false when there is no answer: none was reserved, or its run
// failed.
func (p *Planner) takePriced(key string) (*Exact, bool) {
	pe, ok := p.priced.lookup(key)
	if !ok {
		return nil, false
	}
	select {
	case <-pe.done:
	case <-p.base.Done():
		return nil, false
	}
	p.priced.remove(key, pe)
	return pe.val, pe.err == nil
}

// Stats is the planner's point-in-time serving view — the cache-stats
// surface cmd/confluxd exposes, and what the CI load test asserts
// singleflight on (50 concurrent identical requests → Simulations == 1).
type Stats struct {
	Cache       CacheStats `json:"cache"`
	Simulations int64      `json:"simulations"`
	// Repriced counts the Simulations answered by another request's live
	// run instead of running the engine: priced from its recorded schedule
	// on another machine, or read off it for the other job (a
	// factorize-plus-solve run also answers the volume job, and the reverse).
	Repriced         int64 `json:"repriced"`
	SimErrors        int64 `json:"sim_errors"`
	InFlight         int   `json:"in_flight"`
	Queued           int64 `json:"queued"`
	ShedQueueFull    int64 `json:"shed_queue_full"`
	ShedQueueTimeout int64 `json:"shed_queue_timeout"`
}

// Stats snapshots the serving counters.
func (p *Planner) Stats() Stats {
	return Stats{
		Cache:            p.cache.Stats(),
		Simulations:      p.sims.Load(),
		Repriced:         p.repriced.Load(),
		SimErrors:        p.simErrors.Load(),
		InFlight:         len(p.sem),
		Queued:           p.queued.Load(),
		ShedQueueFull:    p.shedFull.Load(),
		ShedQueueTimeout: p.shedTimeout.Load(),
	}
}
