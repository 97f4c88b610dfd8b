package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	conflux "repro"
	"repro/internal/costmodel"
	"repro/internal/plan"
	"repro/internal/smpi"
)

// serverConfig is the serving policy: pool sizes, shedding thresholds, and
// parameter guards. Defaults are wired in main and overridable by flags.
type serverConfig struct {
	maxInFlight  int
	maxQueue     int
	queueTimeout time.Duration
	simTimeout   time.Duration
	defaultWait  time.Duration
	maxWait      time.Duration
	// maxN/maxP reject absurd problem sizes at the door (parameter-level
	// admission control): a single N=10^6 replay could pin a simulation
	// slot for hours.
	maxN, maxP int
	cacheSize  int
}

func defaultServerConfig() serverConfig {
	return serverConfig{
		maxQueue:     64,
		queueTimeout: 2 * time.Second,
		simTimeout:   2 * time.Minute,
		defaultWait:  15 * time.Second,
		maxWait:      60 * time.Second,
		maxN:         1 << 16,
		maxP:         1 << 14,
	}
}

// server is the confluxd HTTP surface over one plan.Planner.
type server struct {
	cfg   serverConfig
	pl    *plan.Planner
	start time.Time

	// mu guards topoCount: per-preset counts of plan requests that named
	// a topology, surfaced in /v1/stats. Keyed by the preset name as
	// requested ("hier-contended", not the resolved family), lazily
	// allocated so zero-value servers in tests work.
	mu        sync.Mutex
	topoCount map[string]int64
}

func (s *server) countTopology(preset string) {
	s.mu.Lock()
	if s.topoCount == nil {
		s.topoCount = make(map[string]int64)
	}
	s.topoCount[preset]++
	s.mu.Unlock()
}

func (s *server) topologyCounts() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.topoCount) == 0 {
		return nil
	}
	out := make(map[string]int64, len(s.topoCount))
	for k, v := range s.topoCount {
		out[k] = v
	}
	return out
}

func newServer(ctx context.Context, cfg serverConfig) *server {
	return &server{
		cfg: cfg,
		pl: plan.NewPlanner(ctx, plan.Options{
			MaxInFlight:  cfg.maxInFlight,
			MaxQueue:     cfg.maxQueue,
			QueueTimeout: cfg.queueTimeout,
			SimTimeout:   cfg.simTimeout,
			MaxEntries:   cfg.cacheSize,
		}),
		start: time.Now(),
	}
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/plan", s.handlePlan)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"ok":true}`)
	})
	return mux
}

// candidate is one engine's answer: the instant model tier, and the exact
// tier when cached or computed within the wait budget.
type candidate struct {
	Algorithm conflux.Algorithm `json:"algorithm"`
	Model     *plan.Model       `json:"model,omitempty"`
	Exact     *plan.Exact       `json:"exact,omitempty"`
	// ExactStatus: "hit", "computed", or "pending" (still simulating —
	// retry to pick it up from the cache).
	ExactStatus string `json:"exact_status"`
	Key         string `json:"key"`
}

// planResponse is the /v1/plan answer.
type planResponse struct {
	Request    plan.Request `json:"request"`
	Objective  string       `json:"objective"`
	Candidates []candidate  `json:"candidates"`
	// Best names the winning engine under the objective, using exact
	// results where present and model predictions otherwise (Source says
	// which).
	Best struct {
		Algorithm conflux.Algorithm `json:"algorithm"`
		Source    string            `json:"source"`
		Value     float64           `json:"value"`
	} `json:"best"`
}

// httpError is the typed JSON error surface.
type httpError struct {
	status     int
	retryAfter int // seconds; 0 = no header
	msg        string
}

func (s *server) writeError(w http.ResponseWriter, e httpError) {
	if e.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.retryAfter))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.status)
	json.NewEncoder(w).Encode(map[string]string{"error": e.msg})
}

// writeJSON encodes v completely before touching the response: an encode
// failure (a non-finite float in a result) becomes a 500 with an error body
// instead of a 200 header followed by nothing.
func (s *server) writeJSON(w http.ResponseWriter, v any) {
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(v); err != nil {
		s.writeError(w, httpError{http.StatusInternalServerError, 0, "encoding response: " + err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body.Bytes())
}

// shedError maps the planner's typed shedding errors onto HTTP:
// ErrOverloaded (rejected at the door, queue full) → 429 Too Many
// Requests; ErrQueueTimeout (queued, capacity never freed) → 503 Service
// Unavailable. Both carry Retry-After. Other errors are 500s.
func (s *server) shedError(err error) (httpError, bool) {
	switch {
	case errors.Is(err, plan.ErrOverloaded):
		return httpError{http.StatusTooManyRequests, 1, err.Error()}, true
	case errors.Is(err, plan.ErrQueueTimeout):
		retry := int(s.cfg.queueTimeout/time.Second) + 1
		return httpError{http.StatusServiceUnavailable, retry, err.Error()}, true
	}
	return httpError{}, false
}

// parseParams decodes the query into a canonical template request (its
// algorithm the first candidate's; every candidate shares the rest), the
// candidate set, the objective, and the wait budget. Ranges are
// Canonicalize's to check; what stays here is parsing and the serving
// limits.
func (s *server) parseParams(r *http.Request) (plan.Request, []conflux.Algorithm, string, time.Duration, *httpError) {
	q := r.URL.Query()
	bad := func(format string, args ...any) (plan.Request, []conflux.Algorithm, string, time.Duration, *httpError) {
		return plan.Request{}, nil, "", 0, &httpError{http.StatusBadRequest, 0, fmt.Sprintf(format, args...)}
	}
	intParam := func(name string, def int) (int, error) {
		v := q.Get(name)
		if v == "" {
			return def, nil
		}
		return strconv.Atoi(v)
	}
	floatParam := func(name string, def float64) (float64, error) {
		v := q.Get(name)
		if v == "" {
			return def, nil
		}
		return strconv.ParseFloat(v, 64)
	}
	n, err := intParam("n", 0)
	if err != nil {
		return bad("parameter n (matrix dimension) is required and must be a positive integer")
	}
	p, err := intParam("p", 0)
	if err != nil {
		return bad("parameter p (rank count) is required and must be a positive integer")
	}
	if n > s.cfg.maxN || p > s.cfg.maxP {
		return bad("point (n=%d, p=%d) exceeds the serving limits (n <= %d, p <= %d)", n, p, s.cfg.maxN, s.cfg.maxP)
	}
	def := conflux.DefaultMachine()
	alpha, err := floatParam("alpha", def.Alpha)
	if err != nil {
		return bad("parameter alpha must be a float (seconds per message)")
	}
	beta, err := floatParam("beta", def.Beta)
	if err != nil {
		return bad("parameter beta must be a float (seconds per byte)")
	}
	memory, err := floatParam("memory", 0)
	if err != nil {
		return bad("parameter memory must be a float (elements per rank; 0 = paper default)")
	}
	nb, err := intParam("nb", 0)
	if err != nil {
		return bad("parameter nb must be an integer (0 = engine default)")
	}
	solveRanks, err := intParam("solve_ranks", 0)
	if err != nil || solveRanks > s.cfg.maxP {
		return bad("parameter solve_ranks must be in [0, %d] (0 = p)", s.cfg.maxP)
	}
	rhs, err := intParam("rhs", 0)
	if err != nil || rhs > 4096 {
		return bad("parameter rhs must be in [0, 4096] (0 = 1)")
	}
	refine, err := intParam("refine", 0)
	if err != nil {
		return bad("parameter refine must be an integer")
	}
	var topology conflux.Topology
	preset := q.Get("topology")
	if preset != "" {
		spec, err := conflux.TopologyPreset(preset)
		if err != nil {
			return bad("unknown topology preset %q (presets: %v)", preset, conflux.TopologyPresets())
		}
		topology = spec
	}
	objective := q.Get("objective")
	switch objective {
	case "":
		objective = "bytes"
	case "bytes", "time":
	default:
		return bad("parameter objective must be \"bytes\" or \"time\"")
	}
	wait := s.cfg.defaultWait
	if v := q.Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			return bad("parameter wait must be a non-negative duration (e.g. 500ms, 0 for model-only)")
		}
		wait = min(d, s.cfg.maxWait)
	}
	var algos []conflux.Algorithm
	switch a := q.Get("algo"); a {
	case "", "all":
		algos = costmodel.Algorithms // read only
	default:
		if !slices.Contains(conflux.Engines(), conflux.Algorithm(a)) {
			return bad("unknown algorithm %q (registered: %v)", a, conflux.Engines())
		}
		algos = []conflux.Algorithm{conflux.Algorithm(a)}
	}
	// The candidates differ in their algorithm alone, and every one of them
	// names an engine, so one canonical template serves them all.
	req, err := plan.Request{
		Algorithm: algos[0], N: n, P: p, Memory: memory, NB: nb,
		Alpha: alpha, Beta: beta,
		SolveRanks: solveRanks, RHS: rhs, RefineSweeps: refine,
		Topology: topology,
		Job:      plan.Job(q.Get("job")),
	}.Canonicalize()
	if err != nil {
		return bad("%s", err)
	}
	// Count the preset only now: a request rejected above is no request.
	if preset != "" {
		s.countTopology(preset)
	}
	return req, algos, objective, wait, nil
}

// handlePlan answers "which engine minimizes communication volume (or
// modeled α-β time) at my (N, P, machine) point": the closed-form model
// tier instantly for every candidate, the exact simulated tier from the
// cache (or a fresh admitted simulation) within the wait budget.
func (s *server) handlePlan(w http.ResponseWriter, r *http.Request) {
	template, algos, objective, wait, herr := s.parseParams(r)
	if herr != nil {
		s.writeError(w, *herr)
		return
	}
	resp := planResponse{Objective: objective, Candidates: make([]candidate, 0, len(algos))}
	var memoBuf [8]*plan.Memo
	memos := memoBuf[:0] // memos[i]: Candidates[i]'s entry memo when a hit
	var shed *httpError
	exactCount := 0
	for _, a := range algos {
		req := template
		req.Algorithm = a
		if len(resp.Candidates) == 0 {
			resp.Request = req // canonical view of the shared point
		}
		c := candidate{Algorithm: a, Key: req.Key()}
		exact, outcome, memo, err := s.pl.EvaluateKeyed(r.Context(), req, c.Key, wait)
		// A hit whose memo is filled is written from the memo, model tier
		// included.
		if memo == nil || memo.Bytes() == nil {
			if m, ok := plan.ModelFor(req); ok {
				c.Model = &m
			}
		}
		switch {
		case err == nil:
			c.Exact = exact
			c.ExactStatus = string(outcome)
			if exact != nil {
				exactCount++
			}
		default:
			if he, ok := s.shedError(err); ok {
				c.ExactStatus = "shed"
				if shed == nil {
					shed = &he
				}
			} else if errors.Is(err, context.Canceled) {
				return // client went away
			} else {
				// A rank's panic keeps its goroutine stack out of the
				// error text: the stack goes to the server log only.
				log.Printf("confluxd: %s: %v", r.URL.RequestURI(), err)
				var pe *smpi.PanicError
				if errors.As(err, &pe) {
					log.Printf("confluxd: rank %d stack:\n%s", pe.Rank, pe.Stack)
				}
				s.writeError(w, httpError{http.StatusInternalServerError, 0, err.Error()})
				return
			}
		}
		resp.Candidates = append(resp.Candidates, c)
		memos = append(memos, memo)
	}
	// All candidates shed and nothing to serve → surface the typed
	// overload answer. Partial sheds degrade to model-tier responses.
	if shed != nil && exactCount == 0 && wait > 0 {
		s.writeError(w, *shed)
		return
	}
	s.pickBest(&resp)
	s.writePlan(w, &resp, memos)
}

// pickBest selects the winner under the objective, preferring exact
// results and falling back to model predictions per candidate.
func (s *server) pickBest(resp *planResponse) {
	bestSet := false
	for _, c := range resp.Candidates {
		var v float64
		var src string
		switch {
		case c.Exact != nil && resp.Objective == "time":
			v, src = c.Exact.Makespan, "exact"
		case c.Exact != nil:
			v, src = float64(c.Exact.AlgorithmBytes), "exact"
		case c.Model != nil && resp.Objective == "time":
			v, src = c.Model.PredictedSeconds, "model"
		case c.Model != nil:
			v, src = c.Model.TotalBytes, "model"
		default:
			continue
		}
		if !bestSet || v < resp.Best.Value {
			bestSet = true
			resp.Best.Algorithm = c.Algorithm
			resp.Best.Source = src
			resp.Best.Value = v
		}
	}
}

// statsResponse is the /v1/stats cache-stats surface the CI load test
// asserts singleflight on.
type statsResponse struct {
	plan.Stats
	// Topologies counts plan requests per named topology preset (absent
	// until the first topology-carrying request).
	Topologies    map[string]int64 `json:"topologies,omitempty"`
	UptimeSeconds float64          `json:"uptime_s"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, statsResponse{
		Stats:         s.pl.Stats(),
		Topologies:    s.topologyCounts(),
		UptimeSeconds: time.Since(s.start).Seconds(),
	})
}
