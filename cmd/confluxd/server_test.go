package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	conflux "repro"
	"repro/internal/plan"
)

// testServer builds a server with fast serving policy and an optional
// injected runner (nil → real simulations).
func testServer(t *testing.T, runner func(context.Context, plan.Request) (*plan.Exact, error), opt func(*plan.Options)) (*server, *httptest.Server) {
	t.Helper()
	cfg := defaultServerConfig()
	cfg.defaultWait = 10 * time.Second
	po := plan.Options{
		MaxQueue:     cfg.maxQueue,
		QueueTimeout: cfg.queueTimeout,
		SimTimeout:   cfg.simTimeout,
		Runner:       runner,
	}
	if opt != nil {
		opt(&po)
	}
	s := &server{cfg: cfg, pl: plan.NewPlanner(t.Context(), po), start: time.Now()}
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

// TestPlanParamValidation: malformed or out-of-policy queries are rejected
// with 400 and a JSON error body, before any simulation is admitted.
func TestPlanParamValidation(t *testing.T) {
	srv, ts := testServer(t, nil, nil)
	for name, query := range map[string]string{
		"missing n":        "p=4",
		"missing p":        "n=64",
		"non-numeric n":    "n=abc&p=4",
		"negative p":       "n=64&p=-1",
		"oversized n":      fmt.Sprintf("n=%d&p=4", (1<<16)+1),
		"oversized p":      fmt.Sprintf("n=64&p=%d", (1<<14)+1),
		"negative alpha":   "n=64&p=4&alpha=-1",
		"negative beta":    "n=64&p=4&beta=-1e-10",
		"negative memory":  "n=64&p=4&memory=-5",
		"NaN alpha":        "n=64&p=4&alpha=NaN",
		"Inf beta":         "n=64&p=4&beta=Inf",
		"NaN memory":       "n=64&p=4&memory=NaN",
		"bad nb":           "n=64&p=4&nb=-1",
		"bad job":          "n=64&p=4&job=fastest",
		"bad objective":    "n=64&p=4&objective=carbon",
		"bad wait":         "n=64&p=4&wait=soon",
		"unknown algo":     "n=64&p=4&algo=GaussianElimination",
		"oversized rhs":    "n=64&p=4&rhs=9999",
		"negative refine":  "n=64&p=4&refine=-1",
		"unknown topology": "n=64&p=4&topology=torus",
		"solve_ranks gt p": fmt.Sprintf("n=64&p=4&solve_ranks=%d", (1<<14)+1),
	} {
		status, _, body := get(t, ts.URL+"/v1/plan?"+query)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", name, status, body)
			continue
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
			t.Errorf("%s: error body not JSON {error: ...}: %s", name, body)
		}
	}
	if st := srv.pl.Stats(); st.Simulations != 0 {
		t.Errorf("rejected queries admitted %d simulations", st.Simulations)
	}
}

// TestWriteJSONEncodeFailure: a response that cannot be encoded is a 500
// with a JSON error body, never a 200 header followed by nothing.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	(&server{}).writeJSON(rec, map[string]float64{"makespan": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var e map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e["error"] == "" {
		t.Fatalf("error body not JSON {error: ...}: %s", rec.Body)
	}
}

// TestPlanHitMissSemantics drives the acceptance matrix through the HTTP
// surface: repeating a point HITs (one simulation total), while changing
// machine β, nb, or memory MISSes (a fresh simulation each).
func TestPlanHitMissSemantics(t *testing.T) {
	var sims atomic.Int64
	runner := func(ctx context.Context, req plan.Request) (*plan.Exact, error) {
		sims.Add(1)
		return plan.Simulate(ctx, req)
	}
	_, ts := testServer(t, runner, nil)
	base := ts.URL + "/v1/plan?n=128&p=4&algo=COnfLUX"

	status, _, body1 := get(t, base)
	if status != http.StatusOK {
		t.Fatalf("first request: %d %s", status, body1)
	}
	if got := sims.Load(); got != 1 {
		t.Fatalf("%d simulations after first request, want 1", got)
	}
	// Identical point → cache hit, no new simulation, and the exact payload
	// is identical (determinism makes the cached answer THE answer).
	status, _, body2 := get(t, base)
	if status != http.StatusOK {
		t.Fatalf("second request: %d %s", status, body2)
	}
	if got := sims.Load(); got != 1 {
		t.Fatalf("repeat of the same point ran a simulation (%d total)", got)
	}
	exact1, status1 := exactOf(t, body1)
	exact2, status2 := exactOf(t, body2)
	if string(exact1) != string(exact2) {
		t.Fatalf("exact payloads differ between miss and hit:\n%s\n%s", exact1, exact2)
	}
	if status1 != "computed" || status2 != "hit" {
		t.Fatalf("exact_status sequence = %q, %q; want computed, hit", status1, status2)
	}

	// Each key-relevant perturbation forces a distinct simulation.
	for _, q := range []string{"&beta=2e-10", "&nb=8", "&memory=16384"} {
		before := sims.Load()
		status, _, body := get(t, base+q)
		if status != http.StatusOK {
			t.Fatalf("perturbed request %s: %d %s", q, status, body)
		}
		if got := sims.Load(); got != before+1 {
			t.Fatalf("perturbation %s did not trigger a fresh simulation (%d → %d)", q, before, got)
		}
	}
}

// exactOf extracts the serialized exact block and its status from a
// /v1/plan response with a single candidate.
func exactOf(t *testing.T, body []byte) ([]byte, string) {
	t.Helper()
	var resp struct {
		Candidates []struct {
			Exact       json.RawMessage `json:"exact"`
			ExactStatus string          `json:"exact_status"`
		} `json:"candidates"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("unmarshal: %v in %s", err, body)
	}
	if len(resp.Candidates) != 1 {
		t.Fatalf("%d candidates, want 1: %s", len(resp.Candidates), body)
	}
	return resp.Candidates[0].Exact, resp.Candidates[0].ExactStatus
}

// TestPlanExactMatchesLibrary: the served exact tier equals an uncached
// conflux.Session run of the same point — the service is a cache in front
// of the library, not a different computation.
func TestPlanExactMatchesLibrary(t *testing.T) {
	_, ts := testServer(t, nil, nil)
	status, _, body := get(t, ts.URL+"/v1/plan?n=128&p=4&algo=COnfLUX")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp struct {
		Candidates []struct {
			Exact *plan.Exact `json:"exact"`
		} `json:"candidates"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Candidates) != 1 || resp.Candidates[0].Exact == nil {
		t.Fatalf("no exact tier in %s", body)
	}
	got := resp.Candidates[0].Exact

	s, err := conflux.New(conflux.WithRanks(4), conflux.WithAlgorithm(conflux.COnfLUX))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.CommVolume(t.Context(), 128)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalBytes != rep.TotalBytes() || got.AlgorithmBytes != conflux.AlgorithmBytes(rep) ||
		got.Msgs != rep.TotalMsgs() || got.Makespan != rep.Time.Makespan {
		t.Fatalf("served exact %+v != library report (total=%d algo=%d msgs=%d makespan=%v)",
			got, rep.TotalBytes(), conflux.AlgorithmBytes(rep), rep.TotalMsgs(), rep.Time.Makespan)
	}
}

// TestPlanBestSelection: with all engines as candidates and the bytes
// objective, best.algorithm is the candidate with minimal exact bytes.
func TestPlanBestSelection(t *testing.T) {
	_, ts := testServer(t, nil, nil)
	status, _, body := get(t, ts.URL+"/v1/plan?n=128&p=4")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp struct {
		Candidates []struct {
			Algorithm string      `json:"algorithm"`
			Exact     *plan.Exact `json:"exact"`
		} `json:"candidates"`
		Best struct {
			Algorithm string  `json:"algorithm"`
			Source    string  `json:"source"`
			Value     float64 `json:"value"`
		} `json:"best"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Candidates) < 2 {
		t.Fatalf("want the full engine panel, got %d candidates", len(resp.Candidates))
	}
	minAlgo, minVal := "", 0.0
	for _, c := range resp.Candidates {
		if c.Exact == nil {
			t.Fatalf("candidate %s missing exact tier: %s", c.Algorithm, body)
		}
		v := float64(c.Exact.AlgorithmBytes)
		if minAlgo == "" || v < minVal {
			minAlgo, minVal = c.Algorithm, v
		}
	}
	if resp.Best.Algorithm != minAlgo || resp.Best.Source != "exact" || resp.Best.Value != minVal {
		t.Fatalf("best = %+v, want %s/exact/%v", resp.Best, minAlgo, minVal)
	}
}

// TestPlanShedding: with a single simulation slot held and no queue,
// overflow requests get typed 429 with Retry-After; with a short queue
// timeout, queued requests get 503. Model-tier availability keeps partial
// panels at 200.
func TestPlanShedding(t *testing.T) {
	release := make(chan struct{})
	runner := func(ctx context.Context, req plan.Request) (*plan.Exact, error) {
		select {
		case <-release:
			return &plan.Exact{TotalBytes: 1}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s, ts := testServer(t, runner, func(o *plan.Options) {
		o.MaxInFlight = 1
		o.MaxQueue = -1 // no queue: overflow rejects at the door
	})

	// Occupy the only slot (fast tier returns pending immediately).
	status, _, body := get(t, ts.URL+"/v1/plan?n=128&p=4&algo=COnfLUX&wait=0")
	if status != http.StatusOK {
		t.Fatalf("occupier: %d %s", status, body)
	}
	waitInFlight(t, s, 1)

	// A different point now sheds at admission → 429 + Retry-After.
	status, hdr, body := get(t, ts.URL+"/v1/plan?n=256&p=4&algo=COnfLUX&wait=5s")
	if status != http.StatusTooManyRequests {
		t.Fatalf("overflow: %d %s, want 429", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// wait=0 on a shed point still answers 200 from the model tier.
	status, _, body = get(t, ts.URL+"/v1/plan?n=512&p=4&algo=COnfLUX&wait=0")
	if status != http.StatusOK {
		t.Fatalf("model-only during overload: %d %s", status, body)
	}
	if !strings.Contains(string(body), `"model"`) {
		t.Fatalf("model tier missing under overload: %s", body)
	}

	close(release)
}

// TestPlanQueueTimeout: a queued request that never gets a slot within the
// queue timeout is answered 503 with Retry-After.
func TestPlanQueueTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	runner := func(ctx context.Context, req plan.Request) (*plan.Exact, error) {
		select {
		case <-release:
			return &plan.Exact{TotalBytes: 1}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s, ts := testServer(t, runner, func(o *plan.Options) {
		o.MaxInFlight = 1
		o.MaxQueue = 8
		o.QueueTimeout = 50 * time.Millisecond
	})
	s.cfg.queueTimeout = 50 * time.Millisecond

	status, _, body := get(t, ts.URL+"/v1/plan?n=128&p=4&algo=COnfLUX&wait=0")
	if status != http.StatusOK {
		t.Fatalf("occupier: %d %s", status, body)
	}
	waitInFlight(t, s, 1)

	status, hdr, body := get(t, ts.URL+"/v1/plan?n=256&p=4&algo=COnfLUX&wait=5s")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("queued overflow: %d %s, want 503", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

// TestStatsEndpoint: /v1/stats exposes the planner counters the load test
// asserts on.
func TestStatsEndpoint(t *testing.T) {
	_, ts := testServer(t, nil, nil)
	if status, _, body := get(t, ts.URL+"/v1/plan?n=128&p=4&algo=COnfLUX"); status != http.StatusOK {
		t.Fatalf("plan: %d %s", status, body)
	}
	status, _, body := get(t, ts.URL+"/v1/stats")
	if status != http.StatusOK {
		t.Fatalf("stats: %d %s", status, body)
	}
	var st struct {
		Simulations int64 `json:"simulations"`
		Cache       struct {
			Misses int64 `json:"misses"`
		} `json:"cache"`
		UptimeSeconds float64 `json:"uptime_s"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("stats body %s: %v", body, err)
	}
	if st.Simulations != 1 || st.Cache.Misses != 1 {
		t.Fatalf("stats %s: want simulations=1, misses=1", body)
	}
	if st.UptimeSeconds < 0 {
		t.Fatalf("negative uptime in %s", body)
	}
}

// TestPlanTopologyPreset: a valid topology preset is accepted, keys
// separately from the plain request (a distinct simulation with a
// distinct makespan), and shows up in the /v1/stats per-preset counts.
func TestPlanTopologyPreset(t *testing.T) {
	var sims atomic.Int64
	runner := func(ctx context.Context, req plan.Request) (*plan.Exact, error) {
		sims.Add(1)
		return plan.Simulate(ctx, req)
	}
	_, ts := testServer(t, runner, nil)
	base := ts.URL + "/v1/plan?n=128&p=8&algo=COnfLUX"

	status, _, plainBody := get(t, base)
	if status != http.StatusOK {
		t.Fatalf("plain request: %d %s", status, plainBody)
	}
	status, _, hierBody := get(t, base+"&topology=hier")
	if status != http.StatusOK {
		t.Fatalf("topology request: %d %s", status, hierBody)
	}
	if got := sims.Load(); got != 2 {
		t.Fatalf("%d simulations, want 2 — topology must miss the plain cache entry", got)
	}
	var plain, hier struct {
		Candidates []struct {
			Key   string      `json:"key"`
			Exact *plan.Exact `json:"exact"`
		} `json:"candidates"`
	}
	if err := json.Unmarshal(plainBody, &plain); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(hierBody, &hier); err != nil {
		t.Fatal(err)
	}
	if plain.Candidates[0].Key == hier.Candidates[0].Key {
		t.Fatalf("topology preset did not change the cache key %q", plain.Candidates[0].Key)
	}
	if plain.Candidates[0].Exact == nil || hier.Candidates[0].Exact == nil {
		t.Fatalf("missing exact tier:\n%s\n%s", plainBody, hierBody)
	}
	if plain.Candidates[0].Exact.Makespan == hier.Candidates[0].Exact.Makespan {
		t.Fatal("hier topology left the makespan unchanged — the spec was dropped on the session path")
	}
	// Bytes moved are a schedule property, not a topology property.
	if plain.Candidates[0].Exact.TotalBytes != hier.Candidates[0].Exact.TotalBytes {
		t.Fatal("topology changed communication volume — it must only re-time the schedule")
	}

	// Same preset again: cache hit, but the per-preset counter still ticks.
	if status, _, body := get(t, base+"&topology=hier"); status != http.StatusOK {
		t.Fatalf("repeat topology request: %d %s", status, body)
	}
	if got := sims.Load(); got != 2 {
		t.Fatalf("repeated topology point re-simulated (%d total)", got)
	}
	status, _, statsBody := get(t, ts.URL+"/v1/stats")
	if status != http.StatusOK {
		t.Fatalf("stats: %d %s", status, statsBody)
	}
	var st struct {
		Topologies map[string]int64 `json:"topologies"`
	}
	if err := json.Unmarshal(statsBody, &st); err != nil {
		t.Fatalf("stats body %s: %v", statsBody, err)
	}
	if st.Topologies["hier"] != 2 {
		t.Fatalf("stats %s: want topologies.hier == 2", statsBody)
	}
}

// TestHealthz: liveness answers without touching the planner.
func TestHealthz(t *testing.T) {
	_, ts := testServer(t, nil, nil)
	status, _, body := get(t, ts.URL+"/healthz")
	if status != http.StatusOK || !strings.Contains(string(body), `"ok":true`) {
		t.Fatalf("healthz: %d %s", status, body)
	}
}

// waitInFlight polls until the planner reports n running simulations.
func waitInFlight(t *testing.T, s *server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.pl.Stats().InFlight == n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("planner never reached %d in-flight simulations", n)
}
