package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/plan"
)

// stubExact is a deterministic stand-in for one simulated answer: a pure
// function of the request on its machine, so a /v1/plan body depends only on
// the request sequence and never on a simulation. Some makespans fall below
// 1e-6, where encoding/json switches to exponent form; its grid strings carry
// the HTML characters encoding/json escapes; n=100 yields a NaN makespan,
// which no JSON encoding accepts.
func stubExact(r plan.Request) *plan.Exact {
	n, p, a := int64(r.N), int64(r.P), int64(len(r.Algorithm))
	x := &plan.Exact{
		TotalBytes:     8*n*n + 3*p*a,
		AlgorithmBytes: 8*n*n/p*a + n,
		PerRankBytes:   float64(8*n*n) / float64(3*p),
		MaxRankBytes:   8*n*n/p + a,
		Msgs:           n * p / a,
		MaxRankMsgs:    n / a,
		Makespan:       float64(n*a)*r.Beta + float64(p)*r.Alpha + r.Topology.Inter.Beta*float64(n),
		Grid:           fmt.Sprintf("%dx%d <%s&%d>", p/2, 2, r.Algorithm, r.RHS),
	}
	x.CritBusy = x.Makespan / 7
	if r.Job == plan.JobSolve {
		x.TotalBytes += 2 * n * int64(r.RHS)
		x.Makespan *= 1.5
	}
	if r.Algorithm == "Cholesky" {
		x.Grid = ""
	}
	if r.N == 100 {
		x.Makespan = math.NaN()
	}
	return x
}

// stubRunner answers like plan.SimulateAndPrice from stubExact: req's job and,
// when req pairs, the other job, each on req's machine and on every other
// machine. A request with N == blockN waits for release first.
func stubRunner(blockN int, release <-chan struct{}) func(context.Context, plan.Request, []plan.Machine) (plan.Answers, error) {
	return func(ctx context.Context, req plan.Request, others []plan.Machine) (plan.Answers, error) {
		if req.N == blockN {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		jobs := []plan.Job{req.Job}
		if req.SolveRanks <= req.P {
			jobs = []plan.Job{plan.JobVolume, plan.JobSolve}
		}
		ans := plan.Answers{}
		for _, j := range jobs {
			r := req
			r.Job = j
			xs := []*plan.Exact{stubExact(r)}
			for _, m := range others {
				xs = append(xs, stubExact(r.On(m)))
			}
			ans[j] = xs
		}
		return ans, nil
	}
}

// stubServer is a server whose planner runs stubRunner.
func stubServer(t testing.TB, blockN int, release <-chan struct{}, opt func(*plan.Options)) *server {
	cfg := defaultServerConfig()
	cfg.defaultWait = 10 * time.Second
	po := plan.Options{
		MaxQueue:     cfg.maxQueue,
		QueueTimeout: cfg.queueTimeout,
		SimTimeout:   cfg.simTimeout,
		Runner:       stubRunner(blockN, release),
	}
	if opt != nil {
		opt(&po)
	}
	return &server{cfg: cfg, pl: plan.NewPlanner(t.Context(), po), start: time.Now()}
}

// serve sends one GET through the server's routes and returns the exchange
// as two lines: the request with its status, and the body as sent.
func serve(h http.Handler, path string) string {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return fmt.Sprintf("GET %s %d\n%s", path, rec.Code, rec.Body)
}

// planBodyExchanges runs a fixed /v1/plan request sequence against stub
// planners and returns every exchange. Each point is asked twice, computed
// and then from the cache: the flat machine, both contended presets, the
// time objective, Cholesky (no model tier), an answer whose NaN makespan is a
// 500, a request rejected with 400, a wait=0 request left pending behind a
// held simulation slot, a panel where one candidate hits and three shed, and
// a panel where every candidate sheds (429).
func planBodyExchanges(t *testing.T) []string {
	var out []string
	h := stubServer(t, 0, nil, nil).routes()
	for _, q := range []string{
		"n=128&p=4",
		"n=128&p=16&topology=hier-contended",
		"n=256&p=16&topology=dragonfly-contended&job=solve&rhs=8&refine=1",
		"n=128&p=4&objective=time&alpha=0&beta=2e-10",
		"n=96&p=8&algo=Cholesky&memory=1e5&nb=16&solve_ranks=2",
		"n=100&p=4&algo=LibSci",
		"n=64&p=4&algo=HPL",
	} {
		out = append(out, serve(h, "/v1/plan?"+q), serve(h, "/v1/plan?"+q))
	}

	release := make(chan struct{})
	s := stubServer(t, 512, release, func(o *plan.Options) {
		o.MaxInFlight = 1
		o.MaxQueue = -1 // no queue: a request finding the slot held sheds
	})
	h = s.routes()
	const cached, held = "/v1/plan?n=128&p=4&algo=COnfLUX", "/v1/plan?n=512&p=4&algo=COnfLUX&wait=0"
	out = append(out, serve(h, cached), serve(h, cached))
	waitInFlight(t, s, 0)
	out = append(out, serve(h, held))
	waitInFlight(t, s, 1)
	out = append(out, serve(h, held),
		serve(h, "/v1/plan?n=128&p=4&wait=5s"), serve(h, "/v1/plan?n=128&p=4&wait=5s"),
		serve(h, "/v1/plan?n=256&p=4&wait=5s"))
	close(release)
	waitInFlight(t, s, 0)
	return append(out, serve(h, held))
}

const planBodiesFile = "testdata/plan_bodies.txt"

// TestPlanBodiesUnchanged pins every /v1/plan body, error bodies included,
// byte for byte against the bodies encoding/json produced for the same
// request sequence (testdata/plan_bodies.txt).
func TestPlanBodiesUnchanged(t *testing.T) {
	want, err := os.ReadFile(planBodiesFile)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(planBodyExchanges(t), "")
	if got == string(want) {
		return
	}
	gl, wl := strings.SplitAfter(got, "\n"), strings.SplitAfter(string(want), "\n")
	for i := range max(len(gl), len(wl)) {
		g, w := "", ""
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d differs:\ngot  %q\nwant %q", planBodiesFile, i+1, g, w)
		}
	}
}

// TestPlanContentLength: a /v1/plan answer over net/http's 2 KB chunking
// buffer arrives whole with its Content-Length, computed and cached alike.
func TestPlanContentLength(t *testing.T) {
	ts := httptest.NewServer(stubServer(t, 0, nil, nil).routes())
	t.Cleanup(ts.Close)
	for range 2 {
		resp, err := http.Get(ts.URL + "/v1/plan?n=128&p=16&topology=hier-contended")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || len(body) <= 2048 || bytes.Count(body, []byte(`"exact_status"`)) != 4 {
			t.Fatalf("status %d, %d bytes: want a four-candidate 200 over 2 KB\n%s", resp.StatusCode, len(body), body)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("Content-Length %d, Transfer-Encoding %v for a %d-byte body", resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}
}

// TestPlanHitAllocs bounds the heap allocations of a warm four-candidate
// /v1/plan answer through the routes, the recorder and request included.
// With encoding/json and a key built twice per candidate from eleven
// formatted floats, a hit took 138 allocations (146 under -race); appended
// in one pass with one key per candidate it took 42 (49 under -race). With
// each candidate appended from its cache entry's memo, which skips the model
// tier and encoding/json's quoting of the stub's grid strings, it took 30
// (31 under -race); the Content-Length header makes it 32 (33 under -race).
// The ceiling is 30 + 25%.
func TestPlanHitAllocs(t *testing.T) {
	const ceiling = 37
	h := stubServer(t, 0, nil, nil).routes()
	const path = "/v1/plan?n=128&p=16&topology=hier-contended"
	if ex := serve(h, path); !strings.Contains(ex, " 200\n") {
		t.Fatal(ex)
	}
	allocs := testing.AllocsPerRun(200, func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK || bytes.Count(rec.Body.Bytes(), []byte(`"exact_status":"hit"`)) != 4 {
			t.Fatalf("not a warm hit: %d %s", rec.Code, rec.Body)
		}
	})
	if allocs > ceiling {
		t.Fatalf("%v allocations per warm hit, ceiling %d", allocs, ceiling)
	}
}

// BenchmarkPlanHit times warm /v1/plan answers through the routes: the
// plan_hot workload's 24 points (N x P x topology x job, every engine),
// simulated once to fill the cache and then asked in turn.
func BenchmarkPlanHit(b *testing.B) {
	h := newServer(b.Context(), defaultServerConfig()).routes()
	paths := planHotPaths()
	for _, path := range paths {
		if ex := serve(h, path); !strings.Contains(ex, " 200\n") {
			b.Fatal(ex)
		}
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, paths[i%len(paths)], nil))
		if rec.Code != http.StatusOK {
			b.Fatal(rec.Body)
		}
		i++
	}
}
