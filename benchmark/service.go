package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/bench"
)

// The plan workloads' clients are closed-loop: callers that wait for each
// reply before asking again, one connection each. A cold sweep keeps two
// simulations in flight while its clients sleep. The hot phase has one
// client: it shares one CPU with confluxd (see main), so the two alternate
// and a second client would only add queueing to the latency.
const (
	coldClients = 2
	hotClients  = 1
)

// point is one planner question. Every request asks for all four engines
// (algo=all), so one cold point costs four simulations.
type point struct {
	n, p      int
	topo, job string
}

func (pt point) path() string {
	s := fmt.Sprintf("/v1/plan?n=%d&p=%d&algo=all&job=%s&wait=60s", pt.n, pt.p, pt.job)
	if pt.topo != "" {
		s += "&topology=" + pt.topo
	}
	return s
}

// planGrid is the fixed set of distinct points both plan workloads use:
// N x P x topology x job. The seed only orders the visits.
func planGrid(quick bool) []point {
	ns, ps := []int{128, 256}, []int{16, 64}
	if quick {
		ns, ps = []int{128}, []int{4}
	}
	var grid []point
	for _, n := range ns {
		for _, p := range ps {
			for _, topo := range []string{"", "hier-contended", "dragonfly-contended"} {
				for _, job := range []string{"volume", "solve"} {
					grid = append(grid, point{n, p, topo, job})
				}
			}
		}
	}
	return grid
}

// warmPoint is asked once per confluxd start, inside set-up: it pays the
// first-request costs (connection, lazy initialisation) before anything is
// timed. It is not in the grid, so it adds four simulations of its own.
var warmPoint = point{n: 64, p: 4, job: "volume"}

const simsPerPoint = 4 // algo=all

// service is one running confluxd subprocess.
type service struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	stderr bytes.Buffer
}

// startService starts confluxd on a free loopback port and waits until it
// answers /healthz and the warm-up point.
func startService(binDir string) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close() // confluxd binds it next; nothing else on loopback races for it
	s := &service{
		base: "http://" + addr,
		client: &http.Client{
			Timeout:   90 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: coldClients, MaxConnsPerHost: coldClients},
		},
	}
	s.cmd = exec.Command(filepath.Join(binDir, "confluxd"), "-addr", addr)
	s.cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", benchProcs()))
	s.cmd.Stderr = &s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start confluxd: %w", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code, _, err := s.get("/healthz"); err == nil && code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("confluxd did not answer /healthz within 10 s: %s", s.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := s.ask(warmPoint); err != nil {
		s.stop()
		return nil, fmt.Errorf("warm-up request: %w", err)
	}
	return s, nil
}

// stop terminates confluxd and reaps it; it is safe to call twice.
func (s *service) stop() {
	if s.cmd.ProcessState != nil {
		return
	}
	s.client.CloseIdleConnections()
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		s.cmd.Wait() // exit status is irrelevant: the process is being discarded
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		s.cmd.Process.Kill()
		<-done
	}
}

func (s *service) get(path string) (int, []byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// planReply is the part of a /v1/plan answer the benchmark checks.
type planReply struct {
	Candidates []struct {
		Algorithm   string `json:"algorithm"`
		ExactStatus string `json:"exact_status"`
		Exact       *struct {
			AlgorithmBytes int64   `json:"algorithm_bytes"`
			Makespan       float64 `json:"makespan_s"`
		} `json:"exact"`
	} `json:"candidates"`
	Best struct {
		Algorithm string  `json:"algorithm"`
		Source    string  `json:"source"`
		Value     float64 `json:"value"`
	} `json:"best"`
}

// ask sends one plan request, requires a complete exact answer, and returns
// the signature of everything simulated in it.
func (s *service) ask(pt point) (planAnswer, error) {
	code, body, err := s.get(pt.path())
	if err != nil {
		return planAnswer{}, err
	}
	if code != http.StatusOK {
		return planAnswer{}, fmt.Errorf("%s: HTTP %d: %s", pt.path(), code, body)
	}
	var r planReply
	if err := json.Unmarshal(body, &r); err != nil {
		return planAnswer{}, fmt.Errorf("%s: %w", pt.path(), err)
	}
	if len(r.Candidates) != simsPerPoint || r.Best.Source != "exact" {
		return planAnswer{}, fmt.Errorf("%s: %d candidates, best from %q", pt.path(), len(r.Candidates), r.Best.Source)
	}
	ans := planAnswer{best: r.Best.Algorithm, sig: fmt.Sprintf("best=%s/%x", r.Best.Algorithm, math.Float64bits(r.Best.Value))}
	for _, c := range r.Candidates {
		if c.Exact == nil {
			return planAnswer{}, fmt.Errorf("%s: %s has no exact answer (%s)", pt.path(), c.Algorithm, c.ExactStatus)
		}
		ans.sig += fmt.Sprintf(" %s=%d/%x", c.Algorithm, c.Exact.AlgorithmBytes, math.Float64bits(c.Exact.Makespan))
		if c.ExactStatus == "hit" {
			ans.hits++
		}
	}
	return ans, nil
}

type planAnswer struct {
	best string
	sig  string
	hits int // candidates answered from the cache
}

// stats is the part of /v1/stats the benchmark checks.
type serviceStats struct {
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
		Joined int64 `json:"joined"`
	} `json:"cache"`
	Simulations      int64 `json:"simulations"`
	SimErrors        int64 `json:"sim_errors"`
	ShedQueueFull    int64 `json:"shed_queue_full"`
	ShedQueueTimeout int64 `json:"shed_queue_timeout"`
}

func (s *service) stats() (serviceStats, error) {
	var st serviceStats
	code, body, err := s.get("/v1/stats")
	if err != nil {
		return st, err
	}
	if code != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: HTTP %d", code)
	}
	return st, json.Unmarshal(body, &st)
}

// rows reports the serving counters as per-layer rows.
func (st serviceStats) rows(rows map[string]float64) {
	rows["plan.simulations"] = float64(st.Simulations)
	rows["plan.cache_hit_ratio"] = float64(st.Cache.Hits) / float64(st.Cache.Hits+st.Cache.Misses)
}

// checkStats verifies the serving counters after `points` cold points:
// every point simulated once per engine, nothing joined, shed or failed.
func (s *service) checkStats(points int) (serviceStats, error) {
	st, err := s.stats()
	if err != nil {
		return st, err
	}
	want := int64(simsPerPoint * (points + 1)) // + the warm-up point
	if st.Simulations != want || st.Cache.Joined != 0 || st.SimErrors != 0 || st.ShedQueueFull != 0 || st.ShedQueueTimeout != 0 {
		return st, fmt.Errorf("/v1/stats: %d simulations (want %d), %d joined, %d errors, %d+%d shed",
			st.Simulations, want, st.Cache.Joined, st.SimErrors, st.ShedQueueFull, st.ShedQueueTimeout)
	}
	return st, nil
}

// sweep asks every point of the grid once, in the given order, from
// coldClients closed-loop clients pulling from one queue, and returns the
// answers by grid index. Each point is asked exactly once, so nothing joins.
// tr, when set, records a span around every request.
func (s *service) sweep(grid []point, order []int, tr *tracer, parent int) ([]planAnswer, error) {
	answers := make([]planAnswer, len(grid))
	rep := bench.RunLoad(context.Background(), coldClients, len(order), func(_ context.Context, i int) error {
		sp := tr.begin("GET /v1/plan (cold)", parent)
		defer tr.end(sp)
		var err error
		answers[order[i]], err = s.ask(grid[order[i]])
		return err
	})
	if rep.Errors > 0 {
		return nil, fmt.Errorf("%d of %d requests failed, first: %w", rep.Errors, rep.Requests, rep.FirstErr)
	}
	return answers, nil
}

// answersSig is the signature of a whole sweep.
func answersSig(answers []planAnswer) string {
	var b bytes.Buffer
	for _, a := range answers {
		b.WriteString(a.sig)
		b.WriteByte('\n')
	}
	return b.String()
}

// measurePlanCold runs rounds of: start confluxd (set-up), sweep the grid
// cold, check the counters, stop. One op is one sweep.
func measurePlanCold(e *env) (*measurement, error) {
	grid := planGrid(e.quick)
	order := rand.New(rand.NewSource(int64(e.seed))).Perm(len(grid))
	m := &measurement{}
	var want string
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	for m.attempted < minOps || time.Now().Before(deadline) {
		err := func() error {
			t0 := time.Now()
			s, err := startService(e.binDir)
			if err != nil {
				return err
			}
			defer s.stop()
			m.setups = append(m.setups, time.Since(t0).Seconds())
			pid := s.cmd.Process.Pid
			c0, err := procCPUSeconds(pid)
			if err != nil {
				return err
			}
			t0 = time.Now()
			answers, sweepErr := s.sweep(grid, order, nil, -1)
			wall := time.Since(t0).Seconds()
			c1, err := procCPUSeconds(pid)
			if err != nil {
				return err
			}
			m.cpus = append(m.cpus, c1-c0)
			m.attempted++
			rss, err := peakRSSMB(pid)
			if err != nil {
				return err
			}
			m.rss = append(m.rss, rss)
			if sweepErr == nil {
				_, sweepErr = s.checkStats(len(grid))
			}
			sig := answersSig(answers)
			if want == "" {
				want = sig
			}
			switch {
			case sweepErr != nil:
				m.fail("sweep %d: %v", m.attempted, sweepErr)
			case sig != want:
				m.fail("sweep %d: answers differ from the first sweep's", m.attempted)
			default:
				m.walls = append(m.walls, wall)
			}
			return nil
		}()
		if err != nil {
			return m, err
		}
	}
	if len(m.walls) == 0 {
		return m, fmt.Errorf("no correct sweep out of %d: %v", m.attempted, m.notes)
	}
	return m, nil
}

// hotChunk is how many requests one closed-loop burst sends. Each burst
// yields one median latency, one throughput and one CPU sample; the run
// reports the median over bursts, which slow bursts cannot move.
func hotChunk(e *env) int {
	if e.quick {
		return 100
	}
	return 2000
}

// hotSamples are the per-burst samples of a hot phase.
type hotSamples struct {
	p50, p99, qps []float64
	cpu           []float64 // confluxd CPU seconds per request
	requests      int
}

func (hs *hotSamples) add(o hotSamples) {
	hs.p50 = append(hs.p50, o.p50...)
	hs.p99 = append(hs.p99, o.p99...)
	hs.qps = append(hs.qps, o.qps...)
	hs.cpu = append(hs.cpu, o.cpu...)
	hs.requests += o.requests
}

// hotPhase sends Zipf(1.1)-distributed repeats of the warm grid points for
// the given time. Every reply must be 200, name the same best engine the
// cold answer did, and come entirely from the cache. tr, when set, records
// a span around every request.
func (s *service) hotPhase(grid []point, answers []planAnswer, rng *rand.Rand, d time.Duration, chunk int, m *measurement, tr *tracer, parent int) hotSamples {
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(grid)-1))
	paths := make([]string, len(grid))
	needles := make([][]byte, len(grid))
	for i, pt := range grid {
		paths[i] = s.base + pt.path()
		needles[i] = []byte(`"best":{"algorithm":"` + answers[i].best + `","source":"exact"`)
	}
	hit := []byte(`"exact_status":"hit"`)
	var hs hotSamples
	draws := make([]int, chunk)
	deadline := time.Now().Add(d)
	for len(hs.p50) == 0 || time.Now().Before(deadline) {
		for i := range draws {
			draws[i] = int(zipf.Uint64())
		}
		c0, err0 := procCPUSeconds(s.cmd.Process.Pid)
		rep := bench.RunLoad(context.Background(), hotClients, chunk, func(_ context.Context, i int) error {
			sp := tr.begin("GET /v1/plan (hit)", parent)
			defer tr.end(sp)
			k := draws[i]
			resp, err := s.client.Get(paths[k])
			if err != nil {
				return err
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK || !bytes.Contains(body, needles[k]) || bytes.Count(body, hit) != simsPerPoint {
				return fmt.Errorf("%s: HTTP %d, not the cached answer for best=%s", paths[k], resp.StatusCode, answers[k].best)
			}
			return nil
		})
		c1, err1 := procCPUSeconds(s.cmd.Process.Pid)
		m.attempted += rep.Requests
		if rep.Errors > 0 {
			for range rep.Errors {
				m.fail("hot request: %v", rep.FirstErr)
			}
			continue
		}
		if err := cmp.Or(err0, err1); err != nil {
			m.fail("confluxd CPU time: %v", err)
			continue
		}
		hs.requests += rep.Requests
		hs.cpu = append(hs.cpu, (c1-c0)/float64(rep.Requests))
		hs.p50 = append(hs.p50, rep.P50Lat.Seconds())
		hs.p99 = append(hs.p99, rep.P99Lat.Seconds())
		hs.qps = append(hs.qps, rep.QPS)
	}
	return hs
}

// hotRounds is how many times plan_hot starts and warms a confluxd per run;
// the hot time is split evenly between them.
const hotRounds = 3

// measurePlanHot runs hotRounds rounds of: start confluxd and fill its cache
// with one cold sweep (set-up), then a hot phase. One op is one request.
func measurePlanHot(e *env) (*measurement, error) {
	grid := planGrid(e.quick)
	rng := rand.New(rand.NewSource(int64(e.seed)))
	order := rng.Perm(len(grid))
	chunk := hotChunk(e)
	m := &measurement{}
	var all hotSamples
	var want string
	for round := 0; round < hotRounds; round++ {
		err := func() error {
			t0 := time.Now()
			s, err := startService(e.binDir)
			if err != nil {
				return err
			}
			defer s.stop()
			answers, err := s.sweep(grid, order, nil, -1)
			if err != nil {
				return fmt.Errorf("cache fill: %w", err)
			}
			m.setups = append(m.setups, time.Since(t0).Seconds())
			if sig := answersSig(answers); want == "" {
				want = sig
			} else if sig != want {
				return fmt.Errorf("cache fill %d: answers differ from the first fill's", round)
			}
			hs := s.hotPhase(grid, answers, rng, time.Duration(e.seconds/hotRounds*float64(time.Second)), chunk, m, nil, -1)
			all.add(hs)
			rss, err := peakRSSMB(s.cmd.Process.Pid)
			if err != nil {
				return err
			}
			m.rss = append(m.rss, rss)
			// Every hot request hit the cache four times and simulated nothing.
			st, err := s.checkStats(len(grid))
			if err != nil {
				m.fail("round %d: %v", round, err)
			} else if wantHits := int64(simsPerPoint * hs.requests); st.Cache.Hits != wantHits {
				m.fail("round %d: %d cache hits, want %d", round, st.Cache.Hits, wantHits)
			}
			return nil
		}()
		if err != nil {
			return m, err
		}
	}
	if all.requests == 0 {
		return m, fmt.Errorf("no correct hot request out of %d: %v", m.attempted, m.notes)
	}
	m.walls, m.cpus = all.p50, all.cpu
	return m, nil
}
