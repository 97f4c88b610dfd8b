package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	conflux "repro"
	"repro/internal/costmodel"
	"repro/internal/plan"
)

// layers.go is the traced pass (`--trace 1`): each workload repeats a few
// ops with spans recorded around every public call, takes a CPU profile of
// a few more, and runs the probes of the layers it exercises (probes.go).
// Nothing here feeds an end-to-end metric.

// tracedPairs is how many untraced/traced op pairs the traced pass runs.
func tracedPairs(e *env) int {
	if e.quick {
		return 1
	}
	return 5
}

// passResult is what the common part of an in-process traced pass learned.
type passResult struct {
	rows     map[string]float64
	wall     float64 // median untraced op, seconds
	outcomes result  // attempted/failed of the ops the pass ran
}

// tracedPass runs pairs of (untraced op, traced op) on one set-up, checks
// every op, and takes a CPU profile of further untraced ops. The untraced
// ops also give the allocation rows.
func tracedPass(e *env, tr *tracer, setup func() (*loop, error)) (*passResult, error) {
	lp, err := setup()
	if err != nil {
		return nil, err
	}
	pr := &passResult{rows: map[string]float64{}}
	pr.outcomes.Correct = true
	var want string
	run := func(tr *tracer, parent int) (float64, error) {
		t0 := time.Now()
		err := lp.op(tr, parent)
		wall := time.Since(t0).Seconds()
		pr.outcomes.Attempted++
		if err == nil {
			var sig string
			if sig, err = lp.check(); err == nil && want != "" && sig != want {
				err = fmt.Errorf("outputs %s differ from the first op's %s", sig, want)
			} else if want == "" {
				want = sig
			}
		}
		if err != nil {
			pr.outcomes.Failed++
			pr.outcomes.Correct = false
		}
		return wall, err
	}
	if _, err := run(nil, -1); err != nil { // warm-up
		return nil, err
	}
	var plain, traced []float64
	var mallocs, allocBytes uint64
	var before, after runtime.MemStats
	for i := 0; i < tracedPairs(e); i++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		w, err := run(nil, -1)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		allocBytes += after.TotalAlloc - before.TotalAlloc
		plain = append(plain, w)

		runtime.GC() // both ops of a pair start from a collected heap
		root := tr.begin("op", -1)
		_, err = run(tr, root)
		tr.end(root)
		if err != nil {
			return nil, err
		}
	}
	traced = tr.durations("op")
	pr.wall = median(plain)
	pr.rows["runtime.allocs_per_op"] = float64(mallocs) / float64(len(plain))
	pr.rows["runtime.alloc_mb_per_op"] = float64(allocBytes) / float64(len(plain)) / 1e6
	pr.rows["span.root_coverage_pct"] = 100 * tr.coverage("op")
	pr.rows["span.tracing_overhead_pct"] = 100 * (median(traced)/pr.wall - 1)
	for k, v := range lp.sim() {
		pr.rows[k] = v
	}

	shares, err := profileShares(e, func() error {
		for i := 0; i < tracedPairs(e); i++ {
			if _, err := run(nil, -1); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for k, v := range shares {
		pr.rows[k] = v
	}
	return pr, nil
}

// profileShares takes a CPU profile of fn and returns the share of samples
// per package of profPackages, as prof.<pkg>_pct rows, aggregated from
// `go tool pprof -top`.
func profileShares(e *env, fn func() error) (map[string]float64, error) {
	path := filepath.Join(e.outDir, fmt.Sprintf("cpu_%s_%d.pprof", e.workload, e.seed))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	fnErr := fn()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	if fnErr != nil {
		return nil, fnErr
	}
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=100000", "-nodefraction=0", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTop(bytes.NewReader(out))
}

// parseTop sums the flat% column of `pprof -top` output by package.
func parseTop(r io.Reader) (map[string]float64, error) {
	shares := map[string]float64{}
	for _, pkg := range profPackages {
		shares["prof."+pkg+"_pct"] = 0
	}
	sc := bufio.NewScanner(r)
	inTable := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(f) > 1 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof -top line %q: %w", sc.Text(), err)
		}
		shares["prof."+profPackage(f[5])+"_pct"] += pct
	}
	if !inTable {
		return nil, fmt.Errorf("pprof -top printed no table")
	}
	return shares, sc.Err()
}

// profPackage maps a function name to its profPackages bucket.
func profPackage(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		if pkg := rest[:strings.IndexAny(rest+".", "./")]; slices.Contains(profPackages, pkg) {
			return pkg
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") || strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// probe is one layer probe of probes.go; it fills the rows its layer owns.
type probe struct {
	name string
	fn   func(e *env, rows map[string]float64) error
}

// runProbes runs the probes in order, each under its own root span.
func runProbes(e *env, tr *tracer, rows map[string]float64, probes ...probe) error {
	for _, p := range probes {
		sp := tr.begin("probe."+p.name, -1)
		err := p.fn(e, rows)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
	}
	return nil
}

// layersReplay is the traced pass of both replay workloads.
func layersReplay(e *env, tr *tracer) (map[string]float64, result, error) {
	pr, err := tracedPass(e, tr, func() (*loop, error) { return setupReplay(e) })
	if err != nil {
		return nil, result{}, err
	}
	rows := pr.rows
	msgs := rows["sim.msgs"]
	if e.workload == wReplayConflux {
		err = runProbes(e, tr, rows, probe{"trace", probeTrace}, probe{"smpi.exec", probeExecutors},
			probe{"smpi.p2p", probeP2P}, probe{"dist+grid", probeTiles})
		rows["conflux.ctrl_us_per_msg"] = (pr.wall*1e9 - msgs*rows["smpi.p2p_events_ns_per_msg"]) / msgs / 1e3
	} else {
		err = runProbes(e, tr, rows, probe{"trace", probeTrace}, probe{"smpi.bcast", probeBcast}, probe{"topo", probeTopo})
		rows["lu2d.ctrl_us_per_msg"] = (pr.wall*1e9 - msgs*rows["smpi.bcast_events_ns_per_msg"]) / msgs / 1e3
	}
	if err != nil {
		return nil, result{}, err
	}
	return rows, pr.outcomes, nil
}

// layersNumeric is the traced pass of numeric_solve.
func layersNumeric(e *env, tr *tracer) (map[string]float64, result, error) {
	pr, err := tracedPass(e, tr, func() (*loop, error) { return setupNumeric(e) })
	if err != nil {
		return nil, result{}, err
	}
	rows := pr.rows
	rows["conflux.factorize_s"] = median(tr.durations("Session.Factorize"))
	rows["trisolve.solve_s"] = median(tr.durations("Result.SolveManyFactoredContext"))
	err = runProbes(e, tr, rows, probe{"blas+lapack", probeKernels}, probe{"dist+mat", probeDistMat}, probe{"smpi.payload", probePayload})
	if err != nil {
		return nil, result{}, err
	}
	n := float64(e.size().n)
	rows["conflux.numeric_gflops"] = 2.0 / 3.0 * n * n * n / rows["conflux.factorize_s"] / 1e9
	if g := rows["blas.gemm_512_gflops"]; g > 0 { // absent in --quick, which skips the kernel suite
		rows["blas.kernel_efficiency"] = rows["conflux.numeric_gflops"] / g
	}
	return rows, pr.outcomes, nil
}

// coldRequests are the planner requests behind the plan grid: what confluxd
// derives from each point's query, one per engine.
func coldRequests(grid []point) ([]plan.Request, error) {
	var reqs []plan.Request
	for _, pt := range grid {
		var tp conflux.Topology
		if pt.topo != "" {
			var err error
			if tp, err = conflux.TopologyPreset(pt.topo); err != nil {
				return nil, err
			}
		}
		m := conflux.DefaultMachine()
		for _, algo := range costmodel.Algorithms { // what algo=all expands to
			req, err := plan.Request{
				Algorithm: algo, N: pt.n, P: pt.p, Alpha: m.Alpha, Beta: m.Beta,
				Topology: tp, Job: plan.Job(pt.job),
			}.Canonicalize()
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, req)
		}
	}
	return reqs, nil
}

// layersPlanCold is the traced pass of plan_cold: the grid's simulations
// in-process under a CPU profile (confluxd itself cannot be profiled from
// outside), then an untraced and a traced sweep, each against a fresh
// confluxd since a sweep is only cold once.
func layersPlanCold(e *env, tr *tracer) (map[string]float64, result, error) {
	grid := planGrid(e.quick)
	order := rand.New(rand.NewSource(int64(e.seed))).Perm(len(grid))
	rows := map[string]float64{}
	res := result{Correct: true}

	// In-process: what one cold simulation costs and where its CPU goes.
	reqs, err := coldRequests(grid)
	if err != nil {
		return nil, res, err
	}
	var simMS []float64
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	shares, err := profileShares(e, func() error {
		sp := tr.begin("plan.Simulate x grid", -1)
		defer tr.end(sp)
		for _, req := range reqs {
			t0 := time.Now()
			if _, err := plan.Simulate(context.Background(), req); err != nil {
				return err
			}
			simMS = append(simMS, time.Since(t0).Seconds()*1e3)
		}
		return nil
	})
	if err != nil {
		return nil, res, err
	}
	runtime.ReadMemStats(&after)
	for k, v := range shares {
		rows[k] = v
	}
	rows["plan.simulate_ms"] = median(simMS)
	// One op of plan_cold is one sweep, i.e. one pass over reqs.
	rows["runtime.allocs_per_op"] = float64(after.Mallocs - before.Mallocs)
	rows["runtime.alloc_mb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6

	// Against the service: an untraced sweep, then a traced one.
	var walls [2]float64
	for i, t := range []*tracer{nil, tr} {
		s, err := startService(e.binDir)
		if err != nil {
			return nil, res, err
		}
		root := t.begin("sweep", -1)
		t0 := time.Now()
		_, err = s.sweep(grid, order, t, root)
		walls[i] = time.Since(t0).Seconds()
		t.end(root)
		var st serviceStats
		if err == nil {
			st, err = s.checkStats(len(grid))
		}
		s.stop()
		res.Attempted++
		if err != nil {
			return nil, res, err
		}
		st.rows(rows)
	}
	rows["span.root_coverage_pct"] = 100 * tr.coverage("sweep") / coldClients
	rows["span.tracing_overhead_pct"] = 100 * (walls[1]/walls[0] - 1)
	return rows, res, nil
}

// layersPlanHot is the traced pass of plan_hot: one confluxd, an untraced
// hot phase and a traced one, plus the in-process key and cache-hit probes.
func layersPlanHot(e *env, tr *tracer) (map[string]float64, result, error) {
	grid := planGrid(e.quick)
	rng := rand.New(rand.NewSource(int64(e.seed)))
	order := rng.Perm(len(grid))
	rows := map[string]float64{}
	m := &measurement{}
	chunk := hotChunk(e)
	fail := func(err error) (map[string]float64, result, error) {
		return nil, result{Attempted: max(m.attempted, 1), Failed: m.failed}, err
	}

	sp := tr.begin("confluxd start + cache fill", -1)
	s, err := startService(e.binDir)
	if err != nil {
		return fail(err)
	}
	defer s.stop()
	answers, err := s.sweep(grid, order, nil, -1)
	tr.end(sp)
	if err != nil {
		return fail(err)
	}
	// Untraced and traced phases alternate, so that a drift in host speed
	// falls on both sides of the overhead ratio.
	const alternations = 3
	d := time.Duration(e.seconds / 3 / alternations * float64(time.Second))
	var plain, traced hotSamples
	for i := 0; i < alternations; i++ {
		plain.add(s.hotPhase(grid, answers, rng, d, chunk, m, nil, -1))
		root := tr.begin("hot phase", -1)
		traced.add(s.hotPhase(grid, answers, rng, d, chunk, m, tr, root))
		tr.end(root)
	}
	if len(plain.p50) == 0 || len(traced.p50) == 0 {
		return fail(fmt.Errorf("hot phase had no correct burst: %v", m.notes))
	}
	st, err := s.checkStats(len(grid))
	if err != nil {
		return fail(err)
	}
	st.rows(rows)
	rows["confluxd.hit_p99_us"] = median(plain.p99) * 1e6
	rows["confluxd.hit_req_per_s"] = median(plain.qps)
	rows["span.root_coverage_pct"] = 100 * tr.coverage("hot phase") / hotClients
	rows["span.tracing_overhead_pct"] = 100 * (median(traced.p50)/median(plain.p50) - 1)

	if err := runProbes(e, tr, rows, probe{"plan", probePlan}); err != nil {
		return fail(err)
	}
	rows["confluxd.http_overhead_us"] = median(plain.p50)*1e6 - simsPerPoint*rows["plan.evaluate_hit_ns"]/1e3
	return rows, result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed}, nil
}
