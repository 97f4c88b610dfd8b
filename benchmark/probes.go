package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	conflux "repro"
	"repro/internal/bench"
	"repro/internal/blas"
	confluxengine "repro/internal/conflux"
	"repro/internal/costmodel"
	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/lapack"
	"repro/internal/mat"
	"repro/internal/plan"
	"repro/internal/smpi"
	"repro/internal/topo"
	"repro/internal/trace"
)

// probes.go times single layers from outside, through their exported
// functions, at the shapes the workloads drive them with. Each probe fills
// the rows its layer owns; manifest.go says which end-to-end metric each
// row should move. Probes take a median of a few short repetitions: they
// are recorded, not gated.

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink float64

// medianOf runs fn reps times and returns the median wall time in seconds.
func medianOf(reps int, fn func() error) (float64, error) {
	walls := make([]float64, reps)
	for i := range walls {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		walls[i] = time.Since(t0).Seconds()
	}
	return median(walls), nil
}

func reps(e *env, full int) int {
	if e.quick {
		return 1
	}
	return full
}

// probeExecutors replays the workload's own point with the executor pinned:
// the measurement ROADMAP item 2 needs before `auto` can be re-decided.
func probeExecutors(e *env, rows map[string]float64) error {
	for _, c := range []struct {
		row  string
		opts []conflux.Option
	}{
		{"smpi.exec_events_s", []conflux.Option{conflux.WithExecutor("events")}},
		{"smpi.exec_goroutines_s", []conflux.Option{conflux.WithExecutor("goroutines")}},
		{"smpi.exec_events_w2_s", []conflux.Option{conflux.WithExecutor("events"), conflux.WithWorkers(2)}},
	} {
		lp, err := setupReplay(e, c.opts...)
		if err != nil {
			return err
		}
		if err := lp.op(nil, -1); err != nil { // warm-up
			return err
		}
		if rows[c.row], err = medianOf(reps(e, 3), func() error { return lp.op(nil, -1) }); err != nil {
			return err
		}
	}
	return nil
}

// ring runs `rounds` rounds of a P-rank ring exchange of m under cfg; timed
// from outside, spawn and teardown are included.
func ring(cfg smpi.Config, rounds int, m *mat.Matrix) error {
	_, err := smpi.Exec(context.Background(), cfg, func(c *smpi.Comm) error {
		p, me := c.Size(), c.Rank()
		buf := m
		if !m.Phantom() {
			buf = m.Clone()
		}
		for k := 0; k < rounds; k++ {
			c.SendMat((me+1)%p, k, m)
			c.RecvMat((me+p-1)%p, k, buf)
		}
		return nil
	})
	return err
}

// probeP2P times the point-to-point path on a 256-rank ring of 64-element
// phantom messages under each executor, allocations per message, and the
// cost of spawning a rank that does nothing.
func probeP2P(e *env, rows map[string]float64) error {
	p, rounds := 256, 200
	if e.quick {
		p, rounds = 8, 20
	}
	msg := mat.NewPhantom(8, 8)
	for _, c := range []struct {
		row  string
		exec smpi.Executor
	}{{"smpi.p2p_events_ns_per_msg", smpi.ExecEvents}, {"smpi.p2p_goroutines_ns_per_msg", smpi.ExecGoroutines}} {
		cfg := smpi.Config{P: p, Executor: c.exec}
		if err := ring(cfg, rounds, msg); err != nil { // warm-up
			return err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		wall, err := medianOf(reps(e, 5), func() error { return ring(cfg, rounds, msg) })
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		rows[c.row] = wall * 1e9 / float64(p*rounds)
		if c.exec == smpi.ExecEvents {
			rows["smpi.allocs_per_msg"] = float64(after.Mallocs-before.Mallocs) / float64(reps(e, 5)*p*rounds)
		}
	}
	spawn, err := medianOf(reps(e, 20), func() error {
		_, err := smpi.Exec(context.Background(), smpi.Config{P: p}, func(*smpi.Comm) error { return nil })
		return err
	})
	rows["smpi.spawn_us_per_rank"] = spawn * 1e6 / float64(p)
	return err
}

// probeBcast times BcastMat on 16-rank row sub-communicators of a 16x16
// world: the broadcast trees the 2D engine spends its messages on.
func probeBcast(e *env, rows map[string]float64) error {
	side, rounds := 16, 100
	if e.quick {
		side, rounds = 2, 10
	}
	msg := mat.NewPhantom(8, 8)
	run := func() error {
		_, err := smpi.Exec(context.Background(), smpi.Config{P: side * side, Executor: smpi.ExecEvents}, func(c *smpi.Comm) error {
			row := c.Rank() / side
			members := make([]int, side)
			for i := range members {
				members[i] = row*side + i
			}
			rc := c.Sub("row", members)
			for k := 0; k < rounds; k++ {
				rc.BcastMat(k%side, msg)
			}
			return nil
		})
		return err
	}
	if err := run(); err != nil { // warm-up
		return err
	}
	wall, err := medianOf(reps(e, 5), run)
	// A binomial broadcast over `side` ranks sends side-1 messages.
	rows["smpi.bcast_events_ns_per_msg"] = wall * 1e9 / float64(side*(side-1)*rounds)
	return err
}

// probePayload times the numeric message path: 32 KiB real payloads through
// the pooled wire buffers, goroutine executor, 16-rank ring.
func probePayload(e *env, rows map[string]float64) error {
	rounds := reps(e, 300)
	cfg := smpi.Config{P: e.size().p, Payload: true, Executor: smpi.ExecGoroutines}
	msg := mat.Random(64, 64, 1)
	if err := ring(cfg, rounds, msg); err != nil { // warm-up: fills the pools
		return err
	}
	wall, err := medianOf(reps(e, 5), func() error { return ring(cfg, rounds, msg) })
	rows["smpi.payload_p2p_ns_per_msg"] = wall * 1e9 / float64(cfg.P*rounds)
	return err
}

// timelineRanks is the world size of the probe timeline.
const timelineRanks = 256

// timelineEvents drives n deliveries (RecordSend + RecordRecv) through a
// fresh timeline under tp and returns it with the wall time.
func timelineEvents(n int, tp trace.Topology) (*trace.Timeline, float64) {
	const p = timelineRanks
	tl := trace.NewTimeline(p, trace.DefaultMachine())
	tl.SetTopology(tp)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		from, to := i%p, (i*7+1)%p
		st := tl.RecordSend(from, to, 512, "probe")
		tl.RecordRecv(from, to, 512, "probe", st)
	}
	return tl, time.Since(t0).Seconds()
}

func probeEvents(e *env) int {
	if e.quick {
		return 20_000
	}
	return 1_000_000
}

// probeTrace times the timeline every delivery of a replay is recorded on:
// per-event cost, retained bytes per event, and Report().
func probeTrace(e *env, rows map[string]float64) error {
	n := probeEvents(e)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tl, wall := timelineEvents(n, nil)
	runtime.GC()
	runtime.ReadMemStats(&after)
	rows["trace.record_ns_per_event"] = wall * 1e9 / float64(n)
	rows["trace.bytes_per_event"] = float64(after.HeapAlloc-before.HeapAlloc) / float64(n)
	t0 := time.Now()
	rep := tl.Report()
	rows["trace.report_ms"] = time.Since(t0).Seconds() * 1e3
	sink += rep.Time.Makespan
	return nil
}

// probeTopo times building the workload's faulted topology, what pricing
// an event under it costs over the flat machine, and what the faults do to
// the simulated makespan of the workload's own replay.
func probeTopo(e *env, rows map[string]float64) error {
	sz := e.size()
	spec, err := conflux.TopologyPreset("dragonfly-contended")
	if err != nil {
		return err
	}
	// Built for the probe timeline's 256 ranks, which is also the
	// workload's world size.
	fp := faultPlan(e.seed, timelineRanks)
	var tp trace.Topology
	build, err := medianOf(reps(e, 50), func() error {
		var err error
		tp, err = topo.BuildFaulted(spec, trace.DefaultMachine(), timelineRanks, fp)
		return err
	})
	if err != nil {
		return err
	}
	rows["topo.build_us"] = build * 1e6
	n := probeEvents(e)
	_, flatWall := timelineEvents(n, nil)
	_, topoWall := timelineEvents(n, tp)
	rows["topo.price_ns_per_event"] = (topoWall - flatWall) * 1e9 / float64(n)

	flat, err := conflux.New(conflux.WithRanks(sz.p), conflux.WithAlgorithm(conflux.LibSci))
	if err != nil {
		return err
	}
	rep, err := flat.CommVolume(context.Background(), sz.n)
	if err != nil {
		return err
	}
	rows["topo.makespan_ratio"] = rows["sim.makespan_s"] / rep.Time.Makespan
	return nil
}

// probeTiles times the tile bookkeeping a replay leans on: Store.Tile over
// a phantom store of the workload's matrix, and the grid optimisation every
// COnfLUX run starts with.
func probeTiles(e *env, rows map[string]float64) error {
	sz := e.size()
	mem := costmodel.MaxMemoryParams(sz.n, sz.p).M
	var opt confluxengine.Options
	wall, err := medianOf(reps(e, 20), func() error {
		opt = confluxengine.DefaultOptions(sz.n, sz.p, mem)
		return nil
	})
	if err != nil {
		return err
	}
	rows["grid.optimize_us"] = wall * 1e6
	bc := grid.BlockCyclic{G: opt.Grid, V: opt.V, N: sz.n}
	st := dist.NewStore(bc, 0, 0, 0, false)
	tis, tjs := bc.LocalTileRows(0, 0), bc.LocalTileCols(0, 0)
	sweeps := reps(e, 200)
	visit := func() {
		for _, ti := range tis {
			for _, tj := range tjs {
				sink += float64(st.Tile(ti, tj).Rows)
			}
		}
	}
	visit() // materialises the tiles: the probe times the steady state
	t0 := time.Now()
	for i := 0; i < sweeps; i++ {
		visit()
	}
	rows["dist.tile_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(sweeps*len(tis)*len(tjs))
	return nil
}

// probeKernels times the local kernels: the repo's own kernel suite for the
// 512/1,024 rows, GEMM at the v x v tile the engine actually calls it on,
// and one tournament round at the engine's stack shape.
func probeKernels(e *env, rows map[string]float64) error {
	sz := e.size()
	opt := confluxengine.DefaultOptions(sz.n, sz.p, costmodel.MaxMemoryParams(sz.n, sz.p).M)
	v := opt.V
	rows["conflux.tile_v"] = float64(v)

	a, b, c := mat.Random(v, v, 1), mat.Random(v, v, 2), mat.Random(v, v, 3)
	calls := reps(e, 200_000)
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		blas.Gemm(-1, a, b, 1, c)
	}
	rows["blas.gemm_tile_gflops"] = 2 * float64(v*v*v) * float64(calls) / time.Since(t0).Seconds() / 1e9

	// One tournament round: every rank selects v of its N/Pr stacked rows,
	// two winner sets merge and select again, the final winners factor.
	stack := lapack.Candidates{Rows: mat.Random(sz.n/opt.Grid.Pr, v, 4), IDs: make([]int, sz.n/opt.Grid.Pr)}
	for i := range stack.IDs {
		stack.IDs[i] = i
	}
	wall, err := medianOf(reps(e, 20), func() error {
		w1, err := lapack.SelectCandidates(stack, v)
		if err != nil {
			return err
		}
		w2, err := lapack.SelectCandidates(lapack.MergeCandidates(w1, w1), v)
		if err != nil {
			return err
		}
		_, _, err = lapack.FactorA00(w2)
		return err
	})
	if err != nil {
		return err
	}
	rows["lapack.tournament_us"] = wall * 1e6
	if e.quick {
		return nil // the kernel suite alone takes seconds
	}

	rep, err := bench.RunKernels(context.Background(), io.Discard)
	if err != nil {
		return err
	}
	for _, r := range rep.Rows {
		row, ok := map[string]string{
			"gemm-blocked/N=512":           "blas.gemm_512_gflops",
			"gemm-blocked/N=1024":          "blas.gemm_1024_gflops",
			"gemm-blocked/N=512,workers=2": "blas.gemm_512_w2_gflops",
			"trsm-lower-left/N=512":        "blas.trsm_ll_512_gflops",
			"trsm-upper-right/N=512":       "blas.trsm_ur_512_gflops",
			"getrf-blocked/N=512":          "lapack.getrf_512_gflops",
		}[r.Name]
		if ok {
			rows[row] = r.MFlops / 1e3
		}
	}
	if rows["blas.gemm_512_gflops"] == 0 {
		return fmt.Errorf("bench.RunKernels no longer has a gemm-blocked/N=512 row")
	}
	return nil
}

// probeDistMat times scattering and gathering the workload's real matrix
// over its grid, and the two mat primitives the engine calls per tile.
func probeDistMat(e *env, rows map[string]float64) error {
	sz := e.size()
	opt := confluxengine.DefaultOptions(sz.n, sz.p, costmodel.MaxMemoryParams(sz.n, sz.p).M)
	g := grid.Grid{Pr: opt.Grid.Pr, Pc: opt.Grid.Pc, Layers: 1, Total: opt.Grid.Pr * opt.Grid.Pc}
	bc := grid.BlockCyclic{G: g, V: opt.V, N: sz.n}
	a := mat.Random(sz.n, sz.n, e.seed)
	back := mat.New(sz.n, sz.n)
	wall, err := medianOf(reps(e, 3), func() error {
		_, err := smpi.Exec(context.Background(), smpi.Config{P: g.Total, Payload: true}, func(c *smpi.Comm) error {
			r, col, layer := g.Coords(c.Rank())
			st := dist.NewStore(bc, r, col, layer, true)
			var src, dst *mat.Matrix
			if c.Rank() == 0 {
				src, dst = a, back
			}
			dist.Scatter(c, 0, src, g, st)
			dist.Gather(c, 0, dst, g, st)
			return nil
		})
		return err
	})
	if err != nil {
		return err
	}
	if d := mat.MaxAbsDiff(a, back); d != 0 {
		return fmt.Errorf("scatter+gather changed the matrix by %g", d)
	}
	rows["dist.scatter_gather_ms"] = wall * 1e3

	sweeps := reps(e, 2000)
	t0 := time.Now()
	for s := 0; s < sweeps; s++ {
		for i := 0; i < a.Rows; i++ {
			sink += a.Row(i)[0]
		}
	}
	rows["mat.row_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(sweeps*a.Rows)
	copies := reps(e, 20)
	t0 = time.Now()
	for i := 0; i < copies; i++ {
		back.CopyFrom(a)
	}
	rows["mat.copy_gb_s"] = float64(copies*a.Len()*8) / time.Since(t0).Seconds() / 1e9
	return nil
}

// probePlan times the two in-process steps of a hot request: canonicalise
// and key, and a planner cache hit.
func probePlan(e *env, rows map[string]float64) error {
	reqs, err := coldRequests(planGrid(true)[:1])
	if err != nil {
		return err
	}
	req := reqs[0]
	calls := reps(e, 20_000)
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		r, err := req.Canonicalize()
		if err != nil {
			return err
		}
		sink += float64(len(r.Key()))
	}
	rows["plan.key_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(calls)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // the planner's simulations hang off this context
	pl := plan.NewPlanner(ctx, plan.Options{})
	if _, _, err := pl.Evaluate(ctx, req, time.Minute); err != nil {
		return err
	}
	t0 = time.Now()
	for i := 0; i < calls; i++ {
		if _, outcome, err := pl.Evaluate(ctx, req, time.Minute); err != nil || outcome != plan.OutcomeHit {
			return fmt.Errorf("warm Evaluate: outcome %q, err %v", outcome, err)
		}
	}
	rows["plan.evaluate_hit_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(calls)
	return nil
}
