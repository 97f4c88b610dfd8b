package main

import (
	"encoding/json"
	"strings"
)

// The manifest is the single source of truth for the benchmark's names:
// BENCHMARK.json at the repo root is generated from it (`benchmark manifest`)
// and benchmark_test.go fails when the two drift.

// Workload names. Each is one set of inputs and one closed loop.
const (
	wReplayConflux = "replay_conflux"
	wReplayFaulted = "replay_2d_faulted"
	wNumericSolve  = "numeric_solve"
	wPlanCold      = "plan_cold"
	wPlanHot       = "plan_hot"
)

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDocs = []workloadDoc{
	{wReplayConflux, "COnfLUX volume replay at P=256: engine control flow, dist/grid tiles, smpi event scheduling and trace do all the work; blas/lapack/topo do none"},
	{wReplayFaulted, "LibSci 2D volume replay at P=256 under faulted dragonfly-contended: smpi broadcast trees, trace and topo pricing dominate; a conflux engine change must not move it"},
	{wNumericSolve, "COnfLUX factorize + 8-RHS solve with real payloads on the goroutine executor: blas/mat/dist/lapack/trisolve do the work, trace/topo almost none"},
	{wPlanCold, "confluxd subprocess answering a sweep of distinct plan points over HTTP, every one a cache miss: plan.Simulate and small-world smpi set-up"},
	{wPlanHot, "confluxd subprocess answering Zipf-drawn repeats of warm points from one closed-loop client, both pinned to one CPU: parse, key, cache, encode with no simulation at all"},
}

// e2eMetric is one end-to-end metric: every workload reports every one, and
// none is ever zero. Bound is the share of the parent's median by which the
// metric may get worse before a change counts as a regression.
type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

var e2eMetrics = []e2eMetric{
	{"setup_s", "s", "lower", 0.25},
	{"op_wall_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// layerMetric is one per-layer metric, module name first. On lists the
// workloads whose traced run measures it; every other workload reports 0,
// which reads "this workload does not exercise the layer". Moves names the
// end-to-end metric and workload the number is expected to move.
type layerMetric struct {
	Name   string
	Unit   string
	Better string
	On     []string
	Moves  string
	// Exact marks simulated or counted values that repeat bit for bit;
	// `compare` fails them on any difference instead of applying a bound.
	Exact bool
}

var (
	onReplays = []string{wReplayConflux, wReplayFaulted}
	onSim     = []string{wReplayConflux, wReplayFaulted, wNumericSolve}
	onInProc  = []string{wReplayConflux, wReplayFaulted, wNumericSolve, wPlanCold}
	onAll     = []string{wReplayConflux, wReplayFaulted, wNumericSolve, wPlanCold, wPlanHot}
	onPlan    = []string{wPlanCold, wPlanHot}
)

// profPackages are the repro/internal/<pkg> prefixes the CPU profile of a
// traced run is split by; "runtime" collects the Go runtime and "other"
// the rest (net/http, syscalls, the benchmark's own checks).
var profPackages = []string{"conflux", "lu2d", "smpi", "trace", "topo", "dist", "grid", "mat", "blas", "lapack", "trisolve", "plan", "runtime", "other"}

var layerMetrics = buildLayerMetrics()

func buildLayerMetrics() []layerMetric {
	one := func(w string) []string { return []string{w} }
	ms := []layerMetric{
		// smpi: the executors and the message path.
		{"smpi.exec_events_s", "s", "lower", one(wReplayConflux), "op_wall_ms on replay_conflux when auto resolves to events", false},
		{"smpi.exec_goroutines_s", "s", "lower", one(wReplayConflux), "op_wall_ms on replay_conflux when auto resolves to goroutines", false},
		{"smpi.exec_events_w2_s", "s", "lower", one(wReplayConflux), "op_wall_ms on replay_conflux under WithWorkers(2)", false},
		{"smpi.p2p_events_ns_per_msg", "ns", "lower", one(wReplayConflux), "op_wall_ms and cpu_ms_per_op on replay_conflux and replay_2d_faulted", false},
		{"smpi.p2p_goroutines_ns_per_msg", "ns", "lower", one(wReplayConflux), "op_wall_ms on numeric_solve (its executor)", false},
		{"smpi.allocs_per_msg", "count", "lower", one(wReplayConflux), "cpu_ms_per_op and peak_rss_mb on both replays", false},
		{"smpi.spawn_us_per_rank", "us", "lower", one(wReplayConflux), "op_wall_ms on plan_cold (small worlds), setup_s on replays", false},
		{"smpi.bcast_events_ns_per_msg", "ns", "lower", one(wReplayFaulted), "op_wall_ms on replay_2d_faulted", false},
		{"smpi.payload_p2p_ns_per_msg", "ns", "lower", one(wNumericSolve), "op_wall_ms on numeric_solve", false},
		// trace: the timeline every delivery is recorded on.
		{"trace.record_ns_per_event", "ns", "lower", onReplays, "op_wall_ms on both replays", false},
		{"trace.report_ms", "ms", "lower", onReplays, "op_wall_ms on both replays", false},
		{"trace.bytes_per_event", "B", "lower", onReplays, "peak_rss_mb on both replays", false},
		// topo: per-pair pricing under the faulted topology.
		{"topo.build_us", "us", "lower", one(wReplayFaulted), "op_wall_ms on replay_2d_faulted", false},
		{"topo.price_ns_per_event", "ns", "lower", one(wReplayFaulted), "op_wall_ms on replay_2d_faulted; nothing on replay_conflux", false},
		{"topo.makespan_ratio", "ratio", "lower", one(wReplayFaulted), "sim.makespan_s on replay_2d_faulted", true},
		// engines: control flow left after the message path is taken out.
		{"conflux.ctrl_us_per_msg", "us", "lower", one(wReplayConflux), "op_wall_ms on replay_conflux (computed residual)", false},
		{"lu2d.ctrl_us_per_msg", "us", "lower", one(wReplayFaulted), "op_wall_ms on replay_2d_faulted (computed residual)", false},
		{"conflux.factorize_s", "s", "lower", one(wNumericSolve), "op_wall_ms on numeric_solve", false},
		{"trisolve.solve_s", "s", "lower", one(wNumericSolve), "op_wall_ms on numeric_solve", false},
		{"conflux.numeric_gflops", "GFLOP/s", "higher", one(wNumericSolve), "op_wall_ms on numeric_solve", false},
		{"conflux.tile_v", "count", "higher", one(wNumericSolve), "blas.gemm_tile_gflops, then op_wall_ms on numeric_solve", true},
		// blas / lapack: local kernels.
		{"blas.kernel_efficiency", "ratio", "higher", one(wNumericSolve), "op_wall_ms on numeric_solve", false},
		{"blas.gemm_tile_gflops", "GFLOP/s", "higher", one(wNumericSolve), "op_wall_ms on numeric_solve (the size the engine calls)", false},
		{"blas.gemm_512_gflops", "GFLOP/s", "higher", one(wNumericSolve), "op_wall_ms on numeric_solve by at most the solve/refinement share", false},
		{"blas.gemm_1024_gflops", "GFLOP/s", "higher", one(wNumericSolve), "op_wall_ms on numeric_solve by at most the solve/refinement share", false},
		{"blas.gemm_512_w2_gflops", "GFLOP/s", "higher", one(wNumericSolve), "op_wall_ms on numeric_solve under WithKernelWorkers(2)", false},
		{"blas.trsm_ll_512_gflops", "GFLOP/s", "higher", one(wNumericSolve), "op_wall_ms on numeric_solve", false},
		{"blas.trsm_ur_512_gflops", "GFLOP/s", "higher", one(wNumericSolve), "op_wall_ms on numeric_solve", false},
		{"lapack.getrf_512_gflops", "GFLOP/s", "higher", one(wNumericSolve), "op_wall_ms on numeric_solve", false},
		{"lapack.tournament_us", "us", "lower", one(wNumericSolve), "op_wall_ms on numeric_solve", false},
		// dist / grid / mat: tile bookkeeping.
		{"dist.tile_ns", "ns", "lower", one(wReplayConflux), "op_wall_ms on replay_conflux", false},
		{"dist.scatter_gather_ms", "ms", "lower", one(wNumericSolve), "op_wall_ms on numeric_solve", false},
		{"grid.optimize_us", "us", "lower", one(wReplayConflux), "op_wall_ms on replay_conflux and plan_cold", false},
		{"mat.row_ns", "ns", "lower", one(wNumericSolve), "op_wall_ms on numeric_solve", false},
		{"mat.copy_gb_s", "GB/s", "higher", one(wNumericSolve), "op_wall_ms on numeric_solve", false},
		// plan / confluxd: the serving path.
		{"plan.key_ns", "ns", "lower", one(wPlanHot), "op_wall_ms and cpu_ms_per_op on plan_hot", false},
		{"plan.evaluate_hit_ns", "ns", "lower", one(wPlanHot), "op_wall_ms and cpu_ms_per_op on plan_hot", false},
		{"plan.simulate_ms", "ms", "lower", one(wPlanCold), "op_wall_ms and cpu_ms_per_op on plan_cold", false},
		{"plan.simulations", "count", "lower", onPlan, "op_wall_ms on plan_cold", true},
		{"plan.cache_hit_ratio", "ratio", "higher", onPlan, "op_wall_ms on plan_hot", false},
		{"confluxd.http_overhead_us", "us", "lower", one(wPlanHot), "op_wall_ms on plan_hot (computed: p50 - 4 x evaluate_hit)", false},
		{"confluxd.hit_req_per_s", "1/s", "higher", one(wPlanHot), "the throughput view of op_wall_ms on plan_hot", false},
		{"confluxd.hit_p99_us", "us", "lower", one(wPlanHot), "recorded, ungated until its noise floor is known", false},
		// sim / costmodel: the simulated outputs, which repeat exactly.
		{"sim.comm_bytes_per_rank", "B", "lower", onSim, "the paper's own metric; no host-time metric", true},
		{"sim.makespan_s", "s", "lower", onSim, "no host-time metric; must not move unless the model changes", true},
		{"sim.msgs", "count", "lower", onSim, "op_wall_ms on the same workload", true},
		{"sim.backward_error", "ratio", "lower", one(wNumericSolve), "must stay <= 1e-9", true},
		{"costmodel.bytes_vs_model_pct", "%", "lower", onReplays, "sim.comm_bytes_per_rank against Table 2", true},
		{"costmodel.time_vs_pred_pct", "%", "lower", onReplays, "sim.makespan_s against the alpha-beta prediction", true},
		{"costmodel.max_rank_msgs", "count", "lower", onReplays, "sim.makespan_s (latency term, paper 7.3)", true},
		// runtime and the traced pass itself.
		{"runtime.allocs_per_op", "count", "lower", onInProc, "cpu_ms_per_op and peak_rss_mb on the same workload", false},
		{"runtime.alloc_mb_per_op", "MB", "lower", onInProc, "cpu_ms_per_op and peak_rss_mb on the same workload", false},
		{"span.root_coverage_pct", "%", "higher", onAll, "none: how much of a traced op its child spans explain", false},
		{"span.tracing_overhead_pct", "%", "lower", onAll, "none: traced op against the untraced median", false},
	}
	for _, pkg := range profPackages {
		ms = append(ms, layerMetric{"prof." + pkg + "_pct", "%", "lower", onInProc,
			"share of CPU samples in " + pkg + " on the same workload (sampling; cross-check on the probes)", false})
	}
	return ms
}

// manifestJSON renders BENCHMARK.json.
func manifestJSON(runSeconds int) ([]byte, error) {
	type layerDoc struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	layers := make([]layerDoc, len(layerMetrics))
	for i, m := range layerMetrics {
		layers[i] = layerDoc{m.Name, m.Unit, m.Better}
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDoc `json:"workloads"`
		EndToEnd   []e2eMetric   `json:"end_to_end"`
		PerLayer   []layerDoc    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadDocs,
		EndToEnd:   e2eMetrics,
		PerLayer:   layers,
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, err
	}
	return []byte(b.String()), nil
}
