package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/topo"
	"repro/internal/trace"
)

// topo.go is the topology experiment behind `confluxbench -exp topology`:
// how the optimal replication depth c (per-rank memory M = c·N²/P) and the
// winning engine move when the flat α-β machine is replaced by
// hierarchical, contended, and faulted network models. The flat rows
// reproduce the plain machine bit-for-bit (the tentpole's parity pin), so
// the sweep isolates exactly what the topology changes: the simulated
// clocks, never the communication volume. BENCH_topo.json freezes the
// small-scale record; cmd/benchdiff compares reruns exactly, since every
// number is deterministic.

// TopoScenario is one network model of the sweep: a named preset spec
// plus an optional fault plan.
type TopoScenario struct {
	// Name labels rows and the optima map ("hier+faults" for the faulted
	// scenario, else the preset name).
	Name   string
	Preset string
	Faults topo.FaultPlan
}

// TopoRow is one (scenario, engine, replication depth) measurement.
type TopoRow struct {
	Scenario string              `json:"scenario"`
	Algo     costmodel.Algorithm `json:"algo"`
	// C is the replication depth: per-rank memory M = C·N²/P. 1 is the 2D
	// working set, P^{1/3} the paper's maximum replication.
	C        int     `json:"c"`
	Mem      float64 `json:"mem"`
	Bytes    int64   `json:"bytes"`
	Makespan float64 `json:"makespan"`
	Grid     string  `json:"grid"`
}

// TopoOptimum is a scenario's best (engine, c) by simulated makespan.
type TopoOptimum struct {
	Algo     costmodel.Algorithm `json:"algo"`
	C        int                 `json:"c"`
	Makespan float64             `json:"makespan"`
}

// TopoReport is the machine-readable record of one sweep. Kind
// distinguishes it from the kernel suite's records in cmd/benchdiff.
type TopoReport struct {
	Kind   string                 `json:"kind"`
	Scale  string                 `json:"scale"`
	N      int                    `json:"n"`
	P      int                    `json:"p"`
	Rows   []TopoRow              `json:"rows"`
	Optima map[string]TopoOptimum `json:"optima"`
}

// WriteJSON emits the record as indented JSON.
func (r *TopoReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// TopoScenarios is the sweep's scenario panel: the flat baseline, the
// hierarchy with and without contention, the contended dragonfly, and a
// degraded variant of the hierarchy (one node's ingress links at 1/8
// bandwidth plus a 4x straggler rank).
func TopoScenarios() []TopoScenario {
	return []TopoScenario{
		{Name: "flat", Preset: "flat"},
		{Name: "hier", Preset: "hier"},
		{Name: "hier-contended", Preset: "hier-contended"},
		{Name: "dragonfly-contended", Preset: "dragonfly-contended"},
		{Name: "hier+faults", Preset: "hier", Faults: topo.FaultPlan{
			Links:      []topo.LinkFault{{FromNode: -1, ToNode: 0, Factor: 8}},
			Stragglers: []topo.Straggler{{Rank: 0, Factor: 4}},
		}},
	}
}

// topoPoint is a scale preset's sweep point.
type topoPoint struct {
	n, p int
	cs   []int
}

// topoPoints: the replication depths sweep c ∈ [1, P^{1/3}] at one
// paper-relevant (N, P) per scale.
var topoPoints = map[string]topoPoint{
	"small":  {n: 512, p: 64, cs: []int{1, 2, 4}},
	"medium": {n: 1024, p: 64, cs: []int{1, 2, 4}},
	"paper":  {n: 16384, p: 1024, cs: []int{1, 2, 4, 8, 10}},
}

// topoEngines: the 2.5D engines sweep every c; LibSci is the 2D baseline,
// meaningful only at c=1 (its grid ignores the replication memory).
var topoEngines = []costmodel.Algorithm{costmodel.COnfLUX, costmodel.CANDMC, costmodel.LibSci}

// measureTopo replays one engine's volume schedule once, recording it, and
// prices the recording under each topology: rows[i] is the row under tps[i],
// its algorithm bytes and its simulated makespan — bit-identical to a replay
// under that topology.
func (h Harness) measureTopo(ctx context.Context, algo costmodel.Algorithm, n, p int, mem float64, tps []trace.Topology) ([]TopoRow, error) {
	eng, err := engine.Lookup(algo)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	cfg := engine.Config{Ranks: p, Memory: mem}
	tl, err := h.recordVolume(ctx, p, engine.VolumeJob(eng, n, cfg).Body)
	if err != nil {
		return nil, fmt.Errorf("bench: topo %s N=%d P=%d: %w", algo, n, p, err)
	}
	rows := make([]TopoRow, len(tps))
	for i, tp := range tps {
		rep, _ := tl.Price(h.Machine, tp)
		rows[i] = TopoRow{Algo: algo, Mem: mem, Grid: eng.GridDesc(n, cfg),
			Bytes: rep.AlgorithmBytes(), Makespan: rep.Time.Makespan}
	}
	return rows, nil
}

// RunTopo sweeps scenario × engine × replication depth at the scale's
// (N, P) point and records each scenario's optimal (engine, c). The flat
// scenario's optimum is the plain α-β answer; any scenario whose optimum
// names a different engine or depth is a network model under which the
// flat-machine plan is the wrong plan — the planner-facing payoff of the
// topology subsystem. Each (engine, c) runs once and its recorded schedule
// is priced under every scenario; rows and progress lines stay
// scenario-major.
func (h Harness) RunTopo(ctx context.Context, scale string, progress io.Writer) (*TopoReport, error) {
	pt, ok := topoPoints[scale]
	if !ok {
		return nil, fmt.Errorf("bench: unknown topology scale %q", scale)
	}
	rep := &TopoReport{Kind: "topology", Scale: scale, N: pt.n, P: pt.p,
		Optima: make(map[string]TopoOptimum)}
	scenarios := TopoScenarios()
	tps := make([]trace.Topology, len(scenarios))
	for i, sc := range scenarios {
		spec, err := topo.PresetSpec(sc.Preset)
		if err != nil {
			return nil, fmt.Errorf("bench: %w", err)
		}
		if tps[i], err = topo.BuildFaulted(spec, h.Machine, pt.p, sc.Faults); err != nil {
			return nil, fmt.Errorf("bench: %w", err)
		}
	}
	// byScenario[i] lists scenario i's rows in engine, then c, order.
	byScenario := make([][]TopoRow, len(scenarios))
	n2p := float64(pt.n) * float64(pt.n) / float64(pt.p)
	for _, algo := range topoEngines {
		cs := pt.cs
		if algo == costmodel.LibSci {
			cs = cs[:1] // 2D baseline: replication memory is unused
		}
		for _, c := range cs {
			rows, err := h.measureTopo(ctx, algo, pt.n, pt.p, float64(c)*n2p, tps)
			if err != nil {
				return nil, err
			}
			for i, row := range rows {
				row.Scenario, row.C = scenarios[i].Name, c
				byScenario[i] = append(byScenario[i], row)
			}
		}
	}
	for _, rows := range byScenario {
		for _, row := range rows {
			rep.Rows = append(rep.Rows, row)
			fmt.Fprintf(progress, "  %-20s %-8s c=%-2d %12d bytes  %.6es\n",
				row.Scenario, row.Algo, row.C, row.Bytes, row.Makespan)
			best, seen := rep.Optima[row.Scenario]
			if !seen || row.Makespan < best.Makespan {
				rep.Optima[row.Scenario] = TopoOptimum{Algo: row.Algo, C: row.C, Makespan: row.Makespan}
			}
		}
	}
	return rep, nil
}
