package bench

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"repro/internal/topo"
)

// TestTopoScenariosBuild: every sweep scenario resolves and builds — the
// cheap guard that keeps the panel in sync with the preset registry.
func TestTopoScenariosBuild(t *testing.T) {
	for _, sc := range TopoScenarios() {
		spec, err := topo.PresetSpec(sc.Preset)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		tp, err := topo.BuildFaulted(spec, paper.Machine, 64, sc.Faults)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if sc.Name != "flat" && tp == nil {
			t.Fatalf("%s: built nil topology", sc.Name)
		}
	}
	if _, err := paper.RunTopo(t.Context(), "galactic", io.Discard); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

// TestRunTopoSmall runs the full small-scale sweep and pins its headline
// claims: topology re-times schedules without touching their volume, the
// record is JSON-stable, and — the subsystem's reason to exist — the
// optimal (engine, replication depth) under the contended dragonfly
// differs from the flat machine's optimum. Skipped under -short: the
// sweep replays 35 worlds.
func TestRunTopoSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full topology sweep")
	}
	rep, err := paper.RunTopo(t.Context(), "small", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// 5 scenarios × (2 engines × 3 depths + LibSci at c=1).
	if len(rep.Rows) != 35 {
		t.Fatalf("%d rows, want 35", len(rep.Rows))
	}
	if rep.Kind != "topology" {
		t.Fatalf("kind %q, want topology", rep.Kind)
	}
	// Volume is a schedule property: for each (engine, c), every scenario
	// must report the same bytes as the flat baseline.
	type point struct {
		algo string
		c    int
	}
	flatBytes := map[point]int64{}
	for _, r := range rep.Rows {
		if r.Scenario == "flat" {
			flatBytes[point{string(r.Algo), r.C}] = r.Bytes
		}
	}
	for _, r := range rep.Rows {
		if want := flatBytes[point{string(r.Algo), r.C}]; r.Bytes != want {
			t.Fatalf("%s %s c=%d moved %d bytes, flat moved %d — topology must only re-time",
				r.Scenario, r.Algo, r.C, r.Bytes, want)
		}
	}
	// The acceptance point: at least one network model changes the plan.
	flat, ok := rep.Optima["flat"]
	if !ok {
		t.Fatal("no flat optimum recorded")
	}
	df, ok := rep.Optima["dragonfly-contended"]
	if !ok {
		t.Fatal("no dragonfly-contended optimum recorded")
	}
	if flat.Algo == df.Algo && flat.C == df.C {
		t.Fatalf("flat and dragonfly-contended agree on (%s, c=%d) — the sweep no longer demonstrates a plan shift",
			flat.Algo, flat.C)
	}
	// Faults only slow things down.
	if rep.Optima["hier+faults"].Makespan <= rep.Optima["hier"].Makespan {
		t.Fatal("faulted optimum is not slower than the clean hierarchy")
	}
	// The record round-trips through its JSON encoding.
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back TopoReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != len(rep.Rows) || back.Optima["flat"] != flat {
		t.Fatal("JSON round trip lost rows or optima")
	}
}
