package main

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
)

// loadTopo loads the committed topology record; each call returns an
// independent copy the caller may mutate.
func loadTopo(t *testing.T) *bench.TopoReport {
	t.Helper()
	rec, err := load("../../BENCH_topo.json")
	if err != nil {
		t.Fatal(err)
	}
	if rec.topo == nil {
		t.Fatal("BENCH_topo.json did not load as a topology record")
	}
	return rec.topo
}

func TestDiffTopoAgainstItself(t *testing.T) {
	rep := loadTopo(t)
	drift, compared := diffTopo(io.Discard, rep, loadTopo(t))
	if drift != 0 || compared != len(rep.Rows) {
		t.Fatalf("drift %d over %d rows, want 0 over %d", drift, compared, len(rep.Rows))
	}
}

func TestDiffTopoOneUlpMakespanIsDrift(t *testing.T) {
	rep := loadTopo(t)
	r := &rep.Rows[len(rep.Rows)/2]
	r.Makespan = math.Nextafter(r.Makespan, math.Inf(1))
	if drift, _ := diffTopo(io.Discard, loadTopo(t), rep); drift != 1 {
		t.Fatalf("one-ulp makespan change counted %d drifts, want 1", drift)
	}
}

func TestDiffTopoMovedOptimumIsDrift(t *testing.T) {
	rep := loadTopo(t)
	o, ok := rep.Optima["flat"]
	if !ok {
		t.Fatal("record has no flat optimum")
	}
	o.C++
	rep.Optima["flat"] = o
	if drift, _ := diffTopo(io.Discard, loadTopo(t), rep); drift != 1 {
		t.Fatalf("moved optimum counted %d drifts, want 1", drift)
	}
}

func TestDiffKernelsSpeedupFloor(t *testing.T) {
	rec, err := load("../../BENCH_kernels.json")
	if err != nil {
		t.Fatal(err)
	}
	if rec.kern == nil {
		t.Fatal("BENCH_kernels.json did not load as a kernels record")
	}
	old := *rec.kern
	slow := old
	slow.Speedup512 = bench.MinGemmSpeedup512 - 0.01
	// Rows compare against themselves, so only the floor can regress.
	regressions, compared := diffKernels(io.Discard, &old, &slow, 10)
	if regressions != 1 || compared != len(old.Rows) {
		t.Fatalf("%d regressions over %d rows, want 1 over %d", regressions, compared, len(old.Rows))
	}
}

func TestLoadRejectsUnknownKind(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"typo.json":    `{"kind": "topolgy", "rows": []}`,
		"missing.json": `{"scale": "small", "results": []}`,
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := load(path); err == nil {
			t.Errorf("%s: loaded a record of unknown kind", name)
		}
	}
}
