package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/mat"
)

// Run with `cd benchmark && go test ./...`: the benchmark is its own module,
// so the root module's `go test ./...` does not descend into it.

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifestJSON(runSeconds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json differs from the manifest; regenerate it with `bash benchmark/run.sh manifest > BENCHMARK.json`")
	}
	if len(got) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, over 64 KiB", len(got))
	}
}

func TestManifestWithinContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloadDocs); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	workloads := map[string]bool{}
	for _, w := range workloadDocs {
		use(w.Name)
		workloads[w.Name] = true
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(e2eMetrics); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	e2e := map[string]bool{}
	for _, m := range e2eMetrics {
		use(m.Name)
		e2e[m.Name] = true
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is outside the contract", m)
		}
	}
	if !e2e["setup_s"] {
		t.Error("no setup_s metric")
	}
	if n := len(layerMetrics); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, m := range layerMetrics {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v is outside the contract", m)
		}
		if !strings.Contains(m.Name, ".") {
			t.Errorf("per-layer metric %s does not start with its module", m.Name)
		}
		if len(m.On) == 0 || m.Moves == "" {
			t.Errorf("per-layer metric %s does not say which workload measures it or what it should move", m.Name)
		}
		for _, w := range m.On {
			if !workloads[w] {
				t.Errorf("per-layer metric %s is measured on unknown workload %q", m.Name, w)
			}
		}
	}
}

// buildConfluxd builds the service the plan workloads drive, once per test
// binary, the way run.sh does.
func buildConfluxd(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", filepath.Join(dir, "confluxd"), "repro/cmd/confluxd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build confluxd: %v\n%s", err, out)
	}
	return dir
}

// TestQuickAllWorkloads runs every workload at toy size, untraced and
// traced, and holds the output to the contract: correct, every metric of
// the manifest present and finite, end-to-end metrics never zero.
func TestQuickAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("starts confluxd subprocesses")
	}
	binDir := buildConfluxd(t)
	for _, w := range workloadDocs {
		for trace := 0; trace <= 1; trace++ {
			e := &env{workload: w.Name, seed: 7, seconds: 0.3, quick: true, binDir: binDir, outDir: t.TempDir()}
			rec, err := run(e, trace)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.Name, trace, err)
			}
			r := rec.Result
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d notes=%v", w.Name, trace, r.Correct, r.Attempted, r.Failed, rec.Notes)
			}
			want := len(e2eMetrics)
			if trace == 1 {
				want = len(layerMetrics)
			}
			if len(r.Metrics) != want {
				t.Errorf("%s trace %d: %d metrics, want %d", w.Name, trace, len(r.Metrics), want)
			}
			for name, m := range r.Metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace %d: %s = %v", w.Name, trace, name, m.Value)
				}
				if trace == 0 && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be zero", w.Name, name, m.Value)
				}
			}
			if _, err := json.Marshal(r); err != nil {
				t.Errorf("%s trace %d: %v", w.Name, trace, err)
			}
			if trace == 1 {
				if _, err := os.Stat(filepath.Join(e.outDir, "trace_"+w.Name+"_7.json")); err != nil {
					t.Errorf("%s: no Chrome trace written: %v", w.Name, err)
				}
			}
		}
	}
}

// The seed generates inputs and nothing else: the same seed gives the same
// inputs and simulated outputs, another seed another matrix and another
// fault plan, and a replay with no random input the same volume.
func TestSeedGeneratesInputsOnly(t *testing.T) {
	sig := func(workload string, seed uint64) string {
		t.Helper()
		e := &env{workload: workload, seed: seed, quick: true}
		lp, err := setupReplay(e)
		if err != nil {
			t.Fatal(err)
		}
		if err := lp.op(nil, -1); err != nil {
			t.Fatal(err)
		}
		s, err := lp.check()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if a, b := sig(wReplayFaulted, 3), sig(wReplayFaulted, 3); a != b {
		t.Errorf("same seed, different simulated outputs: %s vs %s", a, b)
	}
	if a, b := sig(wReplayConflux, 3), sig(wReplayConflux, 4); a != b {
		t.Errorf("replay_conflux has no random input, yet seeds 3 and 4 give %s vs %s", a, b)
	}
	if a, b := faultPlan(3, 256).Canonical(), faultPlan(4, 256).Canonical(); a == b {
		t.Errorf("seeds 3 and 4 draw the same fault plan %s", a)
	}
	if a, b := faultPlan(3, 256).Canonical(), faultPlan(3, 256).Canonical(); a != b {
		t.Errorf("seed 3 draws two fault plans: %s vs %s", a, b)
	}
	for seed := uint64(0); seed < 200; seed++ {
		if err := faultPlan(seed, 256).Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fp := faultPlan(seed, 4)
		if fp.Stragglers[0].Rank == fp.Stragglers[1].Rank || fp.Links[0].FromNode == fp.Links[0].ToNode {
			t.Fatalf("seed %d: degenerate plan %s", seed, fp.Canonical())
		}
	}
	if mat.MaxAbsDiff(mat.Random(16, 16, 3), mat.Random(16, 16, 4)) == 0 {
		t.Error("seeds 3 and 4 generate the same matrix")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

func TestParseTop(t *testing.T) {
	const top = `File: benchmark
Type: cpu
Showing nodes accounting for 10s, 100% of 10s total
      flat  flat%   sum%        cum   cum%
        4s 40.00% 40.00%         5s 50.00%  repro/internal/smpi.(*Comm).Send
        3s 30.00% 70.00%         3s 30.00%  runtime.mallocgc
        2s 20.00% 90.00%         2s 20.00%  repro/internal/blas.micro8x4ASM
        1s 10.00%   100%         1s 10.00%  repro/internal/xpart.Solve
`
	shares, err := parseTop(strings.NewReader(top))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{"prof.smpi_pct": 40, "prof.runtime_pct": 30, "prof.blas_pct": 20, "prof.other_pct": 10, "prof.trace_pct": 0} {
		if shares[name] != want {
			t.Errorf("%s = %v, want %v", name, shares[name], want)
		}
	}
	if _, err := parseTop(strings.NewReader("no table here\n")); err == nil {
		t.Error("parseTop accepted output without a table")
	}
}

// TestCompareVerdicts drives `compare` over hand-made run sets.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall []float64, makespan float64, failed int) string {
		t.Helper()
		path := filepath.Join(dir, name)
		for i, w := range wall {
			e2e := &record{Workload: wReplayConflux, Seed: uint64(i), Result: result{Correct: failed == 0, Attempted: 10, Failed: failed,
				Metrics: map[string]metricValue{"op_wall_ms": {w, "ms"}}}}
			lay := &record{Workload: wReplayConflux, Seed: uint64(i), Trace: 1, Result: result{Correct: true, Attempted: 1,
				Metrics: map[string]metricValue{"sim.makespan_s": {makespan, "s"}, "smpi.spawn_us_per_rank": {2, "us"}}}}
			for _, r := range []*record{e2e, lay} {
				if err := appendRecord(path, r); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	base := write("base", steady, 0.5, 0)
	slower := make([]float64, len(steady))
	noisy := make([]float64, len(steady))
	for i, w := range steady {
		slower[i] = w * 1.4
		noisy[i] = w * (1 + 0.4*float64(i%3))
	}
	for _, c := range []struct {
		name string
		b    string
		code int
		want string
	}{
		{"same", base, 0, "ok"},
		{"slower", write("slower", slower, 0.5, 0), 1, "REGRESSION"},
		{"noisy", write("noisy", noisy, 0.5, 0), 0, "unresolved"},
		{"inexact", write("inexact", steady, 0.5000001, 0), 1, "REGRESSION (seed"},
		{"failed", write("failed", steady, 0.5, 1), 1, "operations failed"},
	} {
		var out bytes.Buffer
		if code := compareMain([]string{base, c.b}, &out); code != c.code {
			t.Errorf("%s: exit code %d, want %d\n%s", c.name, code, c.code, out.String())
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: output lacks %q\n%s", c.name, c.want, out.String())
		}
	}
	if code := compareMain([]string{base}, &bytes.Buffer{}); code != 2 {
		t.Errorf("one argument: exit code %d, want 2", code)
	}
}
