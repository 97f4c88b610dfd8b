package bench

import (
	"math"
	"strings"
	"testing"

	"repro/internal/conflux"
	"repro/internal/costmodel"
)

// Test scale: small N keeps volume-mode runs fast; the paper-scale runs are
// driven by cmd/confluxbench and recorded in EXPERIMENTS.md.

func TestMeasureAllProducesAllAlgorithms(t *testing.T) {
	ms, err := MeasureAll(t.Context(), 128, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 4 {
		t.Fatalf("got %d measurements", len(ms))
	}
	seen := map[costmodel.Algorithm]bool{}
	for _, m := range ms {
		seen[m.Algo] = true
		if m.MeasuredBytes <= 0 {
			t.Fatalf("%s: no traffic measured", m.Algo)
		}
		if m.ModeledBytes <= 0 {
			t.Fatalf("%s: no model value", m.Algo)
		}
	}
	if len(seen) != 4 {
		t.Fatalf("algorithms missing: %v", seen)
	}
}

func TestCOnfLUXWinsAtScale(t *testing.T) {
	// The paper's core claim at a reproducible test scale: COnfLUX
	// communicates least among the four.
	ms, err := MeasureAll(t.Context(), 256, 16)
	if err != nil {
		t.Fatal(err)
	}
	var cfx, best int64 = 0, 1 << 62
	var bestAlgo costmodel.Algorithm
	for _, m := range ms {
		if m.Algo == costmodel.COnfLUX {
			cfx = m.MeasuredBytes
			continue
		}
		if m.MeasuredBytes < best {
			best, bestAlgo = m.MeasuredBytes, m.Algo
		}
	}
	if cfx >= best {
		t.Fatalf("COnfLUX %d >= second-best %s %d", cfx, bestAlgo, best)
	}
}

func TestTable2RenderShape(t *testing.T) {
	res, err := RunTable2(t.Context(), []int{128}, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	res.Render(&sb)
	out := sb.String()
	for _, want := range []string{"N=128, P=4", "COnfLUX", "CANDMC", "LibSci", "SLATE", "%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestFig6aStrongScalingShape(t *testing.T) {
	res, err := RunFig6a(t.Context(), 256, []int{4, 16})
	if err != nil {
		t.Fatal(err)
	}
	// Per-node volume decreases with P for every algorithm.
	per := map[costmodel.Algorithm]map[int]float64{}
	for _, m := range res.Points {
		if per[m.Algo] == nil {
			per[m.Algo] = map[int]float64{}
		}
		per[m.Algo][m.P] = m.PerNodeBytes()
	}
	for algo, series := range per {
		if series[16] >= series[4] {
			t.Fatalf("%s per-node volume grew: %v", algo, series)
		}
	}
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "lower-bound") {
		t.Fatal("render missing lower bound column")
	}
}

func TestFig6bWeakScalingFlatnessFor25D(t *testing.T) {
	res, err := RunFig6b(t.Context(), 64, []int{1, 8, 64})
	if err != nil {
		t.Fatal(err)
	}
	per := map[costmodel.Algorithm][]float64{}
	for _, m := range res.Points {
		per[m.Algo] = append(per[m.Algo], m.PerNodeBytes())
	}
	// 2D growth from P=8 to P=64 must exceed COnfLUX growth (which stays
	// near-flat in the paper's Fig. 6b).
	grow := func(s []float64) float64 { return s[len(s)-1] / s[1] }
	if grow(per[costmodel.COnfLUX]) >= grow(per[costmodel.LibSci]) {
		t.Fatalf("COnfLUX weak-scaling growth %.2f vs LibSci %.2f — 2.5D should be flatter",
			grow(per[costmodel.COnfLUX]), grow(per[costmodel.LibSci]))
	}
}

func TestWeakScalingN(t *testing.T) {
	if n := WeakScalingN(3200, 1); n != 3200 {
		t.Fatalf("n=%d", n)
	}
	if n := WeakScalingN(3200, 8); n != 6400 {
		t.Fatalf("n=%d want 6400", n)
	}
	if WeakScalingN(100, 5)%16 != 0 {
		t.Fatal("not rounded to 16")
	}
}

func TestFig7MeasuredAndPredicted(t *testing.T) {
	res, err := RunFig7(t.Context(), []int{128}, []int{4, 1 << 14}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("cells %d", len(res.Cells))
	}
	if !res.Cells[0].Measured || res.Cells[1].Measured {
		t.Fatalf("measured flags wrong: %+v", res.Cells)
	}
	if res.Cells[1].Reduction <= 1 {
		t.Fatalf("predicted reduction %v must exceed 1", res.Cells[1].Reduction)
	}
}

func TestSummitPrediction(t *testing.T) {
	// Paper: a full-scale Summit run (27,648 GPUs, one rank per GPU) —
	// COnfLUX "expected to communicate 2.1 times less than SLATE".
	red, _ := SummitPrediction(16384, 27648)
	if red < 1.7 || red > 3.3 {
		t.Fatalf("Summit reduction %v, paper ≈2.1", red)
	}
}

// TestMaskingVsSwappingAblation pins the §7.3 ablation to the figures it gave
// when masking and swapping were two engines (COnfLUX and CANDMC on CANDMC's
// 2×2×2 grid at v = 4): one engine with the row policy flipped must reproduce
// them to the byte and message.
func TestMaskingVsSwappingAblation(t *testing.T) {
	ab, err := MaskingVsSwapping(t.Context(), 192, 8, float64(192*192)/4)
	if err != nil {
		t.Fatal(err)
	}
	if ab.ABytes != 938336 || ab.BBytes != 1512800 || ab.AMsgs != 4971 || ab.BMsgs != 5626 {
		t.Fatalf("masking %d bytes / %d msgs, swapping %d bytes / %d msgs; recorded 938336 / 4971 and 1512800 / 5626",
			ab.ABytes, ab.AMsgs, ab.BBytes, ab.BMsgs)
	}
	if ab.Ratio() <= 1.05 {
		t.Fatalf("swapping should cost more than masking, ratio %.2f", ab.Ratio())
	}
}

func TestGridOptimizationAblation(t *testing.T) {
	// P=7 (prime): greedy 2D grid degenerates to 1x7; optimization should
	// find something no worse.
	ab, err := GridOptimizationOnOff(t.Context(), 128, 7, float64(128*128))
	if err != nil {
		t.Fatal(err)
	}
	if ab.ABytes > ab.BBytes {
		t.Fatalf("optimized grid (%d bytes) worse than greedy (%d bytes)", ab.ABytes, ab.BBytes)
	}
}

func TestTournamentVsPartialPivotingLatency(t *testing.T) {
	ab, err := TournamentVsPartialPivoting(t.Context(), 256, 4, float64(256*256)/2)
	if err != nil {
		t.Fatal(err)
	}
	if ab.AMsgs <= 0 || ab.BMsgs <= 0 {
		t.Fatalf("missing message counts: %+v", ab)
	}
	// §7.3: tournament pivoting needs O(N/v) rounds vs O(N) per-column
	// reductions — far fewer pivoting-phase messages.
	if ab.AMsgs >= ab.BMsgs {
		t.Fatalf("tournament used %d pivot msgs vs partial pivoting %d", ab.AMsgs, ab.BMsgs)
	}
}

// TestBlockSizeSweep holds the blocking-parameter rule to the record it was
// chosen by (EXPERIMENTS.md "Blocking parameter"): volume only grows with v
// (the N·v lower-order terms), the latency-critical message count falls as
// N/v — each of the N/v steps costs a rank at least one message and at most
// a tournament butterfly plus a handful of binomial-tree broadcasts, 4 +
// 3·log₂P — and wherever costmodel.COnfLUXBlockSize raises v above the
// floor max(2c, 4) on the Table 2 grids of the three scale presets, it pays
// at most 8% more bytes than the floor would.
func TestBlockSizeSweep(t *testing.T) {
	const n, p = 256, 16
	rows, err := BlockSizeSweep(t.Context(), n, p, costmodel.MaxMemoryParams(n, p).M, blockSizeVs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(blockSizeVs) {
		t.Fatalf("%d rows for %v", len(rows), blockSizeVs)
	}
	for i, r := range rows {
		if r.MeasuredBytes <= 0 {
			t.Fatalf("v=%d: empty measurement %+v", r.V, r)
		}
		if i > 0 && r.MeasuredBytes < rows[i-1].MeasuredBytes {
			t.Fatalf("v=%d: %d bytes after %d at v=%d: volume must not fall as v grows", r.V, r.MeasuredBytes, rows[i-1].MeasuredBytes, rows[i-1].V)
		}
		steps := float64((n + r.V - 1) / r.V)
		if msgs := float64(r.MaxRankMsgs); msgs < steps || msgs > (4+3*math.Log2(p))*steps {
			t.Fatalf("v=%d: %v max per-rank messages over %v steps, want within [1, %v] per step", r.V, msgs, steps, 4+3*math.Log2(p))
		}
	}

	points := [][2]int{{128, 4}, {128, 16}, {256, 4}, {256, 16}, {512, 16}, {512, 64}, {1024, 16}, {1024, 64}}
	if !testing.Short() {
		points = append(points, [][2]int{{4096, 64}, {4096, 1024}, {16384, 64}, {16384, 1024}}...)
	}
	raised := 0
	for _, pt := range points {
		n, p := pt[0], pt[1]
		mem := costmodel.MaxMemoryParams(n, p).M
		opt := conflux.DefaultOptions(n, p, mem)
		floor := costmodel.BaselineBlockSize(n, opt.Grid.Layers)
		if opt.V == floor {
			continue // the rule left v alone: nothing to pay
		}
		raised++
		rows, err := BlockSizeSweep(t.Context(), n, p, mem, []int{floor, opt.V})
		if err != nil {
			t.Fatal(err)
		}
		if over := float64(rows[1].MeasuredBytes)/float64(rows[0].MeasuredBytes) - 1; over > 0.08 {
			t.Errorf("N=%d P=%d %s: default v=%d moves %.1f%% more bytes than the floor v=%d (bound 8%%)", n, p, rows[1].GridDesc, opt.V, 100*over, floor)
		}
	}
	if raised == 0 {
		t.Fatal("the rule raised v at none of the points: the bound was not exercised")
	}
}

func TestCrossoverReport(t *testing.T) {
	// Must land far beyond the paper's largest measured configuration
	// (P=1024); see costmodel tests for the paper-vs-model discussion.
	if p := CrossoverReport(16384); p < 10_000 {
		t.Fatalf("crossover %d too small", p)
	}
}

// TestMeasureRegistryEngines: any registered engine is measurable through
// the registry path — including Cholesky, which has no Table 2 model row
// (zero model columns, no panic).
func TestMeasureCholeskyViaRegistry(t *testing.T) {
	m, err := Measure(t.Context(), costmodel.Cholesky, 64, 4, costmodel.MaxMemoryParams(64, 4).M)
	if err != nil {
		t.Fatal(err)
	}
	if m.MeasuredBytes <= 0 {
		t.Fatal("no traffic measured")
	}
	if m.ModeledBytes != 0 || m.PredTime != 0 {
		t.Fatalf("Cholesky has no published model: %v/%v", m.ModeledBytes, m.PredTime)
	}
}

// TestMeasureUnknownAlgorithm: an unregistered name surfaces the registry
// error instead of a hard-coded switch default.
func TestMeasureUnknownAlgorithm(t *testing.T) {
	if _, err := Measure(t.Context(), "HPL", 64, 4, 1024); err == nil {
		t.Fatal("expected registry lookup error")
	}
}
