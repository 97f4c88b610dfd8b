package costmodel

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xpart"
)

func TestMaxMemoryParams(t *testing.T) {
	p := MaxMemoryParams(4096, 64)
	if want := 4096.0 * 4096 / 16; p.M != want {
		t.Fatalf("M=%v want %v", p.M, want)
	}
	if c := p.Replication(); math.Abs(c-4) > 1e-9 {
		t.Fatalf("c=%v want 4", c)
	}
}

func TestReplicationClamps(t *testing.T) {
	if c := (Params{N: 1024, P: 64, M: 1}).Replication(); c != 1 {
		t.Fatalf("tiny memory c=%v", c)
	}
	if c := (Params{N: 16, P: 64, M: 1e12}).Replication(); math.Abs(c-4) > 1e-9 {
		t.Fatalf("huge memory c=%v want P^(1/3)=4", c)
	}
}

func TestTable2ModelValues(t *testing.T) {
	// Reproduce the paper's Table 2 modeled GB values (leading terms):
	// LibSci/SLATE at N=16384, P=1024: 70.87 GB; COnfLUX: 44.77 GB.
	// Our models carry explicit lower-order terms, so compare leading-order:
	p := MaxMemoryParams(16384, 1024)
	lib := TotalBytes(LibSci, p) / 1e9
	// Leading: 8·N²·√P = 8·16384²·32 = 68.7 GB. Paper: 70.87.
	if lib < 65 || lib > 75 {
		t.Fatalf("LibSci model %v GB, paper ≈70.9", lib)
	}
	cfx := TotalBytes(COnfLUX, p) / 1e9
	// Paper's model value is 44.77 GB (includes its lower-order terms); the
	// published leading term alone is 8·N³/√M = 21.6 GB. Accept the band
	// between the leading term and the paper's full model.
	if cfx < 20 || cfx > 50 {
		t.Fatalf("COnfLUX model %v GB, expected within [20,50]", cfx)
	}
	if cfx >= lib {
		t.Fatal("COnfLUX model must beat 2D at P=1024")
	}
}

func TestCANDMCFiveTimesCOnfLUX(t *testing.T) {
	// Table 2: CANDMC's leading term is exactly 5× COnfLUX's.
	p := MaxMemoryParams(1<<17, 4096)
	nn, pp := float64(p.N), float64(p.P)
	lead := nn * nn * nn / (pp * math.Sqrt(p.M))
	candmcLead := PerRankElements(CANDMC, p) - 2*nn*nn/pp
	if math.Abs(candmcLead-5*lead) > 1e-6*lead {
		t.Fatalf("CANDMC leading %v want %v", candmcLead, 5*lead)
	}
	cfxLead := PerRankElements(COnfLUX, p) - p.Replication()*nn*nn/pp
	if math.Abs(cfxLead-lead) > 1e-6*lead {
		t.Fatalf("COnfLUX leading %v want %v", cfxLead, lead)
	}
}

func TestModelsReproducePaperTable2(t *testing.T) {
	// The paper's own modeled GB values (Table 2): N=16384, P=1024 →
	// LibSci/SLATE 70.87, COnfLUX 44.77; N=4096, P=1024 → 4.43 / 3.07.
	cases := []struct {
		algo  Algorithm
		n, p  int
		paper float64
	}{
		{LibSci, 16384, 1024, 70.87},
		{COnfLUX, 16384, 1024, 44.77},
		{LibSci, 4096, 1024, 4.43},
		{COnfLUX, 4096, 1024, 3.07},
		{COnfLUX, 4096, 64, 1.08},
		{LibSci, 4096, 64, 1.21},
	}
	for _, tc := range cases {
		got := TotalBytes(tc.algo, MaxMemoryParams(tc.n, tc.p)) / 1e9
		if got < 0.85*tc.paper || got > 1.15*tc.paper {
			t.Fatalf("%s N=%d P=%d: model %.2f GB vs paper %.2f GB", tc.algo, tc.n, tc.p, got, tc.paper)
		}
	}
}

func TestLowerBoundBelowAllModels(t *testing.T) {
	for _, n := range []int{4096, 16384} {
		for _, p := range []int{64, 1024} {
			params := MaxMemoryParams(n, p)
			lb := xpart.LUParallelLowerBound(n, p, params.M)
			for _, a := range Algorithms {
				if m := PerRankElements(a, params); m <= lb {
					t.Fatalf("%s at N=%d P=%d: model %v <= lower bound %v", a, n, p, m, lb)
				}
			}
		}
	}
}

func TestSecondBestIs2DAtModerateScale(t *testing.T) {
	// At the paper's measured scales the 2D libraries beat CANDMC, so the
	// second-best is LibSci or SLATE.
	algo, _ := SecondBest(MaxMemoryParams(16384, 1024))
	if algo != LibSci && algo != SLATE {
		t.Fatalf("second best %s", algo)
	}
}

func TestPredictedReductionGrowsWithP(t *testing.T) {
	// Fig. 7: the reduction vs second-best increases with machine scale.
	_, r1 := PredictedReduction(MaxMemoryParams(16384, 64))
	_, r2 := PredictedReduction(MaxMemoryParams(16384, 4096))
	_, r3 := PredictedReduction(MaxMemoryParams(16384, 262144))
	if !(r1 < r2 && r2 < r3) {
		t.Fatalf("reductions not increasing: %v %v %v", r1, r2, r3)
	}
	if r3 < 1.5 {
		t.Fatalf("Summit-scale predicted reduction %v, paper reports ≈2.1x", r3)
	}
	// Paper: a full-scale Summit run (27,648 GPUs, one rank per GPU) —
	// COnfLUX "expected to communicate 2.1 times less than SLATE".
	if _, red := PredictedReduction(MaxMemoryParams(16384, 27648)); red < 1.7 || red > 3.3 {
		t.Fatalf("Summit reduction %v, paper ≈2.1", red)
	}
}

func TestCrossover2DvsCANDMCIsHuge(t *testing.T) {
	// §9: "CANDMC is predicted to communicate less than suboptimal 2D
	// implementations only for P > 450,000 ranks for N=16,384".
	// With the Table 2 leading terms the crossover lands near 5⁶ ≈ 15.6k
	// ranks; the paper, using CANDMC's full model with its larger
	// lower-order constants, reports ≈450k. Either way the qualitative
	// claim holds: the crossover sits more than an order of magnitude
	// beyond the largest measured configuration (P=1024).
	p := Crossover2DvsCANDMC(16384, 1<<21)
	if p < 0 {
		t.Fatal("no crossover found below 2M ranks")
	}
	if p < 10_000 {
		t.Fatalf("crossover at %d ranks; must far exceed the measured P=1024", p)
	}
}

func TestUnknownAlgorithmPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PerRankElements("nope", MaxMemoryParams(64, 4))
}

// Property: at the paper's maximum-replication setting, COnfLUX's modeled
// per-rank volume beats the 2D libraries for every P ≥ 16 — the shape that
// makes Fig. 6a's ordering hold. (Per-rank volume is NOT monotone in M:
// extra replication buys smaller panels but costs more cross-layer
// reduction, which is exactly the trade-off the paper's v ≥ c constraint
// manages.)
func TestQuick25DBeats2DAtMaxMemory(t *testing.T) {
	f := func(p8 uint8) bool {
		p := 64 << (p8 % 8)
		params := MaxMemoryParams(16384, p)
		return PerRankElements(COnfLUX, params) < PerRankElements(LibSci, params)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: aggregate = per-rank × P × 8 for every algorithm.
func TestQuickTotalBytesConsistent(t *testing.T) {
	f := func(n8, p8 uint8) bool {
		n := 1024 * (int(n8%4) + 1)
		p := 4 << (p8 % 6)
		params := MaxMemoryParams(n, p)
		for _, a := range Algorithms {
			if math.Abs(TotalBytes(a, params)-PerRankElements(a, params)*float64(p)*8) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestApproxPerRankMsgs pins the §7.3 asymptotics behind the planner's
// instant model tier: partial pivoting pays O(N) latency rounds,
// tournament pivoting O(N/v), and an explicit block size overrides v.
func TestApproxPerRankMsgs(t *testing.T) {
	p := MaxMemoryParams(16384, 1024)
	for _, a := range []Algorithm{LibSci, SLATE} {
		if got := ApproxPerRankMsgs(a, p, 0); got != float64(p.N) {
			t.Fatalf("%s: %v msgs, want N=%d", a, got, p.N)
		}
	}
	// CANDMC: the baseline's v = 2c floored at 4; at max replication
	// c = P^(1/3) = ~10.08. COnfLUX: the engine's own rule on its own grid.
	want := map[Algorithm]float64{
		CANDMC:  math.Ceil(float64(p.N) / (2 * p.Replication())),
		COnfLUX: math.Ceil(float64(p.N) / float64(COnfLUXBlockSize(p.N, COnfLUXGrid(p.N, p.P, p.M)))),
	}
	for a, w := range want {
		if got := ApproxPerRankMsgs(a, p, 0); got != w || got <= 0 || got >= float64(p.N) {
			t.Fatalf("%s: %v msgs, want %v, within (0, N)", a, got, w)
		}
	}
	if got, want := ApproxPerRankMsgs(COnfLUX, p, 128), math.Ceil(float64(p.N)/128); got != want {
		t.Fatalf("explicit nb: %v msgs, want %v", got, want)
	}
}

// TestCOnfLUXBlockSize pins the volume-bounded rule at the points the
// records were taken at, and its two guard rails everywhere: it never goes
// below the baseline's max(2c, 4), and it raises v only to a power of two
// ≤ 32 whose N·v traffic share v·c·max(Pr,Pc)/N stays within 1/16.
func TestCOnfLUXBlockSize(t *testing.T) {
	for _, tc := range []struct {
		n, p, want int
		what       string
	}{
		{1024, 16, 16, "numeric_solve (4x4x1)"},
		{4096, 64, 16, "TestConformanceNumericPaperScale"},
		{16384, 1024, 12, "Table 2 headline (13x13x6): floor"},
		{1024, 256, 8, "replay_conflux (8x8x4): floor"},
		{512, 64, 4, "BENCH_topo.json (5x6x2): floor"},
		{256, 64, 4, "largest plan_* point: floor"},
		{256, 8, 4, "golden digest (256, 8, 5)"},
		{517, 12, 8, "golden digest (517, 12, 3)"},
		{3, 4, 3, "matrix smaller than one tile"},
	} {
		g := COnfLUXGrid(tc.n, tc.p, MaxMemoryParams(tc.n, tc.p).M)
		if got := COnfLUXBlockSize(tc.n, g); got != tc.want {
			t.Errorf("%s: N=%d P=%d on %dx%dx%d: v=%d, want %d", tc.what, tc.n, tc.p, g.Pr, g.Pc, g.Layers, got, tc.want)
		}
	}
	for n := 1; n <= 1<<15; n = n*3/2 + 1 {
		for p := 1; p <= 2048; p = p*3/2 + 1 {
			g := COnfLUXGrid(n, p, MaxMemoryParams(n, p).M)
			v, floor := COnfLUXBlockSize(n, g), BaselineBlockSize(n, g.Layers)
			if v < floor || v > max(floor, 32) {
				t.Fatalf("N=%d P=%d: v=%d outside [floor %d, 32]", n, p, v, floor)
			}
			if v > floor && (v&(v-1) != 0 || 16*v*g.Layers*max(g.Pr, g.Pc) > n) {
				t.Fatalf("N=%d P=%d on %dx%dx%d: raised v=%d is not a power of two within the 1/16 share", n, p, g.Pr, g.Pc, g.Layers, v)
			}
		}
	}
}
