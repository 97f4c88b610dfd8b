package conflux_test

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (§8–§9), plus ablation and kernel micro-benchmarks. Each bench
// replays the communication schedules in volume mode and reports the metered
// traffic through b.ReportMetric, so `go test -bench=. -benchmem` regenerates
// the paper's rows/series at test scale. Paper-scale parameters (N=16,384,
// P=1,024) are driven by `go run ./cmd/confluxbench -scale paper`; results
// for both scales are recorded in EXPERIMENTS.md.

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	conflux "repro"
	"repro/internal/bench"
	"repro/internal/blas"
	conflux25d "repro/internal/conflux"
	"repro/internal/costmodel"
	"repro/internal/daap"
	"repro/internal/engine"
	"repro/internal/lapack"
	"repro/internal/mat"
	"repro/internal/oocore"
	"repro/internal/pebble"
	"repro/internal/smpi"
	"repro/internal/testutil"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/xpart"
)

// smpiVolumeCholesky replays the 2.5D Cholesky schedule in volume mode at
// the paper's maximum-replication memory.
func smpiVolumeCholesky(n, p int) (*conflux.VolumeReport, error) {
	opt := conflux25d.CholeskyOptions(n, p, costMaxMem(n, p))
	return smpi.Exec(context.Background(), smpi.Config{P: p, Timeout: 10 * time.Minute}, func(c *smpi.Comm) error {
		_, err := conflux25d.Run(c, nil, opt)
		return err
	})
}

// harness measures under the default machine, one world per host CPU.
var harness = bench.Harness{Machine: conflux.DefaultMachine()}

func costMaxMem(n, p int) float64 {
	return costmodel.MaxMemoryParams(n, p).M
}

// BenchmarkTable2 regenerates Table 2: measured vs modeled aggregate
// communication volume for the four implementations.
func BenchmarkTable2(b *testing.B) {
	for _, n := range []int{128, 256} {
		for _, p := range []int{4, 16} {
			b.Run(fmt.Sprintf("N=%d/P=%d", n, p), func(b *testing.B) {
				var ms []bench.Measurement
				for i := 0; i < b.N; i++ {
					var err error
					ms, err = harness.MeasureAll(b.Context(), n, p)
					if err != nil {
						b.Fatal(err)
					}
				}
				for _, m := range ms {
					b.ReportMetric(float64(m.MeasuredBytes)/1e6, string(m.Algo)+"-MB")
					b.ReportMetric(m.PredictionPct(), string(m.Algo)+"-pred%")
				}
			})
		}
	}
}

// BenchmarkFig6a regenerates the strong-scaling series: per-node volume vs P
// at fixed N, for every algorithm.
func BenchmarkFig6a(b *testing.B) {
	n := 256
	for _, p := range []int{4, 8, 16, 32} {
		for _, algo := range costmodel.Algorithms {
			b.Run(fmt.Sprintf("%s/P=%d", algo, p), func(b *testing.B) {
				var m bench.Measurement
				for i := 0; i < b.N; i++ {
					var err error
					m, err = harness.Measure(b.Context(), algo, n, p, costmodel.MaxMemoryParams(n, p).M)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(m.PerNodeBytes()/1e3, "KB/node")
				b.ReportMetric(m.ModeledBytes/float64(p)/1e3, "model-KB/node")
			})
		}
	}
}

// BenchmarkFig6b regenerates the weak-scaling series N = base·∛P.
func BenchmarkFig6b(b *testing.B) {
	base := 64
	for _, p := range []int{8, 27, 64} {
		n := bench.WeakScalingN(base, p)
		for _, algo := range []costmodel.Algorithm{costmodel.LibSci, costmodel.COnfLUX} {
			b.Run(fmt.Sprintf("%s/P=%d", algo, p), func(b *testing.B) {
				var m bench.Measurement
				for i := 0; i < b.N; i++ {
					var err error
					m, err = harness.Measure(b.Context(), algo, n, p, costmodel.MaxMemoryParams(n, p).M)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(m.PerNodeBytes()/1e3, "KB/node")
			})
		}
	}
}

// BenchmarkFig7 regenerates the reduction-vs-second-best heatmap (measured
// cells at small P, model-predicted cells at Summit scale).
func BenchmarkFig7(b *testing.B) {
	var res *bench.Fig7Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = harness.RunFig7(b.Context(), []int{256}, []int{4, 16, 27648, 262144}, 64)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range res.Cells {
		kind := "pred"
		if c.Measured {
			kind = "meas"
		}
		b.ReportMetric(c.Reduction, fmt.Sprintf("x-P%d-%s", c.P, kind))
	}
}

// BenchmarkAblationMaskingVsSwapping backs §7.3's row-masking argument.
func BenchmarkAblationMaskingVsSwapping(b *testing.B) {
	var ab bench.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		ab, err = harness.MaskingVsSwapping(b.Context(), 192, 8, float64(192*192)/4)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ab.Ratio(), "swap/mask-ratio")
}

// BenchmarkAblationGridOptimization backs the §8 Processor Grid Optimization
// (Fig. 6a inset) for an awkward rank count.
func BenchmarkAblationGridOptimization(b *testing.B) {
	var ab bench.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		ab, err = harness.GridOptimizationOnOff(b.Context(), 128, 7, float64(128*128))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ab.Ratio(), "greedy/optimized-ratio")
}

// BenchmarkAblationBlockSize sweeps the §7.2 blocking parameter v.
func BenchmarkAblationBlockSize(b *testing.B) {
	var ms []bench.BlockSizeRow
	for i := 0; i < b.N; i++ {
		var err error
		ms, err = harness.BlockSizeSweep(b.Context(), 128, 4, float64(128*128), []int{4, 8, 16, 32})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, m := range ms {
		b.ReportMetric(float64(m.MeasuredBytes)/1e3, fmt.Sprintf("v=%d%s-KB", m.V, m.GridDesc))
	}
}

// BenchmarkLowerBoundDerivation measures the §3 generic optimizer pipeline.
func BenchmarkLowerBoundDerivation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if q := xpart.LUDerivedLowerBound(4096, 64, 1<<20); q <= 0 {
			b.Fatal("bad bound")
		}
	}
}

// BenchmarkPebbleGreedy measures the red-blue pebble game scheduler on the
// Fig. 1 cDAG.
func BenchmarkPebbleGreedy(b *testing.B) {
	g := daap.BuildLUCDAG(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := pebble.Greedy(g, 24); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionCholesky meters the 2.5D Cholesky extension (the
// conclusions' future-work kernel) against the derived lower bound.
func BenchmarkExtensionCholesky(b *testing.B) {
	var rep *conflux.VolumeReport
	for i := 0; i < b.N; i++ {
		var err error
		if rep, err = smpiVolumeCholesky(256, 16); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(conflux.AlgorithmBytes(rep))/1e3, "KB")
	b.ReportMetric(conflux.LowerBoundCholesky(256, 16, costMaxMem(256, 16))*8*16/1e3, "lower-KB")
}

// BenchmarkExtensionCholeskyNumeric times the numeric 2.5D Cholesky through
// the public API: potrf, the panel solve and the shared Schur update on real
// payloads, with allocations per op.
func BenchmarkExtensionCholeskyNumeric(b *testing.B) {
	a := testutil.SPD(1024, 7)
	s, err := conflux.New(conflux.WithRanks(8), conflux.WithAlgorithm(conflux.Cholesky))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.FactorizeSPD(b.Context(), a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionOutOfCore meters the sequential software-cache LU
// against the §6 sequential bound 2N³/(3√M).
func BenchmarkExtensionOutOfCore(b *testing.B) {
	n, m := 192, 3*16*16
	var total int64
	for i := 0; i < b.N; i++ {
		a := mat.RandomDiagDominant(n, 7)
		st, err := oocore.FactorizeOOC(a, m)
		if err != nil {
			b.Fatal(err)
		}
		total = st.Loads + st.Stores
	}
	b.ReportMetric(float64(total), "elements")
	b.ReportMetric(float64(total)/conflux.LowerBoundLU(n, 1, float64(m)), "x-over-bound")
}

// BenchmarkGemm and BenchmarkGetrf are substrate micro-benchmarks.
func BenchmarkGemm(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			x := mat.Random(n, n, 1)
			y := mat.Random(n, n, 2)
			z := mat.New(n, n)
			b.SetBytes(int64(8 * n * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blas.Gemm(1, x, y, 0, z)
			}
		})
	}
}

func BenchmarkGetrf(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			a := mat.RandomDiagDominant(n, 3)
			ipiv := make([]int, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lu := a.Clone()
				if err := lapack.Getrf(lu, ipiv, 32); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFactorizeNumeric measures the end-to-end numeric distributed
// factorization through the public API.
func BenchmarkFactorizeNumeric(b *testing.B) {
	a := conflux.RandomMatrix(128, 9)
	for _, algo := range []conflux.Algorithm{conflux.COnfLUX, conflux.LibSci} {
		b.Run(string(algo), func(b *testing.B) {
			s, err := conflux.New(conflux.WithRanks(4), conflux.WithAlgorithm(algo))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Factorize(b.Context(), a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Execution-core benchmarks: the host-side cost of replaying schedules on
// the simulated machine, at the three scale presets, for profiling with
// `go test -bench` (the gated host measurements are the benchmark module's
// workloads, benchmark/ and BENCHMARK.json). Every benchmark reports
// allocations per op, where a per-step loop over the grid shows first.
// The paper-scale cases (N=16,384, P=1,024 — the §8 headline run) take
// 3.6–4.1 s (COnfLUX) and 4.6 s (CANDMC) per op on a 2-core host, and LibSci
// at P=1,024 takes a few seconds; all three are skipped under -short so
// smoke runs stay fast.

func benchFactorizeVolume(b *testing.B, algo costmodel.Algorithm, n, p int) {
	b.ReportAllocs()
	mem := costmodel.MaxMemoryParams(n, p).M
	for i := 0; i < b.N; i++ {
		if _, err := harness.Measure(b.Context(), algo, n, p, mem); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFactorizeVolumeSmall(b *testing.B) { benchFactorizeVolume(b, costmodel.COnfLUX, 256, 16) }
func BenchmarkFactorizeVolumeMedium(b *testing.B) {
	benchFactorizeVolume(b, costmodel.COnfLUX, 1024, 64)
}

func BenchmarkFactorizeVolumePaper(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-scale replay (N=16384, P=1024) skipped under -short")
	}
	benchFactorizeVolume(b, costmodel.COnfLUX, 16384, 1024)
}

func BenchmarkFactorizeVolumePaperCANDMC(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-scale replay (N=16384, P=1024) skipped under -short")
	}
	benchFactorizeVolume(b, costmodel.CANDMC, 16384, 1024)
}

// BenchmarkFactorizeVolumeLibSciP1024 is the 2D engine's replay at the
// paper's rank count, LibSci at N=4,096, P=1,024, where one N-length array on
// every rank would be 32 MB of each op's bytes.
func BenchmarkFactorizeVolumeLibSciP1024(b *testing.B) {
	if testing.Short() {
		b.Skip("LibSci replay (N=4096, P=1024) skipped under -short")
	}
	benchFactorizeVolume(b, costmodel.LibSci, 4096, 1024)
}

// BenchmarkReplayLibSciFaulted is the benchmark module's replay_2d_faulted
// point — LibSci, CommVolume(2048), P = 256, dragonfly-contended with two 4×
// stragglers and one 8× inter-node link — as a root benchmark, so the 2D
// replay can be profiled with `go test -bench` instead of through the nested
// module. 487 k messages, ~0.3 s per replay on a 2-core host; skipped under
// -short like the paper-scale pair.
func BenchmarkReplayLibSciFaulted(b *testing.B) {
	if testing.Short() {
		b.Skip("faulted LibSci replay (N=2048, P=256) skipped under -short")
	}
	s, err := conflux.New(conflux.WithRanks(256), conflux.WithAlgorithm(conflux.LibSci),
		conflux.WithTopologyPreset("dragonfly-contended"),
		conflux.WithFaults(conflux.FaultPlan{
			Stragglers: []conflux.Straggler{{Rank: 37, Factor: 4}, {Rank: 170, Factor: 4}},
			Links:      []conflux.LinkFault{{FromNode: 5, ToNode: 41, Factor: 8}},
		}))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.CommVolume(b.Context(), 2048); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPriceSchedule records the replay_2d_faulted replay's schedule
// once and times pricing it under its own faulted dragonfly: what one more
// machine costs when the schedule is already known. It reports the recorded
// schedule's bytes per timed delivery and the price-to-live ratio against
// the fastest of three live (non-recording) replays timed first. Skipped
// under -short like BenchmarkReplayLibSciFaulted.
func BenchmarkPriceSchedule(b *testing.B) {
	if testing.Short() {
		b.Skip("faulted LibSci replay (N=2048, P=256) skipped under -short")
	}
	const n, p = 2048, 256
	spec, err := conflux.TopologyPreset("dragonfly-contended")
	if err != nil {
		b.Fatal(err)
	}
	m := conflux.DefaultMachine()
	tp, err := topo.BuildFaulted(spec, m, p, conflux.FaultPlan{
		Stragglers: []conflux.Straggler{{Rank: 37, Factor: 4}, {Rank: 170, Factor: 4}},
		Links:      []conflux.LinkFault{{FromNode: 5, ToNode: 41, Factor: 8}},
	})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := engine.Lookup(conflux.LibSci)
	if err != nil {
		b.Fatal(err)
	}
	job := engine.VolumeJob(eng, n, engine.Config{Ranks: p})
	replay := func(record bool) (*trace.Timeline, time.Duration) {
		w := smpi.NewWorldMachine(p, false, m)
		w.Trace.SetTopology(tp)
		if record {
			w.Trace.Record()
		}
		t0 := time.Now()
		if _, err := smpi.Exec(b.Context(), smpi.Config{World: w}, job.Body); err != nil {
			b.Fatal(err)
		}
		return w.Trace, time.Since(t0)
	}
	live := time.Duration(1<<63 - 1)
	for range 3 {
		_, d := replay(false)
		live = min(live, d)
	}
	tl, _ := replay(true)
	var deliveries int64
	for _, k := range tl.Report().Time.Msgs {
		deliveries += k
	}
	b.ReportAllocs()
	for b.Loop() {
		tl.Price(m, tp)
	}
	b.ReportMetric(float64(tl.ScheduleBytes())/float64(deliveries), "B/delivery")
	b.ReportMetric(float64(b.Elapsed())/float64(b.N)/float64(live), "price/live")
}

// TestReplayAllocBudget holds the engines' control flow to a heap-object
// budget per simulated message, so a per-step loop over the whole grid — each
// one costs a few objects per rank-step — shows up in `go test`, not in a
// profile; and each replay to a byte budget, so that state sized by N on
// every rank does too. Measured bare (-race adds at most 0.4 MB and 0.02
// objects per message): at CommVolume(512), P=64, COnfLUX
// (5×6×2, v=4) 0.31 objects per message, CANDMC (4×4×4, v=8) 0.52, LibSci
// (8×8, nb=32) 0.18; at CommVolume(2048), P=256, where one N-length []int per
// rank is 4.2 MB, COnfLUX 10.9 MB per replay, CANDMC 13.7 MB, LibSci 5.8 MB.
// The ceilings are those figures + 25%, which one such slice breaks on each.
//
// The replays took 19.0, 46.7 and 18.3 MB (and 0.37, 0.80 and 0.21 objects
// per message) while every rank kept an N-entry pivot order and mask
// (COnfLUX, CANDMC) or pivot vector and the permutation built from it
// (LibSci), LibSci allocated its panel pivots and CANDMC its swap plan every
// step, and the volume-mode tournament copied every candidate's ID. The
// transport allocates nothing per message, and neither do the binomial
// collectives: BcastInts copies its list once at the root and every hop
// forwards that copy, and ReduceMatSum adds each child's wire buffer into the
// caller's matrix instead of a clone through a receive buffer (COnfLUX 0.60,
// CANDMC 1.69, LibSci 0.25 before). CANDMC was 1.50 before it ran on
// COnfLUX's step loop, whose slab also holds its row exchanges, zeroed
// accumulator blocks and panels. Earlier cuts: COnfLUX and CANDMC were 3.85
// and 7.68 when every rank rebuilt every grid row's broadcast group each step;
// LibSci was 1.70 when every rank-step rebuilt its tile lists, panel maps and
// phase labels, and 1.25 while every pivot-search message carried two 8-byte
// slices. What is left is the tournament's winners, LibSci's receive buffer
// per broadcast tile, the booker's value list per pivot search, the layout's
// part lists (one entry per tile a rank owns) and the one-time communicator
// set-up.
func TestReplayAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		algo     conflux.Algorithm
		perMsg   float64 // objects per message at CommVolume(512), P = 64
		replayMB float64 // MB allocated per CommVolume(2048), P = 256
	}{{conflux.COnfLUX, 0.39, 13.6}, {conflux.CANDMC, 0.65, 17.1}, {conflux.LibSci, 0.22, 7.2}} {
		s, err := conflux.New(conflux.WithRanks(64), conflux.WithAlgorithm(tc.algo))
		if err != nil {
			t.Fatal(err)
		}
		var msgs int64
		allocs := testing.AllocsPerRun(3, func() {
			rep, err := s.CommVolume(t.Context(), 512)
			if err != nil {
				t.Fatal(err)
			}
			msgs = rep.TotalMsgs()
		})
		if perMsg := allocs / float64(msgs); perMsg > tc.perMsg {
			t.Errorf("%s: %.0f objects over %d messages = %.2f per message, budget %.2f", tc.algo, allocs, msgs, perMsg, tc.perMsg)
		}
		if mb := replayMB(t, tc.algo, 2048, 256); mb > tc.replayMB {
			t.Errorf("%s: %.2f MB per replay at N=2048, P=256, budget %.1f", tc.algo, mb, tc.replayMB)
		}
	}
}

// TestNumericSolveAllocBudget holds a small numeric factorize+solve —
// SolveMany on COnfLUX at N=256, P=8, 8 right-hand sides, one refinement
// sweep — to a heap-object ceiling. Measured bare after a warm-up run: 5,102
// objects per call, 5,485 under -race (whose sync.Pool drops a random share
// of returned buffers); 6,433 bare while smpi and blas each kept a pool whose
// Put boxed a slice header per returned buffer. The ceiling, 5,900, sits
// between.
func TestNumericSolveAllocBudget(t *testing.T) {
	const ceiling = 5900
	s, err := conflux.New(conflux.WithRanks(8), conflux.WithRefineSweeps(1))
	if err != nil {
		t.Fatal(err)
	}
	a, b := conflux.RandomMatrix(256, 3), conflux.RandomMatrix(256, 4).View(0, 0, 256, 8)
	solve := func() {
		if _, _, err := s.SolveMany(t.Context(), a, b); err != nil {
			t.Fatal(err)
		}
	}
	solve()
	if allocs := testing.AllocsPerRun(5, solve); allocs > ceiling {
		t.Errorf("%.0f objects per SolveMany, ceiling %d", allocs, ceiling)
	}
}

// replayMB is the heap bytes one CommVolume(n) replay of algo on p ranks
// allocates, in MB, measured after a warm-up replay.
func replayMB(t *testing.T, algo conflux.Algorithm, n, p int) float64 {
	t.Helper()
	s, err := conflux.New(conflux.WithRanks(p), conflux.WithAlgorithm(algo))
	if err != nil {
		t.Fatal(err)
	}
	replay := func() {
		if _, err := s.CommVolume(t.Context(), n); err != nil {
			t.Fatal(err)
		}
	}
	replay()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	replay()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 1e6
}

func BenchmarkSolveVolume(b *testing.B) {
	cases := []struct{ n, p, nrhs int }{{256, 16, 8}, {4096, 256, 16}}
	for _, tc := range cases {
		b.Run(fmt.Sprintf("N=%d/P=%d/NRHS=%d", tc.n, tc.p, tc.nrhs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := harness.MeasureSolve(b.Context(), tc.n, tc.p, tc.nrhs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTimelineMerge measures the sharded trace substrate in isolation:
// record matched deliveries round-robin across p ranks, then merge the
// shards into the Report.
func BenchmarkTimelineMerge(b *testing.B) {
	cases := []struct{ p, events int }{{64, 200_000}, {1024, 1_000_000}}
	for _, tc := range cases {
		b.Run(fmt.Sprintf("P=%d/events=%d", tc.p, tc.events), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tl := trace.NewTimeline(tc.p, trace.DefaultMachine())
				for e := 0; e < tc.events; e++ {
					from, to := e%tc.p, (e+1)%tc.p
					st := tl.RecordSend(from, to, 1024, "merge")
					tl.RecordRecv(from, to, 1024, "merge", st)
				}
				if tl.Report().TotalMsgs() != int64(tc.events) {
					b.Fatal("merge lost messages")
				}
			}
		})
	}
}
