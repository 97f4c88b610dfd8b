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
	"repro/internal/cholesky"
	"repro/internal/costmodel"
	"repro/internal/daap"
	"repro/internal/lapack"
	"repro/internal/mat"
	"repro/internal/oocore"
	"repro/internal/pebble"
	"repro/internal/smpi"
	"repro/internal/trace"
	"repro/internal/xpart"
)

// smpiVolumeCholesky replays the 2.5D Cholesky schedule in volume mode at
// the paper's maximum-replication memory.
func smpiVolumeCholesky(n, p int) (*conflux.VolumeReport, error) {
	opt := cholesky.DefaultOptions(n, p, costMaxMem(n, p))
	return smpi.Exec(context.Background(), smpi.Config{P: p, Timeout: 10 * time.Minute}, func(c *smpi.Comm) error {
		_, err := cholesky.Run(c, nil, opt)
		return err
	})
}

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
					ms, err = bench.MeasureAll(b.Context(), n, p)
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
					m, err = bench.Measure(b.Context(), algo, n, p, costmodel.MaxMemoryParams(n, p).M)
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
					m, err = bench.Measure(b.Context(), algo, n, p, costmodel.MaxMemoryParams(n, p).M)
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
		res, err = bench.RunFig7(b.Context(), []int{256}, []int{4, 16, 27648, 262144}, 64)
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
		ab, err = bench.MaskingVsSwapping(b.Context(), 192, 8, float64(192*192)/4)
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
		ab, err = bench.GridOptimizationOnOff(b.Context(), 128, 7, float64(128*128))
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
		ms, err = bench.BlockSizeSweep(b.Context(), 128, 4, float64(128*128), []int{4, 8, 16, 32})
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
// the simulated machine, at the three scale presets. These are the
// `go test -bench` counterparts of `confluxbench -exp perf` (whose JSON
// records BENCH_baseline.json / BENCH_scale.json track the trajectory);
// allocations per op are the refactor's second headline metric, so every
// benchmark reports them. The paper-scale cases (N=16,384, P=1,024 — the
// §8 headline run, COnfLUX and CANDMC) take 6–7 s each on a 2-core host
// and are skipped under -short so smoke runs stay fast.

func benchFactorizeVolume(b *testing.B, algo costmodel.Algorithm, n, p int) {
	b.ReportAllocs()
	mem := costmodel.MaxMemoryParams(n, p).M
	for i := 0; i < b.N; i++ {
		if _, err := bench.Measure(b.Context(), algo, n, p, mem); err != nil {
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

// TestReplayAllocBudget holds the engines' control flow to a heap-object
// budget per simulated message, so a per-step loop over the whole grid — each
// one costs a few objects per rank-step — shows up in `go test`, not in a
// profile. Measured at CommVolume(512), P=64 (bare; -race within 0.02): COnfLUX
// (5×6×2, v=4) 0.37 objects per message, CANDMC (4×4×4, v=8) 0.80, LibSci
// (8×8, nb=32) 0.22. The ceilings are those figures + 25%.
//
// The transport allocates nothing per message, and neither do the binomial
// collectives: BcastInts copies its list once at the root and every hop
// forwards that copy, and ReduceMatSum adds each child's wire buffer into the
// caller's matrix instead of a clone through a receive buffer (COnfLUX 0.60,
// CANDMC 1.69, LibSci 0.25 before). CANDMC was 1.50 before it ran on
// COnfLUX's step loop, whose slab also holds its row exchanges, zeroed
// accumulator blocks and panels. Earlier cuts: COnfLUX and CANDMC were 3.85
// and 7.68 when every rank rebuilt every grid row's broadcast group each step;
// LibSci was 1.70 when every rank-step rebuilt its tile lists, panel maps and
// phase labels, and 1.25 while every pivot-search message carried two 8-byte
// slices. What is left is the tournament's candidate sets, CANDMC's swap plan
// (two small slices per rank-step), LibSci's receive buffer per broadcast
// tile, the booker's value list per pivot search, and the one-time
// communicator set-up.
func TestReplayAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		algo    conflux.Algorithm
		ceiling float64
	}{{conflux.COnfLUX, 0.47}, {conflux.CANDMC, 1.0}, {conflux.LibSci, 0.28}} {
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
		if perMsg := allocs / float64(msgs); perMsg > tc.ceiling {
			t.Errorf("%s: %.0f objects over %d messages = %.2f per message, budget %.2f", tc.algo, allocs, msgs, perMsg, tc.ceiling)
		}
	}
}

func BenchmarkSolveVolume(b *testing.B) {
	cases := []struct{ n, p, nrhs int }{{256, 16, 8}, {4096, 256, 16}}
	for _, tc := range cases {
		b.Run(fmt.Sprintf("N=%d/P=%d/NRHS=%d", tc.n, tc.p, tc.nrhs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bench.MeasureSolve(b.Context(), tc.n, tc.p, tc.nrhs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEventExecutorParallel measures the event executor's
// concurrent-window schedule against the serial baton schedule on the same
// COnfLUX volume replay: workers=1 is the lock-free single-core baseline,
// workers=NumCPU spreads one world's window across the host's cores
// (identical to the baseline on a single-core host, minus the mailbox
// locking overhead the window requires). Reports are bit-identical at
// every width — these rows capture only the host-side cost, like
// `confluxbench -exp sched -workers N` but without the full sweep.
func BenchmarkEventExecutorParallel(b *testing.B) {
	presets := []struct {
		name string
		n, p int
	}{{"small", 256, 16}, {"medium", 1024, 64}}
	widths := []int{1, runtime.NumCPU()}
	if widths[1] == 1 {
		widths = widths[:1]
	}
	for _, pr := range presets {
		for _, w := range widths {
			b.Run(fmt.Sprintf("%s/N=%d/P=%d/workers=%d", pr.name, pr.n, pr.p, w), func(b *testing.B) {
				b.ReportAllocs()
				savedEx, savedW := bench.Executor, bench.ExecWorkers
				bench.Executor, bench.ExecWorkers = smpi.ExecEvents, w
				defer func() { bench.Executor, bench.ExecWorkers = savedEx, savedW }()
				mem := costmodel.MaxMemoryParams(pr.n, pr.p).M
				for i := 0; i < b.N; i++ {
					if _, err := bench.Measure(b.Context(), costmodel.COnfLUX, pr.n, pr.p, mem); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTimelineMerge measures the sharded trace substrate in isolation:
// record matched deliveries round-robin across p ranks, then merge the
// shards into the Report and Events views.
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
				if len(tl.Events()) != tc.events {
					b.Fatal("merge lost events")
				}
			}
		})
	}
}
