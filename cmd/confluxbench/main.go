// Command confluxbench regenerates the paper's evaluation artifacts
// (Table 2, Fig. 6a, Fig. 6b, Fig. 7, and the §7 design ablations) on the
// simulated machine. Scale presets:
//
//	-scale small   fast sanity runs (default)
//	-scale medium  minutes; shapes clearly visible
//	-scale paper   the paper's N and P (N up to 16,384, P up to 1,024);
//	               budget tens of minutes
//
// The simulated-time columns use the α-β machine model; -alpha and -beta
// override the paper-scale defaults (≈1 µs, ≈10 GB/s).
//
// Examples:
//
//	confluxbench -exp table2 -scale paper
//	confluxbench -exp fig6a -scale medium
//	confluxbench -exp ablation
//	confluxbench -exp all -scale small
//	confluxbench -exp table2 -alpha 5e-6 -beta 2e-10
//	confluxbench -exp topology -scale small -json BENCH_topo.json
//	confluxbench -exp kernels -json BENCH_kernels.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"

	"repro/internal/bench"
	"repro/internal/costmodel"
	"repro/internal/trace"
)

type scale struct {
	table2N, table2P []int
	fig6aN           int
	fig6aP           []int
	fig6bBase        int
	fig6bP           []int
	fig7N, fig7P     []int
	fig7Measured     int
	ablN, ablP       int
	solveN           int
	solveP           []int
	solveNRHS        int
}

var scales = map[string]scale{
	"small": {
		table2N: []int{128, 256}, table2P: []int{4, 16},
		fig6aN: 256, fig6aP: []int{4, 8, 12, 16, 32},
		fig6bBase: 64, fig6bP: []int{1, 8, 27, 64},
		fig7N: []int{128, 256}, fig7P: []int{4, 16, 4096, 262144}, fig7Measured: 64,
		ablN: 192, ablP: 8,
		solveN: 256, solveP: []int{4, 8, 12, 16, 32}, solveNRHS: 8,
	},
	"medium": {
		table2N: []int{512, 1024}, table2P: []int{16, 64},
		fig6aN: 1024, fig6aP: []int{4, 8, 16, 24, 32, 48, 64, 96, 128},
		fig6bBase: 256, fig6bP: []int{1, 8, 27, 64},
		fig7N: []int{512, 1024}, fig7P: []int{16, 64, 256, 4096, 65536}, fig7Measured: 256,
		ablN: 512, ablP: 32,
		solveN: 1024, solveP: []int{4, 16, 64, 128}, solveNRHS: 16,
	},
	"paper": {
		table2N: []int{4096, 16384}, table2P: []int{64, 1024},
		fig6aN: 16384, fig6aP: []int{4, 8, 16, 32, 64, 128, 256, 512, 768, 1024},
		fig6bBase: 3200, fig6bP: []int{1, 8, 27, 64, 125, 216},
		fig7N: []int{4096, 8192, 16384}, fig7P: []int{64, 256, 1024, 16384, 27648, 262144}, fig7Measured: 1024,
		ablN: 4096, ablP: 64,
		solveN: 16384, solveP: []int{64, 256, 1024}, solveNRHS: 64,
	},
}

// main delegates to realMain so every failure path unwinds normally:
// os.Exit anywhere below the profiling defers would lose the CPU-profile
// flush and the heap snapshot of exactly the runs one most wants profiled
// (errors, SIGINT-canceled paper-scale sweeps).
func main() {
	os.Exit(realMain())
}

// experiments are the -exp names: each run() below, cell, and all.
var experiments = []string{"table2", "fig6a", "fig6b", "fig7", "ablation", "topology", "kernels", "solve", "sweep", "cell", "all"}

func realMain() (code int) {
	exp := flag.String("exp", "all", "experiment: "+strings.Join(experiments, " | "))
	sc := flag.String("scale", "small", "scale preset: small | medium | paper")
	cellN := flag.Int("cellN", 0, "with -exp cell: the N of a single Table-2 cell")
	cellP := flag.Int("cellP", 0, "with -exp cell: the P of a single Table-2 cell")
	csvDir := flag.String("csv", "", "also write machine-readable CSVs into this directory")
	alpha := flag.Float64("alpha", costmodel.DefaultMachine().Alpha, "α: per-message latency of the simulated machine (seconds)")
	beta := flag.Float64("beta", costmodel.DefaultMachine().Beta, "β: per-byte transfer cost of the simulated machine (seconds/byte)")
	jsonOut := flag.String("json", "", "with -exp topology|kernels: write the machine-readable record to this path")
	solveNRHS := flag.Int("nrhs", 0, "with -exp solve: override the scale preset's right-hand-side count")
	workers := flag.Int("parallel", 0, "independent simulated worlds to run concurrently (0 = GOMAXPROCS)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this path")
	memprofile := flag.String("memprofile", "", "write a heap profile (after the run) to this path")
	flag.Parse()
	if !slices.Contains(experiments, *exp) {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want one of %s)\n", *exp, strings.Join(experiments, ", "))
		return 2
	}
	if *exp == "cell" && (*cellN <= 0 || *cellP <= 0) {
		fmt.Fprintf(os.Stderr, "-exp cell needs a positive -cellN and -cellP, got %d and %d\n", *cellN, *cellP)
		return 2
	}
	if err := errors.Join(trace.CheckNonNegative("-alpha", *alpha), trace.CheckNonNegative("-beta", *beta)); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	h := bench.Harness{Machine: costmodel.Machine{Alpha: *alpha, Beta: *beta}, Workers: *workers}
	if *cpuprofile != "" {
		fh, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer fh.Close()
		if err := pprof.StartCPUProfile(fh); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			fh, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				code = 1
				return
			}
			defer fh.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(fh); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				code = 1
			}
		}()
	}
	// SIGINT/SIGTERM cancel the context, which aborts the in-flight
	// simulated world mid-sweep instead of waiting a paper-scale run out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	writeCSV := func(name string, f func(w *os.File) error) error {
		if *csvDir == "" {
			return nil
		}
		path := filepath.Join(*csvDir, name)
		fh, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("csv %s: %w", path, err)
		}
		defer fh.Close()
		if err := f(fh); err != nil {
			return fmt.Errorf("csv %s: %w", path, err)
		}
		fmt.Printf("wrote %s\n", path)
		return nil
	}
	if *exp == "cell" {
		if err := runCell(ctx, h, *cellN, *cellP); err != nil {
			fmt.Fprintf(os.Stderr, "cell: %v\n", err)
			return 1
		}
		return 0
	}
	s, ok := scales[*sc]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *sc)
		return 2
	}
	// The first failing experiment stops the sweep; later run() calls are
	// no-ops and realMain returns non-zero after the defers flush.
	run := func(name string, f func(scale) error) {
		if code != 0 || (*exp != "all" && *exp != name) {
			return
		}
		fmt.Printf("=== %s (scale %s) ===\n", name, *sc)
		if err := f(s); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			code = 1
			return
		}
		fmt.Println()
	}

	run("table2", func(s scale) error {
		res, err := h.RunTable2(ctx, s.table2N, s.table2P)
		if err != nil {
			return err
		}
		res.Render(os.Stdout)
		return writeCSV("table2.csv", func(w *os.File) error { return res.WriteCSV(w) })
	})
	run("fig6a", func(s scale) error {
		res, err := h.RunFig6a(ctx, s.fig6aN, s.fig6aP)
		if err != nil {
			return err
		}
		res.Render(os.Stdout)
		return writeCSV("fig6a.csv", func(w *os.File) error { return res.WriteCSV(w) })
	})
	run("fig6b", func(s scale) error {
		res, err := h.RunFig6b(ctx, s.fig6bBase, s.fig6bP)
		if err != nil {
			return err
		}
		res.Render(os.Stdout)
		return writeCSV("fig6b.csv", func(w *os.File) error { return res.WriteCSV(w) })
	})
	run("fig7", func(s scale) error {
		res, err := h.RunFig7(ctx, s.fig7N, s.fig7P, s.fig7Measured)
		if err != nil {
			return err
		}
		res.Render(os.Stdout)
		if err := writeCSV("fig7.csv", func(w *os.File) error { return res.WriteCSV(w) }); err != nil {
			return err
		}
		algo, red := costmodel.PredictedReduction(costmodel.MaxMemoryParams(16384, 27648))
		fmt.Printf("Summit full-scale prediction (N=16384, P=27648): %.2fx less than %s (paper: 2.1x)\n", red, algo)
		fmt.Printf("CANDMC-vs-2D model crossover at N=16384: P ≈ %d ranks (paper: ≈450k)\n", costmodel.Crossover2DvsCANDMC(16384, 1<<21))
		return nil
	})
	run("ablation", func(s scale) error {
		mem := float64(s.ablN) * float64(s.ablN) / 4
		ab, err := h.MaskingVsSwapping(ctx, s.ablN, s.ablP, mem)
		if err != nil {
			return err
		}
		bench.RenderAblation(os.Stdout, ab)
		ab, err = h.GridOptimizationOnOff(ctx, s.ablN, 7, mem)
		if err != nil {
			return err
		}
		bench.RenderAblation(os.Stdout, ab)
		ab, err = h.TournamentVsPartialPivoting(ctx, s.ablN, s.ablP, mem)
		if err != nil {
			return err
		}
		bench.RenderAblation(os.Stdout, ab)
		return nil
	})
	run("topology", func(s scale) error {
		rep, err := h.RunTopo(ctx, *sc, os.Stdout)
		if err != nil {
			return err
		}
		for _, name := range []string{"flat", "hier", "hier-contended", "dragonfly-contended", "hier+faults"} {
			if o, ok := rep.Optima[name]; ok {
				fmt.Printf("optimal under %-22s %s at c=%d (%.6es)\n", name, o.Algo, o.C, o.Makespan)
			}
		}
		if *jsonOut != "" {
			fh, err := os.Create(*jsonOut)
			if err != nil {
				return err
			}
			defer fh.Close()
			if err := rep.WriteJSON(fh); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		return nil
	})
	// The kernel suite is scale-independent (fixed micro-benchmark shapes,
	// host-relative speedup floor), so the scale struct is unused.
	run("kernels", func(scale) error {
		rep, err := bench.RunKernels(ctx, os.Stdout)
		if err != nil {
			return err
		}
		if *jsonOut != "" {
			fh, err := os.Create(*jsonOut)
			if err != nil {
				return err
			}
			defer fh.Close()
			if err := rep.WriteJSON(fh); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		return nil
	})
	run("solve", func(s scale) error {
		nrhs := s.solveNRHS
		if *solveNRHS > 0 {
			nrhs = *solveNRHS
		}
		res, err := h.RunSolve(ctx, s.solveN, s.solveP, nrhs)
		if err != nil {
			return err
		}
		res.Render(os.Stdout)
		return writeCSV("solve.csv", func(w *os.File) error { return res.WriteCSV(w) })
	})
	run("sweep", func(s scale) error {
		// The scale's Table 2 grid plus the benchmark's two COnfLUX points
		// (numeric_solve, replay_conflux).
		var points [][2]int
		for _, n := range s.table2N {
			for _, p := range s.table2P {
				points = append(points, [2]int{n, p})
			}
		}
		points = append(points, [2]int{1024, 16}, [2]int{1024, 256})
		fmt.Println("COnfLUX blocking-parameter sweep (paper §7.2), maximum memory:")
		return h.RunBlockSizeSweep(ctx, points, os.Stdout)
	})
	return code
}
