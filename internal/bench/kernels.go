package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/blas"
	"repro/internal/lapack"
	"repro/internal/mat"
)

// kernels.go is the local-kernel micro-benchmark suite behind
// `confluxbench -exp kernels` and `make bench-json`: host throughput of
// the cache-blocked level-3 kernels (DESIGN.md §15) against the seed
// straight-loop GEMM, plus blocked TRSM and the blocked LU panel they
// feed. BENCH_kernels.json freezes the record; cmd/benchdiff compares
// reruns with the perf threshold and additionally hard-fails when the
// headline 512×512 GEMM speedup drops below MinGemmSpeedup512 — that
// ratio is the acceptance bar that let numeric factorization at paper
// scale join the conformance suite.

// MinGemmSpeedup512 is the floor on blocked-vs-reference single-thread
// GEMM throughput at 512×512.
const MinGemmSpeedup512 = 4.0

// KernelRow is one micro-benchmark measurement.
type KernelRow struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     int64   `json:"ns_per_op"`
	MFlops      float64 `json:"mflops"`
	AllocsPerOp uint64  `json:"allocs_per_op"`
	BytesPerOp  uint64  `json:"bytes_per_op"`
}

// KernelReport is the machine-readable suite record. Kind distinguishes
// it in cmd/benchdiff; Speedup512 is the blocked/reference GEMM
// throughput ratio at 512×512 (the acceptance headline).
type KernelReport struct {
	Kind       string      `json:"kind"`
	ISA        string      `json:"isa"`
	GoMaxProcs int         `json:"gomaxprocs"`
	Cores      int         `json:"cores"`
	GoVersion  string      `json:"go_version"`
	Speedup512 float64     `json:"speedup_512"`
	Rows       []KernelRow `json:"rows"`
}

// WriteJSON emits the record as indented JSON.
func (r *KernelReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// kernelCase is one suite entry: flops per iteration lets each row report
// throughput alongside wall clock.
type kernelCase struct {
	name  string
	iters int
	flops float64
	run   func()
}

func gemmCase(name string, n, iters int, f func(alpha float64, a, b *mat.Matrix, beta float64, c *mat.Matrix)) kernelCase {
	a := mat.Random(n, n, 1)
	b := mat.Random(n, n, 2)
	c := mat.New(n, n)
	return kernelCase{
		name:  name,
		iters: iters,
		flops: 2 * float64(n) * float64(n) * float64(n),
		run:   func() { f(1, a, b, 0, c) },
	}
}

func kernelCases() []kernelCase {
	cases := []kernelCase{
		gemmCase("gemm-ref/N=512", 512, 3, blas.GemmRef),
		gemmCase("gemm-blocked/N=256", 256, 20, blas.Gemm),
		gemmCase("gemm-blocked/N=512", 512, 10, blas.Gemm),
		gemmCase("gemm-blocked/N=1024", 1024, 3, blas.Gemm),
	}
	n := 512
	g := mat.NewRNG(3)
	l := mat.New(n, n)
	u := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			l.Set(i, j, (g.Float64()-0.5)/float64(n))
		}
		l.Set(i, i, 1)
		u.Set(i, i, 1+g.Float64())
		for j := i + 1; j < n; j++ {
			u.Set(i, j, (g.Float64()-0.5)/float64(n))
		}
	}
	rhs := mat.Random(n, n, 4)
	work := mat.New(n, n)
	trsmFlops := float64(n) * float64(n) * float64(n) // (n²/2 madds per rhs column)·(n columns)·2
	cases = append(cases,
		kernelCase{
			name:  "trsm-lower-left/N=512",
			iters: 5,
			flops: trsmFlops,
			run: func() {
				work.CopyFrom(rhs)
				blas.TrsmLowerLeft(l, work, true)
			},
		},
		kernelCase{
			name:  "trsm-upper-right/N=512",
			iters: 5,
			flops: trsmFlops,
			run: func() {
				work.CopyFrom(rhs)
				blas.TrsmUpperRight(u, work)
			},
		},
	)

	src := mat.Random(n, n, 5)
	for i := 0; i < n; i++ {
		src.Add(i, i, float64(n)) // diagonally dominant: no pivot pathologies
	}
	luWork := mat.New(n, n)
	ipiv := make([]int, n)
	cases = append(cases, kernelCase{
		name:  "getrf-blocked/N=512",
		iters: 5,
		flops: 2.0 / 3.0 * float64(n) * float64(n) * float64(n),
		run: func() {
			luWork.CopyFrom(src)
			if err := lapack.Getrf(luWork, ipiv, 0); err != nil {
				panic(err)
			}
		},
	})
	return append(cases, gemmRowsCase(4, 400), gemmRowsCase(16, 200), gemmRowsCase(32, 100))
}

// gemmRowsCase is the 2.5D engines' Schur update at the shape they call it
// with: a rank-k update scattered to every other row of a 1,024×512 trailing
// block — non-adjacent active rows, a few hundred wide, as on a rank of an
// N = 1,024…4,096 run. k = 4 is the blocking-parameter floor at c ≤ 2 (the
// streaming loop); 16 and 32 are what costmodel.COnfLUXBlockSize raises v to
// where the matrix is large against the grid (the packed micro-kernel).
func gemmRowsCase(k, iters int) kernelCase {
	const m, n = 512, 512
	a, b, c := mat.Random(m, k, 6), mat.Random(k, n, 7), mat.New(2*m, n)
	rows := make([]int, m)
	for i := range rows {
		rows[i] = 2*i + 1
	}
	return kernelCase{
		name:  fmt.Sprintf("gemm-rows/m=512,n=512,k=%d", k),
		iters: iters,
		flops: 2 * m * n * float64(k),
		run:   func() { blas.GemmRows(-1, a, b, c, rows) },
	}
}

// RunKernels measures the suite and derives the headline 512×512 speedup.
// The context is honored between cases (a canceled ctx stops the sweep);
// individual kernel calls are pure CPU and run to completion.
func RunKernels(ctx context.Context, progress io.Writer) (*KernelReport, error) {
	rep := &KernelReport{
		Kind:       "kernels",
		ISA:        blas.KernelISA(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Cores:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
	}
	var refNs, blockedNs int64
	for _, kc := range kernelCases() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		row, err := runKernelCase(kc)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(progress, "  %-36s %14s/op %10.0f MFLOP/s %8d allocs/op\n",
			row.Name, time.Duration(row.NsPerOp), row.MFlops, row.AllocsPerOp)
		rep.Rows = append(rep.Rows, row)
		switch row.Name {
		case "gemm-ref/N=512":
			refNs = row.NsPerOp
		case "gemm-blocked/N=512":
			blockedNs = row.NsPerOp
		}
	}
	if refNs > 0 && blockedNs > 0 {
		rep.Speedup512 = float64(refNs) / float64(blockedNs)
	}
	fmt.Fprintf(progress, "  blocked GEMM speedup at 512x512: %.2fx (floor %.1fx, isa %s)\n",
		rep.Speedup512, MinGemmSpeedup512, rep.ISA)
	return rep, nil
}

// runKernelCase measures one case the same way RunPerfCase does: a
// warm-up rep, then fixed iterations with MemStats deltas.
func runKernelCase(kc kernelCase) (KernelRow, error) {
	row := KernelRow{Name: kc.name, Iters: kc.iters}
	kc.run() // warm-up: pools and (first call) pack buffers
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < kc.iters; i++ {
		kc.run()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	row.NsPerOp = elapsed.Nanoseconds() / int64(kc.iters)
	if row.NsPerOp > 0 {
		row.MFlops = kc.flops / float64(row.NsPerOp) * 1e3
	}
	row.AllocsPerOp = (after.Mallocs - before.Mallocs) / uint64(kc.iters)
	row.BytesPerOp = (after.TotalAlloc - before.TotalAlloc) / uint64(kc.iters)
	return row, nil
}
