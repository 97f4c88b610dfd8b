// Command lubound prints X-Partitioning I/O lower bounds (paper §3–§6) for
// the kernels covered by this reproduction, alongside the cost models of the
// measured implementations.
//
//	lubound -kernel lu -n 16384 -p 1024
//	lubound -kernel mmm -n 8192 -m 1e6
//	lubound -kernel cholesky -n 4096 -p 64
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"slices"

	"repro/internal/costmodel"
	"repro/internal/trace"
	"repro/internal/xpart"
)

func main() { os.Exit(realMain()) }

// realMain runs the command and returns its exit code: 2 for a usage error.
func realMain() int {
	kernel := flag.String("kernel", "lu", "kernel: lu | mmm | cholesky")
	n := flag.Int("n", 16384, "matrix dimension N")
	p := flag.Int("p", 1024, "processors P")
	m := flag.Float64("m", 0, "fast memory per processor in elements (default N²/P^(2/3))")
	flag.Parse()
	kernels := []string{"lu", "mmm", "cholesky"}
	if !slices.Contains(kernels, *kernel) || *n <= 0 || *p <= 0 || trace.CheckNonNegative("-m", *m) != nil {
		fmt.Fprintf(os.Stderr, "want -kernel lu|mmm|cholesky, positive -n and -p and a finite -m >= 0; got %q, %d, %d and %v\n",
			*kernel, *n, *p, *m)
		return 2
	}
	mem := *m
	if mem == 0 {
		mem = costmodel.MaxMemoryParams(*n, *p).M
	}
	fmt.Printf("kernel=%s N=%d P=%d M=%.0f elements\n\n", *kernel, *n, *p, mem)
	switch *kernel {
	case "lu":
		closed := xpart.LUParallelLowerBound(*n, *p, mem)
		derived := xpart.LUDerivedLowerBound(*n, *p, mem)
		fmt.Printf("parallel I/O lower bound (closed form §6):   %.4g elements/proc\n", closed)
		fmt.Printf("parallel I/O lower bound (derived, §3 opt.): %.4g elements/proc\n", derived)
		fmt.Printf("COnfLUX leading term N³/(P√M):               %.4g (%.2fx over bound)\n",
			float64(*n)*float64(*n)*float64(*n)/(float64(*p)*math.Sqrt(mem)),
			xpart.COnfLUXOverLowerBound(*n, *p, mem))
		fmt.Println("\nTable 2 cost models (elements/proc):")
		for _, a := range costmodel.Algorithms {
			fmt.Printf("  %-8s %.4g\n", a, costmodel.PerRankElements(a, costmodel.Params{N: *n, P: *p, M: mem}))
		}
	case "mmm":
		fmt.Printf("sequential lower bound 2N³/√M: %.4g\n", xpart.MMMSequentialLowerBound(*n, mem))
		b := xpart.MMMProblem(*n).SequentialBound(mem)
		fmt.Printf("derived: X0=%.4g rho=%.4g Q=%.4g\n", b.X0, b.Rho, b.Q)
		fmt.Printf("parallel (P=%d): %.4g\n", *p, b.Q/float64(*p))
	case "cholesky":
		q := xpart.CholeskyLowerBound(*n, mem)
		fmt.Printf("sequential lower bound (≈N³/(3√M)): %.4g\n", q)
		fmt.Printf("parallel (P=%d): %.4g\n", *p, q/float64(*p))
	}
	return 0
}
