// Command luverify cross-validates the four distributed LU implementations
// numerically against the definition ‖A[perm,:] − L·U‖∞: every algorithm
// factorizes the same random matrices on simulated ranks and the residuals
// are printed. Exit status is non-zero if any residual exceeds tolerance.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	repro "repro"
	"repro/internal/mat"
	"repro/internal/testutil"
)

func main() {
	n := flag.Int("n", 96, "matrix dimension")
	p := flag.Int("p", 8, "simulated ranks")
	seed := flag.Uint64("seed", 42, "matrix seed")
	general := flag.Bool("general", false, "use a general (non-dominant) random matrix")
	flag.Parse()

	var a *mat.Matrix
	if *general {
		a = mat.Random(*n, *n, *seed)
	} else {
		a = mat.RandomDiagDominant(*n, *seed)
	}

	const tol = 1e-9
	fail := false
	fmt.Printf("luverify: N=%d P=%d seed=%d general=%v\n", *n, *p, *seed, *general)
	for _, algo := range []repro.Algorithm{repro.COnfLUX, repro.CANDMC, repro.LibSci, repro.SLATE} {
		res, err := factorize(a, *p, algo)
		if err != nil {
			fmt.Printf("  %-8s ERROR: %v\n", algo, err)
			fail = true
			continue
		}
		r := testutil.ResidualLUPerm(a, res.LU, res.Perm)
		status := "ok"
		if r > tol {
			status = "FAIL"
			fail = true
		}
		fmt.Printf("  %-8s residual %.3e  comm %8.3f MB  %s\n",
			algo, r, float64(repro.AlgorithmBytes(res.Volume))/1e6, status)
	}
	if fail {
		os.Exit(1)
	}
}

func factorize(a *mat.Matrix, p int, algo repro.Algorithm) (*repro.Result, error) {
	s, err := repro.New(repro.WithRanks(p), repro.WithAlgorithm(algo))
	if err != nil {
		return nil, err
	}
	return s.Factorize(context.Background(), a)
}
