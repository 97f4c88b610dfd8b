package conflux_test

import (
	"context"
	"fmt"

	conflux "repro"
)

// Construct a Session: one simulated machine configuration, reused
// across jobs. Options validate eagerly — an unknown algorithm fails
// at New with ErrUnknownAlgorithm, not mid-run.
func ExampleNew() {
	s, err := conflux.New(
		conflux.WithRanks(8),
		conflux.WithAlgorithm(conflux.CANDMC),
	)
	if err != nil {
		panic(err)
	}
	fmt.Printf("session: %s on %d ranks\n", s.Algorithm(), s.Ranks())
	// Output:
	// session: CANDMC on 8 ranks
}

// Factorize through a Session under a context, reusing the session for a
// second job and reading the accumulated stats.
func ExampleSession_Factorize() {
	ctx := context.Background()
	s, err := conflux.New(conflux.WithRanks(4))
	if err != nil {
		panic(err)
	}
	a := conflux.RandomMatrix(32, 7)
	res, err := s.Factorize(ctx, a)
	if err != nil {
		panic(err)
	}
	// Row 0 of the factors corresponds to row res.Perm[0] of A, and
	// L(0,:)·U(:,0) = U(0,0) because L has a unit diagonal.
	diff := res.LU.At(0, 0) - a.At(res.Perm[0], 0)
	fmt.Printf("|LU(0,0) - A[perm[0],0]| < 1e-12: %v\n", diff*diff < 1e-24)
	if _, err := s.CommVolume(ctx, 32); err != nil {
		panic(err)
	}
	fmt.Printf("jobs completed on one session: %d\n", s.Stats().Runs)
	// Output:
	// |LU(0,0) - A[perm[0],0]| < 1e-12: true
	// jobs completed on one session: 2
}

// Meter an algorithm's communication schedule without doing arithmetic.
func ExampleSession_CommVolume() {
	volume := func(algo conflux.Algorithm) *conflux.VolumeReport {
		s, err := conflux.New(conflux.WithRanks(16), conflux.WithAlgorithm(algo))
		if err != nil {
			panic(err)
		}
		rep, err := s.CommVolume(context.Background(), 256)
		if err != nil {
			panic(err)
		}
		return rep
	}
	cfx, lib := volume(conflux.COnfLUX), volume(conflux.LibSci)
	fmt.Printf("COnfLUX moves less than ScaLAPACK-style 2D: %v\n",
		conflux.AlgorithmBytes(cfx) < conflux.AlgorithmBytes(lib))
	// Output:
	// COnfLUX moves less than ScaLAPACK-style 2D: true
}

// The paper's §6 lower bound and COnfLUX's 3/2-optimality gap.
func ExampleLowerBoundLU() {
	n, p := 16384, 1024
	m := 0.0 // default: the paper's maximum-replication memory
	bound := conflux.LowerBoundLU(n, p, m)
	leading := conflux.ModelPerRankElements(conflux.COnfLUX, n, p, m)
	fmt.Printf("COnfLUX model within 3x of the lower bound: %v\n", leading < 3*bound)
	// Output:
	// COnfLUX model within 3x of the lower bound: true
}
