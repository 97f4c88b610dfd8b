// Package conflux implements the 2.5D LU factorizations of the paper's
// evaluation on one skeleton: COnfLUX (paper §7), a near communication
// optimal parallel LU derived from X-Partitioning, and the CANDMC-style 2.5D
// LU of Solomonik & Demmel it is measured against. The matrix is tiled with
// blocking parameter v and distributed block-cyclically over a [Pr, Pc, c]
// grid (Fig. 5). Layer 0 holds the matrix; layers 1..c-1 hold lazy
// Schur-update accumulators, so the true value of any element is the sum
// across the fiber. Per step (Algorithm 1):
//
//  1. the next block column is reduced across layers,
//  2. tournament pivoting over butterfly rounds selects v pivot rows,
//  3. the factored A00 and pivot indices are broadcast to all ranks,
//  4. pivot rows are reduced across layers and triangular-solved into A01,
//  5. the column panel is triangular-solved into A10,
//  6. both panels are sent to the consumers of the step's assigned layer,
//     which applies the Schur update into its accumulator.
//
// The two engines differ in one design choice, §7.3's, and so does the code
// (Options.Swap): COnfLUX MASKS pivot rows, which never move, while CANDMC
// SWAPS them into the diagonal block across every replication layer —
// the choice the paper charges with "increas[ing] the row swapping cost …
// to O(N³/(P√M))". COnfLUX's per-rank I/O cost is N³/(P√M) + O(N²/P)
// elements (Lemma 10), a factor 3/2 over the paper's §6 lower bound
// 2N³/(3P√M); CANDMC's is modeled at 5N³/(P√M) (Table 2, model taken from
// the CANDMC authors).
package conflux

import (
	"math"

	"repro/internal/costmodel"
	"repro/internal/grid"
)

// Options configures a run.
type Options struct {
	Name string // phase-label prefix; defaults to "COnfLUX", or "CANDMC" when swapping
	N    int    // global matrix dimension
	V    int    // blocking parameter v (paper §7.2); v >= Layers required
	Grid grid.Grid
	Swap bool // swap pivot rows into place (CANDMC) instead of masking them (COnfLUX)
}

// DefaultOptions mirrors the paper's setup: local memory M elements per
// rank, replication c = min(PM/N², P^{1/3}), and the Processor Grid
// Optimization of §8, which may disable a minor fraction of ranks. The
// blocking parameter is the volume-bounded rule of
// costmodel.COnfLUXBlockSize: §7.2's v = a·c as the floor, raised to a power
// of two ≤ 32 wherever N is large enough against the grid that the O(N·v)
// lower-order traffic stays within about 1/16 of the leading term — the
// Schur update then runs at rank v ≥ 16 on the packed micro-kernel
// (blas.GemmRows) instead of rank 4 on the streaming loop.
func DefaultOptions(n, p int, mem float64) Options {
	g := costmodel.COnfLUXGrid(n, p, mem)
	return Options{Name: "COnfLUX", N: n, V: costmodel.COnfLUXBlockSize(n, g), Grid: g}
}

// CANDMCOptions returns the paper's CANDMC configuration for p ranks with
// local memory mem: row swapping with replication c = min(PM/N², P^{1/3}) on
// a greedy grid (CANDMC does not disable ranks — "other implementations …
// greedily try to utilize all resources", §8).
func CANDMCOptions(n, p int, mem float64) Options {
	c := grid.MaxReplication(p, mem, n)
	// Greedy: the largest c' <= c dividing p, squarest layer grid.
	for c > 1 && p%c != 0 {
		c--
	}
	layer := grid.Square2D(p / c)
	g := grid.Grid{Pr: layer.Pr, Pc: layer.Pc, Layers: c, Total: p}
	return Options{Name: "CANDMC", N: n, V: costmodel.BaselineBlockSize(n, c), Grid: g, Swap: true}
}

// ModelPerRankElements is the fitted cost model for COnfLUX as implemented
// here (see DESIGN.md §4): the paper's leading term plus the explicit
// cross-layer reduction traffic that the paper folds into its lower-order
// terms.
func ModelPerRankElements(p costmodel.Params) float64 {
	n, pp := float64(p.N), float64(p.P)
	c := p.Replication()
	return n*n*n/(pp*math.Sqrt(p.M)) + (c-1)*n*n/pp + 2*n*n/pp
}
