package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/costmodel"
	"repro/internal/xpart"
)

// Table2 reproduces Table 2: measured vs modeled total communication volume
// [GB] with prediction percentages, for every algorithm at each (N, P).
type Table2Result struct {
	Rows []Measurement
}

// RunTable2 measures the given problem sizes and rank counts (the paper uses
// N ∈ {4096, 16384}, P ∈ {64, 1024}). All cells × algorithms are flattened
// into one job list for the parallel runner; row order is (n, p, algorithm)
// regardless of completion order.
func (h Harness) RunTable2(ctx context.Context, ns, ps []int) (*Table2Result, error) {
	var jobs []measureJob
	for _, n := range ns {
		for _, p := range ps {
			mem := costmodel.MaxMemoryParams(n, p).M
			for _, algo := range costmodel.Algorithms {
				jobs = append(jobs, measureJob{algo: algo, n: n, p: p, mem: mem})
			}
		}
	}
	rows, err := h.measureMany(ctx, jobs)
	if err != nil {
		return nil, err
	}
	return &Table2Result{Rows: rows}, nil
}

// Render writes the table in the paper's layout.
func (t *Table2Result) Render(w io.Writer) {
	groups := map[[2]int][]Measurement{}
	var keys [][2]int
	for _, m := range t.Rows {
		k := [2]int{m.N, m.P}
		if len(groups[k]) == 0 {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], m)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		fmt.Fprintf(w, "Total comm. volume for N=%d, P=%d measured/modeled [GB] (prediction %%), simulated/predicted α-β time [s]\n", k[0], k[1])
		for _, m := range groups[k] {
			fmt.Fprintf(w, "  %-8s %8.3f / %8.3f (%5.1f%%)   sim %.4fs / pred %.4fs   grid %s\n",
				m.Algo, m.MeasuredGB(), m.ModeledGB(), m.PredictionPct(), m.SimTime, m.PredTime, m.GridDesc)
		}
	}
}

// Fig6aResult is the strong-scaling experiment: per-node communication
// volume vs P at fixed N, with model lines and the §6 lower bound.
type Fig6aResult struct {
	N      int
	Points []Measurement
}

// RunFig6a sweeps rank counts at fixed N (paper: N = 16384, P up to 1024,
// including non-powers that trigger the 2D libraries' bad-grid outliers).
// The sweep is flattened across the parallel runner.
func (h Harness) RunFig6a(ctx context.Context, n int, ps []int) (*Fig6aResult, error) {
	var jobs []measureJob
	for _, p := range ps {
		mem := costmodel.MaxMemoryParams(n, p).M
		for _, algo := range costmodel.Algorithms {
			jobs = append(jobs, measureJob{algo: algo, n: n, p: p, mem: mem})
		}
	}
	points, err := h.measureMany(ctx, jobs)
	if err != nil {
		return nil, err
	}
	return &Fig6aResult{N: n, Points: points}, nil
}

// Render prints one series row per (P, algorithm): measured per-node MB,
// model per-node MB, and the lower bound.
func (f *Fig6aResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig 6a: communication volume per node [MB], N=%d\n", f.N)
	fmt.Fprintf(w, "%6s %-8s %12s %12s %12s %12s\n", "P", "algo", "measured", "model", "lower-bound", "sim-time[s]")
	for _, m := range f.Points {
		params := costmodel.Params{N: m.N, P: m.P, M: m.M}
		lb := xpart.LUParallelLowerBound(m.N, m.P, m.M) * 8 / 1e6
		fmt.Fprintf(w, "%6d %-8s %12.3f %12.3f %12.3f %12.6f\n",
			m.P, m.Algo, m.PerNodeBytes()/1e6, costmodel.PerRankBytes(m.Algo, params)/1e6, lb, m.SimTime)
	}
}

// Fig6bResult is the weak-scaling experiment: N = base·∛P, constant work per
// node; 2.5D algorithms should hold per-node volume flat while 2D grows as
// P^{1/6}.
type Fig6bResult struct {
	Base   int
	Points []Measurement
}

// WeakScalingN returns the paper's weak-scaling problem size N = base·∛P,
// rounded to a multiple of 16 for clean tiling.
func WeakScalingN(base, p int) int {
	n := int(float64(base) * math.Cbrt(float64(p)))
	if r := n % 16; r != 0 {
		n += 16 - r
	}
	return n
}

// RunFig6b sweeps P with N = base·∛P (paper: base = 3200), flattened across
// the parallel runner.
func (h Harness) RunFig6b(ctx context.Context, base int, ps []int) (*Fig6bResult, error) {
	var jobs []measureJob
	for _, p := range ps {
		n := WeakScalingN(base, p)
		mem := costmodel.MaxMemoryParams(n, p).M
		for _, algo := range costmodel.Algorithms {
			jobs = append(jobs, measureJob{algo: algo, n: n, p: p, mem: mem})
		}
	}
	points, err := h.measureMany(ctx, jobs)
	if err != nil {
		return nil, err
	}
	return &Fig6bResult{Base: base, Points: points}, nil
}

// Render prints per-node volumes; flat series identify the 2.5D algorithms.
func (f *Fig6bResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig 6b: weak scaling, N = %d*cbrt(P), per-node volume [MB]\n", f.Base)
	fmt.Fprintf(w, "%6s %8s %-8s %12s %12s\n", "P", "N", "algo", "measured", "sim-time[s]")
	for _, m := range f.Points {
		fmt.Fprintf(w, "%6d %8d %-8s %12.3f %12.6f\n", m.P, m.N, m.Algo, m.PerNodeBytes()/1e6, m.SimTime)
	}
}

// Fig7Cell is one heatmap cell: COnfLUX's communication reduction vs the
// second-best implementation.
type Fig7Cell struct {
	N, P       int
	Reduction  float64
	SecondBest costmodel.Algorithm
	Measured   bool // measured (P <= limit) vs model-predicted
}

// Fig7Result is the communication-reduction heatmap of Fig. 7.
type Fig7Result struct {
	Cells []Fig7Cell
}

// RunFig7 builds the heatmap: measured cells for P ≤ measuredLimit,
// model-predicted cells beyond (the paper measures to P=1024 and predicts to
// P=262144, Summit scale).
func (h Harness) RunFig7(ctx context.Context, ns, ps []int, measuredLimit int) (*Fig7Result, error) {
	res := &Fig7Result{}
	for _, n := range ns {
		for _, p := range ps {
			if p <= measuredLimit {
				ms, err := h.MeasureAll(ctx, n, p)
				if err != nil {
					return nil, err
				}
				var cfx float64
				best := math.Inf(1)
				var bestAlgo costmodel.Algorithm
				for _, m := range ms {
					if m.Algo == costmodel.COnfLUX {
						cfx = float64(m.MeasuredBytes)
						continue
					}
					if v := float64(m.MeasuredBytes); v < best {
						best, bestAlgo = v, m.Algo
					}
				}
				res.Cells = append(res.Cells, Fig7Cell{
					N: n, P: p, Reduction: best / cfx, SecondBest: bestAlgo, Measured: true,
				})
				continue
			}
			algo, red := costmodel.PredictedReduction(costmodel.MaxMemoryParams(n, p))
			res.Cells = append(res.Cells, Fig7Cell{N: n, P: p, Reduction: red, SecondBest: algo})
		}
	}
	return res, nil
}

// Render prints the heatmap cells; the paper annotates each with the
// second-best library's initial (L=LibSci, S=SLATE).
func (f *Fig7Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig 7: COnfLUX communication reduction vs second-best\n")
	fmt.Fprintf(w, "%8s %8s %10s %-8s %s\n", "N", "P", "reduction", "vs", "kind")
	for _, c := range f.Cells {
		kind := "predicted"
		if c.Measured {
			kind = "measured"
		}
		fmt.Fprintf(w, "%8d %8d %9.2fx %-8s %s\n", c.N, c.P, c.Reduction, c.SecondBest, kind)
	}
}
