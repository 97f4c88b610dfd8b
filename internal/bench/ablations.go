package bench

import (
	"context"
	"fmt"
	"io"

	"repro/internal/conflux"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/lu2d"
	"repro/internal/smpi"
)

// AblationResult captures an A/B comparison backing one of the paper's §7
// design arguments.
type AblationResult struct {
	Name   string
	A, B   string
	ABytes int64
	BBytes int64
	AMsgs  int64
	BMsgs  int64
	// ATime/BTime are simulated α-β seconds: the full-run makespan, except
	// in the pivoting ablation where they are the pivoting phase's own
	// critical path (the largest per-rank busy time in that phase) — the
	// §7.3 latency argument as actual modeled time rather than a raw
	// message count.
	ATime float64
	BTime float64
	Note  string
}

// Ratio returns BBytes/ABytes.
func (a AblationResult) Ratio() float64 { return float64(a.BBytes) / float64(a.ABytes) }

// TimeRatio returns BTime/ATime (0 when the A side recorded no timed
// traffic, rather than an infinite or NaN ratio).
func (a AblationResult) TimeRatio() float64 {
	if a.ATime == 0 {
		return 0
	}
	return a.BTime / a.ATime
}

// MaskingVsSwapping runs the 2.5D engine under both row policies — COnfLUX's
// masking and CANDMC's physical row swapping — on CANDMC's grid and block
// size, isolating the §7.3 claim that swapping inflates the leading I/O term.
func (h Harness) MaskingVsSwapping(ctx context.Context, n, p int, mem float64) (AblationResult, error) {
	swap := conflux.CANDMCOptions(n, p, mem)
	mask := swap
	mask.Rows = conflux.Mask
	repA, err := h.runVolume(ctx, p, func(cm *smpi.Comm) error {
		_, err := conflux.Run(cm, nil, mask)
		return err
	})
	if err != nil {
		return AblationResult{}, err
	}
	repB, err := h.runVolume(ctx, p, func(cm *smpi.Comm) error {
		_, err := conflux.Run(cm, nil, swap)
		return err
	})
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{
		Name:   "masking-vs-swapping",
		A:      "COnfLUX (row masking)",
		B:      "2.5D with physical row swapping (CANDMC-style)",
		ABytes: repA.AlgorithmBytes(),
		BBytes: repB.AlgorithmBytes(),
		AMsgs:  repA.TotalMsgs(),
		BMsgs:  repB.TotalMsgs(),
		ATime:  repA.Time.Makespan,
		BTime:  repB.Time.Makespan,
		Note:   fmt.Sprintf("same %s grid, v=%d; paper §7.3: swapping adds ~1x leading term", describe(swap.Grid), swap.V),
	}, nil
}

// TournamentVsPartialPivoting compares the pivoting phases of COnfLUX's
// tournament pivoting and the 2D engine's per-column partial pivoting —
// O(N/v · log P) vs O(N · log P) rounds (§7.3) — both as message counts and
// as simulated α-β time on the critical rank, turning the paper's latency
// argument into modeled seconds.
func (h Harness) TournamentVsPartialPivoting(ctx context.Context, n, p int, mem float64) (AblationResult, error) {
	optC := conflux.DefaultOptions(n, p, mem)
	repA, err := h.runVolume(ctx, p, func(cm *smpi.Comm) error {
		_, err := conflux.Run(cm, nil, optC)
		return err
	})
	if err != nil {
		return AblationResult{}, err
	}
	repB, err := h.runVolume(ctx, p, func(cm *smpi.Comm) error {
		_, err := lu2d.Run(cm, nil, lu2d.LibSciOptions(n, p, engine.DefaultLibSciNB))
		return err
	})
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{
		Name:   "tournament-vs-partial-pivoting",
		A:      "COnfLUX tournament pivoting",
		B:      "2D partial pivoting (per-column maxloc)",
		ABytes: repA.ByPhase["COnfLUX.pivot"],
		BBytes: repB.ByPhase["LibSci.panel"],
		AMsgs:  repA.PhaseMsgs["COnfLUX.pivot"],
		BMsgs:  repB.PhaseMsgs["LibSci.panel"],
		ATime:  repA.Time.PhaseBusyMax["COnfLUX.pivot"],
		BTime:  repB.Time.PhaseBusyMax["LibSci.panel"],
		Note:   "pivoting phases only; §7.3: tournament needs O(N/v) rounds vs O(N) for partial pivoting",
	}, nil
}

// GridOptimizationOnOff measures COnfLUX with and without the Processor
// Grid Optimization for an awkward (non-factorable) rank count — the
// Fig. 6a inset effect.
func (h Harness) GridOptimizationOnOff(ctx context.Context, n, p int, mem float64) (AblationResult, error) {
	optOn := conflux.DefaultOptions(n, p, mem)
	repA, err := h.runVolume(ctx, p, func(cm *smpi.Comm) error {
		_, err := conflux.Run(cm, nil, optOn)
		return err
	})
	if err != nil {
		return AblationResult{}, err
	}
	// "Off": greedily use ALL ranks in the squarest single-layer grid, as
	// the 2D libraries do.
	g := grid.Square2D(p)
	v := optOn.V
	repB, err := h.runVolume(ctx, p, func(cm *smpi.Comm) error {
		_, err := conflux.Run(cm, nil, conflux.Options{N: n, V: v, Grid: g})
		return err
	})
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{
		Name:   "grid-optimization",
		A:      fmt.Sprintf("optimized grid %s", describe(optOn.Grid)),
		B:      fmt.Sprintf("greedy all-ranks grid %dx%dx1", g.Pr, g.Pc),
		ABytes: repA.AlgorithmBytes(),
		BBytes: repB.AlgorithmBytes(),
		AMsgs:  repA.TotalMsgs(),
		BMsgs:  repB.TotalMsgs(),
		ATime:  repA.Time.Makespan,
		BTime:  repB.Time.Makespan,
		Note:   "paper §8: greedy grids cause the Fig. 6a outliers for difficult rank counts",
	}, nil
}

func describe(g grid.Grid) string {
	return fmt.Sprintf("%dx%dx%d", g.Pr, g.Pc, g.Layers)
}

// RenderAblation writes one comparison.
func RenderAblation(w io.Writer, a AblationResult) {
	fmt.Fprintf(w, "Ablation: %s\n", a.Name)
	fmt.Fprintf(w, "  A: %-50s %12d bytes %10d msgs %12.6f s\n", a.A, a.ABytes, a.AMsgs, a.ATime)
	fmt.Fprintf(w, "  B: %-50s %12d bytes %10d msgs %12.6f s\n", a.B, a.BBytes, a.BMsgs, a.BTime)
	fmt.Fprintf(w, "  B/A volume ratio: %.2fx  time ratio: %.2fx   (%s)\n", a.Ratio(), a.TimeRatio(), a.Note)
}
