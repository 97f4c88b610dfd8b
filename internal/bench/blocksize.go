package bench

import (
	"context"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/conflux"
	"repro/internal/costmodel"
	"repro/internal/mat"
	"repro/internal/smpi"
	"repro/internal/topo"
	"repro/internal/trace"
)

// blocksize.go is the blocking-parameter experiment behind `confluxbench
// -exp sweep` (ROADMAP 2(b), "choose v by record, not by floor"): what
// COnfLUX's v — the §7.2 tunable, "adjusted to hardware parameters" — costs
// in communication volume and buys in message count, simulated time and host
// kernel rate. It is the record costmodel.COnfLUXBlockSize's two constants
// rest on, and TestBlockSizeSweep holds the rule to it.

// blockSizeVs is the sweep's panel of blocking parameters (ascending); a
// point's default joins it where it is not a member.
var blockSizeVs = []int{4, 8, 16, 32, 64, 128}

// sweepTopology is the contended network the sweep prices each replay on
// besides the flat machine.
const sweepTopology = "dragonfly-contended"

// maxSweepNumericN bounds the matrices the sweep also factorizes with real
// payloads for the host-rate column: N = 4,096 is the numeric ceiling of the
// conformance suite (~½ minute a run); beyond it the column stays empty.
const maxSweepNumericN = 4096

// BlockSizeRow is COnfLUX at one (N, P, M) point and one blocking parameter.
type BlockSizeRow struct {
	V       int
	Default bool // V is what conflux.DefaultOptions picks at this point
	// Measurement is the volume replay on the flat α-β machine; FittedBytes
	// is conflux.ModelPerRankElements over all ranks, which has no v term.
	Measurement
}

// BlockSizeSweep replays COnfLUX in volume mode at (n, p, mem) once per
// blocking parameter in vs, on the grid DefaultOptions picks. Values the
// engine cannot run (v below the layer count, or above n) are skipped.
func BlockSizeSweep(ctx context.Context, n, p int, mem float64, vs []int) ([]BlockSizeRow, error) {
	base := conflux.DefaultOptions(n, p, mem)
	fitted := conflux.ModelPerRankElements(costmodel.Params{N: n, P: p, M: mem}) * float64(p) * trace.BytesPerElement
	var out []BlockSizeRow
	for _, v := range vs {
		if v < base.Grid.Layers || v > n {
			continue
		}
		opt := base
		opt.V = v
		rep, err := runVolume(ctx, p, func(cm *smpi.Comm) error {
			_, err := conflux.Run(cm, nil, opt)
			return err
		})
		if err != nil {
			return nil, err
		}
		out = append(out, BlockSizeRow{V: v, Default: v == base.V, Measurement: Measurement{
			Algo: costmodel.COnfLUX, N: n, P: p, M: mem,
			MeasuredBytes: rep.AlgorithmBytes(trace.PhaseLayout, trace.PhaseCollect),
			FittedBytes:   fitted,
			Msgs:          rep.TotalMsgs(),
			MaxRankMsgs:   rep.Time.MaxRankMsgs(),
			SimTime:       rep.Time.Makespan,
			GridDesc:      describe(opt.Grid),
		}})
	}
	return out, nil
}

// RunBlockSizeSweep is the full record: BlockSizeSweep over blockSizeVs at
// every (N, P) point under maximum memory, each row's schedule replayed once
// more on sweepTopology and, up to maxSweepNumericN, factorized with real
// payloads for the host rate. Rows stream to w as they complete.
func RunBlockSizeSweep(ctx context.Context, points [][2]int, w io.Writer) error {
	spec, err := topo.PresetSpec(sweepTopology)
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	for _, pt := range points {
		n, p := pt[0], pt[1]
		mem := costmodel.MaxMemoryParams(n, p).M
		opt := conflux.DefaultOptions(n, p, mem)
		vs := blockSizeVs
		if i, found := slices.BinarySearch(vs, opt.V); !found {
			vs = slices.Insert(slices.Clone(vs), i, opt.V) // a floor like 2c = 12
		}
		rows, err := BlockSizeSweep(ctx, n, p, mem, vs)
		if err != nil {
			return err
		}
		tp, err := topo.BuildFaulted(spec, Machine, p, topo.FaultPlan{})
		if err != nil {
			return fmt.Errorf("bench: %w", err)
		}
		fmt.Fprintf(w, "N=%d P=%d grid %s, model %.3f MB/rank (no v term)\n", n, p, describe(opt.Grid), rows[0].FittedBytes/float64(p)/1e6)
		fmt.Fprintf(w, "  %-8s %12s %8s %10s %8s %12s %26s %10s\n",
			"v", "MB/rank", "/model", "max msgs", "/(N/v)", "flat [ms]", sweepTopology+" [ms]", "GFLOP/s")
		for _, r := range rows {
			opt.V = r.V
			rep, err := runVolumeOn(ctx, p, tp, func(cm *smpi.Comm) error {
				_, err := conflux.Run(cm, nil, opt)
				return err
			})
			if err != nil {
				return err
			}
			host := "—" // the numeric run is out of reach
			if n <= maxSweepNumericN {
				gflops, err := hostFactorizeGFlops(ctx, opt)
				if err != nil {
					return err
				}
				host = fmt.Sprintf("%.2f", gflops)
			}
			label := fmt.Sprint(r.V)
			if r.Default {
				label += " *"
			}
			fmt.Fprintf(w, "  %-8s %12.3f %8.3f %10d %8.2f %12.3f %26.3f %10s\n",
				label, float64(r.MeasuredBytes)/float64(p)/1e6, float64(r.MeasuredBytes)/r.FittedBytes,
				r.MaxRankMsgs, float64(r.MaxRankMsgs)*float64(r.V)/float64(n),
				r.SimTime*1e3, rep.Time.Makespan*1e3, host)
		}
	}
	fmt.Fprintln(w, "  (* = the default, costmodel.COnfLUXBlockSize)")
	return nil
}

// hostFactorizeGFlops factorizes mat.Random(N, N, 1) with real payloads under
// opt and returns 2N³/3 over the wall clock, layout and collect included —
// the quantity the benchmark reports as conflux.numeric_gflops — as the
// median of three runs: on a shared host single runs differ by a third.
func hostFactorizeGFlops(ctx context.Context, opt conflux.Options) (float64, error) {
	a := mat.Random(opt.N, opt.N, 1)
	ctx, cancel := context.WithTimeout(ctx, Timeout)
	defer cancel()
	var walls [3]float64
	for i := range walls {
		start := time.Now()
		_, err := smpi.Exec(ctx, smpi.Config{P: opt.Grid.Total, Payload: true, Machine: Machine, MachineSet: true}, func(cm *smpi.Comm) error {
			var in *mat.Matrix
			if cm.Rank() == 0 {
				in = a
			}
			_, err := conflux.Run(cm, in, opt)
			return err
		})
		if err != nil {
			return 0, err
		}
		walls[i] = time.Since(start).Seconds()
	}
	slices.Sort(walls[:])
	n := float64(opt.N)
	return 2 * n * n * n / 3 / walls[1] / 1e9, nil
}
