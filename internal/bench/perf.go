package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	repro "repro"
	"repro/internal/costmodel"
	"repro/internal/mat"
	"repro/internal/smpi"
	"repro/internal/trace"
)

// perf.go is the fixed wall-clock performance suite behind
// `confluxbench -exp perf` and `make bench-json`. Unlike the volume/time
// experiments (which measure the *simulated* machine), this suite measures
// the harness itself: how long the replay of a schedule takes on the host
// and how much it allocates. Its JSON records (BENCH_baseline.json, frozen
// before the scalable-core refactor; BENCH_scale.json, regenerated by CI)
// are the repo's performance trajectory; cmd/benchdiff compares them.

// PerfCase is one named scenario of the performance suite.
type PerfCase struct {
	Name  string
	Iters int // fixed iteration count, so runs are comparable
	Run   func(ctx context.Context) error
	// NoWarm skips the warm-up iteration. Only set it on hour-scale cases
	// (the sched "beyond" preset), where doubling the run to hide lazy
	// initialization costs more than the init noise it removes.
	NoWarm bool
}

// PerfMeasurement is one case's record: host wall-clock and allocation cost
// per iteration.
type PerfMeasurement struct {
	Name        string `json:"name"`
	Iters       int    `json:"iters"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp uint64 `json:"allocs_per_op"`
	BytesPerOp  uint64 `json:"bytes_per_op"`
}

// PerfReport is the machine-readable suite record.
type PerfReport struct {
	Scale      string            `json:"scale"`
	GoMaxProcs int               `json:"gomaxprocs"`
	Results    []PerfMeasurement `json:"results"`
}

// WriteJSON emits the perf record as indented JSON.
func (r *PerfReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// volumeCase replays one engine's volume-mode schedule.
func volumeCase(algo costmodel.Algorithm, n, p, iters int) PerfCase {
	return PerfCase{
		Name:  fmt.Sprintf("factorize-volume/%s/N=%d,P=%d", algo, n, p),
		Iters: iters,
		Run: func(ctx context.Context) error {
			_, err := Measure(ctx, algo, n, p, costmodel.MaxMemoryParams(n, p).M)
			return err
		},
	}
}

// solveCase replays the distributed triangular solve in volume mode.
func solveCase(n, p, nrhs, iters int) PerfCase {
	return PerfCase{
		Name:  fmt.Sprintf("solve-volume/N=%d,P=%d,NRHS=%d", n, p, nrhs),
		Iters: iters,
		Run: func(ctx context.Context) error {
			_, err := MeasureSolve(ctx, n, p, nrhs)
			return err
		},
	}
}

// numericCase runs a real (payload-carrying) factorization end to end
// through the public Session surface.
func numericCase(n, p, iters int) PerfCase {
	a := mat.RandomDiagDominant(n, 1)
	return PerfCase{
		Name:  fmt.Sprintf("factorize-numeric/conflux/N=%d,P=%d", n, p),
		Iters: iters,
		Run: func(ctx context.Context) error {
			s, err := repro.New(repro.WithRanks(p), repro.WithAlgorithm(repro.COnfLUX))
			if err != nil {
				return err
			}
			_, err = s.Factorize(ctx, a)
			return err
		},
	}
}

// timelineCase exercises the trace substrate directly: record `events`
// matched deliveries on a p-rank timeline, then derive the merged Report
// and Events views.
func timelineCase(p, events, iters int) PerfCase {
	return PerfCase{
		Name:  fmt.Sprintf("timeline-merge/P=%d,events=%d", p, events),
		Iters: iters,
		Run: func(ctx context.Context) error {
			tl := trace.NewTimeline(p, trace.DefaultMachine())
			for i := 0; i < events; i++ {
				from, to := i%p, (i+1)%p
				st := tl.RecordSend(from, to, 1024, "merge")
				tl.RecordRecv(from, to, 1024, "merge", st)
			}
			rep := tl.Report()
			if rep.TotalMsgs() != int64(events) {
				return fmt.Errorf("timeline-merge: %d msgs, want %d", rep.TotalMsgs(), events)
			}
			if got := len(tl.Events()); got != events {
				return fmt.Errorf("timeline-merge: %d events retained, want %d", got, events)
			}
			return nil
		},
	}
}

// mailboxCase exercises the smpi point-to-point path in isolation: a ring of
// p ranks exchanging small messages, dominated by mailbox and metering cost.
func mailboxCase(p, rounds, iters int) PerfCase {
	return PerfCase{
		Name:  fmt.Sprintf("mailbox-ring/P=%d,rounds=%d", p, rounds),
		Iters: iters,
		Run: func(ctx context.Context) error {
			_, err := smpi.Exec(ctx, smpi.Config{P: p, Executor: Executor}, func(c *smpi.Comm) error {
				next, prev := (c.Rank()+1)%p, (c.Rank()-1+p)%p
				for r := 0; r < rounds; r++ {
					c.Send(next, r, smpi.Msg{N: 64})
					c.Recv(prev, r)
				}
				return nil
			})
			return err
		},
	}
}

// PerfCases returns the suite for a scale preset. Every preset includes the
// cheaper presets' cases, so records at different scales share comparable
// rows; "paper" adds the headline N=16,384 / P=1,024 volume replay.
func PerfCases(scale string) ([]PerfCase, error) {
	small := []PerfCase{
		volumeCase(costmodel.COnfLUX, 256, 16, 5),
		volumeCase(costmodel.LibSci, 256, 16, 5),
		numericCase(128, 4, 5),
		solveCase(256, 16, 8, 5),
		timelineCase(64, 200_000, 5),
		mailboxCase(16, 2_000, 5),
	}
	medium := append(small[:len(small):len(small)],
		volumeCase(costmodel.COnfLUX, 1024, 64, 3),
		volumeCase(costmodel.LibSci, 1024, 64, 3),
		solveCase(4096, 256, 16, 3),
	)
	paper := append(medium[:len(medium):len(medium)],
		volumeCase(costmodel.COnfLUX, 16384, 1024, 1),
	)
	switch scale {
	case "small":
		return small, nil
	case "medium":
		return medium, nil
	case "paper":
		return paper, nil
	}
	return nil, fmt.Errorf("bench: unknown perf scale %q", scale)
}

// RunPerfCase measures one case: fixed iterations, wall clock and allocation
// deltas from runtime.MemStats averaged per iteration.
func RunPerfCase(ctx context.Context, pc PerfCase) (PerfMeasurement, error) {
	out := PerfMeasurement{Name: pc.Name, Iters: pc.Iters}
	// One warm-up iteration so lazy initialization (engine registry, pools)
	// is not billed to the first measured rep.
	if !pc.NoWarm {
		if err := pc.Run(ctx); err != nil {
			return out, fmt.Errorf("bench: perf %s: %w", pc.Name, err)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < pc.Iters; i++ {
		if err := pc.Run(ctx); err != nil {
			return out, fmt.Errorf("bench: perf %s: %w", pc.Name, err)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	out.NsPerOp = elapsed.Nanoseconds() / int64(pc.Iters)
	out.AllocsPerOp = (after.Mallocs - before.Mallocs) / uint64(pc.Iters)
	out.BytesPerOp = (after.TotalAlloc - before.TotalAlloc) / uint64(pc.Iters)
	return out, nil
}

// RunPerf runs the suite for the given scale, streaming progress lines to
// progress (pass io.Discard to silence).
func RunPerf(ctx context.Context, scale string, progress io.Writer) (*PerfReport, error) {
	cases, err := PerfCases(scale)
	if err != nil {
		return nil, err
	}
	// The suite measures the host, so a slow host must produce slow numbers,
	// not canceled runs: lift the per-replay timeout for the duration.
	saved := Timeout
	if Timeout < 2*time.Hour {
		Timeout = 2 * time.Hour
	}
	defer func() { Timeout = saved }()
	rep := &PerfReport{Scale: scale, GoMaxProcs: runtime.GOMAXPROCS(0)}
	for _, pc := range cases {
		m, err := RunPerfCase(ctx, pc)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(progress, "  %-44s %14s/op %12d allocs/op %14s/op\n",
			m.Name, time.Duration(m.NsPerOp), m.AllocsPerOp, byteCount(m.BytesPerOp))
		rep.Results = append(rep.Results, m)
	}
	return rep, nil
}

func byteCount(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%d B", b)
}
