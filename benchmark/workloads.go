package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"time"

	conflux "repro"
	"repro/internal/blas"
	"repro/internal/costmodel"
	"repro/internal/mat"
)

// env is what one invocation hands a workload.
type env struct {
	workload string
	seed     uint64
	seconds  float64
	quick    bool   // toy sizes, for the tests
	binDir   string // where the built confluxd sits
	outDir   string // where traces and profiles are written
}

// size is a workload's fixed problem size. The seed generates inputs only.
type size struct{ n, p, rhs int }

// Sizes are chosen so one operation takes 0.6-1 s on the 2-core sizing host
// and a 20 s run times 20-30 of them: the contract caps all runs of all
// workloads at 57 minutes, which rules out the multi-second N=4,096 points.
func (e *env) size() size {
	if e.quick {
		return size{n: 128, p: 4, rhs: 2}
	}
	switch e.workload {
	case wReplayConflux:
		return size{n: 1024, p: 256}
	case wReplayFaulted:
		return size{n: 2048, p: 256}
	default: // numeric_solve
		return size{n: 1024, p: 16, rhs: 8}
	}
}

// loop is one workload set up and ready to run: op is the timed public
// call, check verifies the outputs of the last op outside the timed region
// and returns their exact signature — everything simulated or computed that
// must repeat bit for bit on every repetition.
type loop struct {
	op    func(tr *tracer, parent int) error
	check func() (string, error)
	// sim reports the simulated outputs of the last op (the sim.* and
	// costmodel.* rows of the traced pass).
	sim func() map[string]float64
}

// measurement holds the raw samples of one untraced run. Every metric is
// the median of its samples, so a stall of the host during one operation
// moves none of them.
type measurement struct {
	setups    []float64 // seconds per set-up, warm-up op included
	walls     []float64 // seconds per correct op
	cpus      []float64 // CPU seconds per op
	rss       []float64 // peak RSS in MB, per op or per confluxd
	attempted int
	failed    int
	notes     []string
}

func (m *measurement) fail(format string, args ...any) {
	m.failed++
	if len(m.notes) < 8 {
		m.notes = append(m.notes, fmt.Sprintf(format, args...))
	}
}

const (
	setupReps = 3 // set-ups per run; setup_s is their median
	minOps    = 5 // ops per run even when the clock has run out
)

// measureLoop sets the workload up setupReps times (each with its warm-up
// op), then runs ops back to back until the time is up. CPU time and peak
// RSS are taken around each op, so checks between ops are not charged to it.
func measureLoop(e *env, setup func() (*loop, error)) (*measurement, error) {
	m := &measurement{}
	var lp *loop
	var want string
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if lp, err = setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := lp.op(nil, -1); err != nil {
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
		m.setups = append(m.setups, time.Since(t0).Seconds())
		sig, err := lp.check()
		if err != nil {
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
		if i == 0 {
			want = sig
		} else if sig != want {
			return nil, fmt.Errorf("set-up %d produced %s, the first produced %s: same seed must give same outputs", i, sig, want)
		}
	}
	runtime.GC()
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	for m.attempted < minOps || time.Now().Before(deadline) {
		resetPeakRSS()
		c0, t0 := selfCPUSeconds(), time.Now()
		err := lp.op(nil, -1)
		wall := time.Since(t0).Seconds()
		m.cpus = append(m.cpus, selfCPUSeconds()-c0)
		m.attempted++
		rss, rssErr := peakRSSMB(os.Getpid())
		if rssErr != nil {
			return m, rssErr
		}
		m.rss = append(m.rss, rss)
		if err != nil {
			m.fail("op %d: %v", m.attempted, err)
			continue
		}
		sig, err := lp.check()
		switch {
		case err != nil:
			m.fail("op %d: %v", m.attempted, err)
		case sig != want:
			m.fail("op %d: outputs %s differ from the first op's %s", m.attempted, sig, want)
		default:
			m.walls = append(m.walls, wall)
		}
	}
	if len(m.walls) == 0 {
		return m, fmt.Errorf("no correct op out of %d: %v", m.attempted, m.notes)
	}
	return m, nil
}

// faultPlan draws the replay_2d_faulted scenario from the seed: two
// stragglers at 4x and one inter-node link degraded 8x. The dragonfly
// presets put 4 ranks on a node.
func faultPlan(seed uint64, p int) conflux.FaultPlan {
	g := mat.NewRNG(seed)
	nodes := max(p/4, 2)
	s1 := g.Intn(p)
	s2 := (s1 + 1 + g.Intn(p-1)) % p
	from := g.Intn(nodes)
	to := (from + 1 + g.Intn(nodes-1)) % nodes
	return conflux.FaultPlan{
		Stragglers: []conflux.Straggler{{Rank: s1, Factor: 4}, {Rank: s2, Factor: 4}},
		Links:      []conflux.LinkFault{{FromNode: from, ToNode: to, Factor: 8}},
	}
}

// replayOptions are the session options of a replay workload: everything a
// user does not set stays at its default (auto executor, one worker, the
// default machine, maximum replication).
func replayOptions(e *env) (conflux.Algorithm, []conflux.Option) {
	sz := e.size()
	if e.workload == wReplayFaulted {
		return conflux.LibSci, []conflux.Option{
			conflux.WithRanks(sz.p), conflux.WithAlgorithm(conflux.LibSci),
			conflux.WithTopologyPreset("dragonfly-contended"),
			conflux.WithFaults(faultPlan(e.seed, sz.p)),
		}
	}
	return conflux.COnfLUX, []conflux.Option{conflux.WithRanks(sz.p), conflux.WithAlgorithm(conflux.COnfLUX)}
}

// setupReplay builds a volume-replay loop: one op is Session.CommVolume(n).
func setupReplay(e *env, extra ...conflux.Option) (*loop, error) {
	algo, opts := replayOptions(e)
	sz := e.size()
	s, err := conflux.New(append(opts, extra...)...)
	if err != nil {
		return nil, err
	}
	var rep *conflux.VolumeReport
	return &loop{
		op: func(tr *tracer, parent int) error {
			sp := tr.begin("Session.CommVolume", parent)
			defer tr.end(sp)
			var err error
			rep, err = s.CommVolume(context.Background(), sz.n)
			return err
		},
		check: func() (string, error) { return reportSig(rep) },
		sim: func() map[string]float64 {
			out := simRows(rep)
			params := costmodel.MaxMemoryParams(sz.n, sz.p)
			maxMsgs := float64(rep.Time.MaxRankMsgs())
			out["costmodel.bytes_vs_model_pct"] = 100 * out["sim.comm_bytes_per_rank"] / costmodel.PerRankBytes(algo, params)
			out["costmodel.time_vs_pred_pct"] = 100 * rep.Time.Makespan / costmodel.PredictedTime(algo, params, s.Machine(), maxMsgs)
			out["costmodel.max_rank_msgs"] = maxMsgs
			return out
		},
	}, nil
}

// reportSig checks a report's conservation law (every byte sent is
// received) and returns the signature of its simulated outputs.
func reportSig(rep *conflux.VolumeReport) (string, error) {
	var sent, recv int64
	for i := range rep.Sent {
		sent += rep.Sent[i]
		recv += rep.Recv[i]
	}
	if sent != recv {
		return "", fmt.Errorf("sent %d bytes but received %d", sent, recv)
	}
	return fmt.Sprintf("bytes=%d makespan=%x msgs=%d",
		conflux.AlgorithmBytes(rep), math.Float64bits(rep.Time.Makespan), rep.TotalMsgs()), nil
}

// simRows are the simulated outputs every in-process workload reports.
// comm_bytes_per_rank is the paper's metric: algorithm bytes (layout and
// collect excluded) averaged over ranks, as on the Fig. 6 y-axis.
func simRows(rep *conflux.VolumeReport) map[string]float64 {
	return map[string]float64{
		"sim.comm_bytes_per_rank": float64(conflux.AlgorithmBytes(rep)) / float64(rep.P),
		"sim.makespan_s":          rep.Time.Makespan,
		"sim.msgs":                float64(rep.TotalMsgs()),
	}
}

// numericOutputs is what one numeric_solve op produced.
type numericOutputs struct {
	x   *conflux.Matrix
	res *conflux.Result
}

// setupNumeric builds the numeric loop: one op is Session.SolveMany on a
// seed-generated A (n x n) and B (n x rhs), one refinement sweep. Traced,
// the op is the same sequence of public calls SolveMany makes, with a span
// around each.
func setupNumeric(e *env) (*loop, error) {
	sz := e.size()
	a := mat.Random(sz.n, sz.n, e.seed)
	b := mat.Random(sz.n, sz.rhs, e.seed+1)
	s, err := conflux.New(conflux.WithRanks(sz.p), conflux.WithRefineSweeps(1))
	if err != nil {
		return nil, err
	}
	var out numericOutputs
	return &loop{
		op: func(tr *tracer, parent int) error {
			var err error
			if tr == nil {
				out.x, out.res, err = s.SolveMany(context.Background(), a, b)
				return err
			}
			out, err = tracedSolveMany(tr, parent, s, a, b)
			return err
		},
		check: func() (string, error) {
			berr := backwardError(a, out.x, b)
			if !(berr <= 1e-9) {
				return "", fmt.Errorf("backward error %.3g exceeds 1e-9", berr)
			}
			sig, err := reportSig(out.res.Volume)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%s lu=%x solve_bytes=%d", sig, factorHash(out.res), out.res.SolveBytes), nil
		},
		sim: func() map[string]float64 {
			rows := simRows(out.res.Volume)
			rows["sim.backward_error"] = backwardError(a, out.x, b)
			return rows
		},
	}, nil
}

// tracedSolveMany is Session.SolveMany with WithRefineSweeps(1), call by
// call, so that each public call gets its own span.
func tracedSolveMany(tr *tracer, parent int, s *conflux.Session, a, b *conflux.Matrix) (numericOutputs, error) {
	ctx := context.Background()
	sp := tr.begin("Session.Factorize", parent)
	res, err := s.Factorize(ctx, a)
	tr.end(sp)
	if err != nil {
		return numericOutputs{}, err
	}
	sp = tr.begin("Result.SolveManyFactoredContext", parent)
	x, err := res.SolveManyFactoredContext(ctx, b)
	tr.end(sp)
	if err != nil {
		return numericOutputs{}, err
	}
	sp = tr.begin("refine.residual", parent)
	resid := b.Clone()
	blas.Gemm(-1, a, x, 1, resid)
	converged := mat.NormInf(resid) <= 1e-14*mat.NormInf(b)
	tr.end(sp)
	if !converged {
		sp = tr.begin("Result.SolveManyFactoredContext", parent)
		d, err := res.SolveManyFactoredContext(ctx, resid)
		tr.end(sp)
		if err != nil {
			return numericOutputs{}, err
		}
		x.AddFrom(d)
	}
	return numericOutputs{x: x, res: res}, nil
}

// backwardError is ‖B−A·X‖∞ / (‖A‖∞‖X‖∞ + ‖B‖∞).
func backwardError(a, x, b *conflux.Matrix) float64 {
	resid := b.Clone()
	blas.Gemm(-1, a, x, 1, resid)
	return mat.NormInf(resid) / (mat.NormInf(a)*mat.NormInf(x) + mat.NormInf(b))
}

// factorHash folds the factors and the pivot permutation into one value:
// byte-identical LU and pivots give the same hash on every repetition.
func factorHash(res *conflux.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range res.LU.Data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, p := range res.Perm {
		binary.LittleEndian.PutUint64(buf[:], uint64(p))
		h.Write(buf[:])
	}
	return h.Sum64()
}
