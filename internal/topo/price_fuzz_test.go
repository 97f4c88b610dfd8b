package topo_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/smpi"
	"repro/internal/topo"
	"repro/internal/trace"
)

// recorded are a few small engine schedules, each run once per process on a
// recording world: c > 1 with masking, a ragged 2D grid with booked swaps,
// and a factorize-plus-solve, whose world also keeps the marks each rank
// leaves where its factorization ends.
var recorded = sync.OnceValues(func() ([]*trace.Timeline, error) {
	type point struct {
		algo  costmodel.Algorithm
		n, p  int
		solve bool
	}
	var out []*trace.Timeline
	for _, pt := range []point{{costmodel.COnfLUX, 64, 8, false}, {costmodel.LibSci, 45, 6, false}, {costmodel.CANDMC, 48, 8, true}} {
		eng, err := engine.Lookup(pt.algo)
		if err != nil {
			return nil, err
		}
		job := engine.VolumeJob(eng, pt.n, engine.Config{Ranks: pt.p})
		if pt.solve {
			job = engine.SolveJob(eng, pt.n, engine.Config{Ranks: pt.p}, pt.p, 2)
		}
		w := smpi.NewWorldMachine(job.World, false, trace.DefaultMachine())
		w.Trace.Record()
		if pt.solve {
			w.Trace.EnableMarks()
		}
		if _, err := smpi.Exec(context.Background(), smpi.Config{World: w}, job.Body); err != nil {
			return nil, err
		}
		out = append(out, w.Trace)
	}
	return out, nil
})

// costs is one point of the fuzzed machine space: a contended two-tier
// network whose inter-node link costs (α, β) and intra-node link a quarter of
// that, with every route into node 0 degraded by link and rank 1 slowed by
// slow.
type costs struct{ alpha, beta, link, slow float64 }

// price returns the clocks of tl's schedule under c and, when tl keeps marks,
// those of its marked report (nil otherwise).
func (c costs) price(t *testing.T, tl *trace.Timeline, p int) (clocks, marked *trace.TimeReport) {
	t.Helper()
	m := trace.Machine{Alpha: c.alpha, Beta: c.beta}
	spec := topo.Spec{Preset: "hier", RanksPerNode: 2, Contention: 1,
		Intra: trace.Machine{Alpha: c.alpha / 4, Beta: c.beta / 4}, Inter: m}
	tp, err := topo.BuildFaulted(spec, m, p, topo.FaultPlan{
		Links:      []topo.LinkFault{{FromNode: -1, ToNode: 0, Factor: c.link}},
		Stragglers: []topo.Straggler{{Rank: 1, Factor: c.slow}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, mrep := tl.Price(m, tp)
	if mrep == nil {
		return rep.Time, nil
	}
	return rep.Time, mrep.Time
}

// requireGrown fails unless every clock of up, and its makespan, is at least
// ref's.
func requireGrown(t *testing.T, what string, ref, up *trace.TimeReport) {
	t.Helper()
	if up.Makespan < ref.Makespan {
		t.Fatalf("%s shrank the makespan %v -> %v", what, ref.Makespan, up.Makespan)
	}
	for r := range ref.Clock {
		if up.Clock[r] < ref.Clock[r] {
			t.Fatalf("%s moved rank %d back %v -> %v", what, r, ref.Clock[r], up.Clock[r])
		}
	}
}

// requireScaled fails unless sc's makespan and every clock and busy time are
// ref's scaled by exactly 2^e.
func requireScaled(t *testing.T, what string, ref, sc *trace.TimeReport, e int) {
	t.Helper()
	if sc.Makespan != math.Ldexp(ref.Makespan, e) {
		t.Fatalf("%s: makespan %v, want %v", what, sc.Makespan, math.Ldexp(ref.Makespan, e))
	}
	for r := range ref.Clock {
		if sc.Clock[r] != math.Ldexp(ref.Clock[r], e) || sc.Busy[r] != math.Ldexp(ref.Busy[r], e) {
			t.Fatalf("%s: rank %d clock %v busy %v, want %v %v",
				what, r, sc.Clock[r], sc.Busy[r], math.Ldexp(ref.Clock[r], e), math.Ldexp(ref.Busy[r], e))
		}
	}
}

// FuzzPriceSchedule checks the pricing of a recorded schedule against the
// max-plus structure of its clocks, with no engine run per case: every
// clock is a max of sums of products of the costs, so (1) growing any one
// cost — α, β, the link factor or the straggler factor (factors ≥ 1) —
// leaves the makespan and every rank's clock no smaller, and (2) scaling α
// and β by 2^k scales every clock by exactly 2^k, bit for bit. Both hold for
// the marked report of a schedule with marks too, and that report priced
// under the recording machine equals the live one.
func FuzzPriceSchedule(f *testing.F) {
	f.Fuzz(func(t *testing.T, which uint8, alpha, beta uint32, link, slow uint16, grow uint8, by uint16, k int8) {
		tls, err := recorded()
		if err != nil {
			t.Fatal(err)
		}
		tl := tls[int(which)%len(tls)]
		p := tl.Report().P
		base := costs{alpha: float64(alpha) * 1e-12, beta: float64(beta) * 1e-17,
			link: 1 + float64(link)/1000, slow: 1 + float64(slow)/1000}
		ref, mref := base.price(t, tl, p)

		more := base
		x := 1 + float64(by)/256
		switch grow % 4 {
		case 0:
			more.alpha *= x
		case 1:
			more.beta *= x
		case 2:
			more.link *= x
		case 3:
			more.slow *= x
		}
		up, mup := more.price(t, tl, p)
		what := fmt.Sprintf("growing cost %d by %v", grow%4, x)
		requireGrown(t, what, ref, up)

		e := int(k) % 21
		scaled := base
		scaled.alpha, scaled.beta = math.Ldexp(base.alpha, e), math.Ldexp(base.beta, e)
		sc, msc := scaled.price(t, tl, p)
		requireScaled(t, fmt.Sprintf("scaling α, β by 2^%d", e), ref, sc, e)

		if mref == nil {
			return
		}
		requireGrown(t, what+" (marked)", mref, mup)
		requireScaled(t, fmt.Sprintf("scaling α, β by 2^%d (marked)", e), mref, msc, e)
		if _, marked := tl.Price(trace.DefaultMachine(), nil); !reflect.DeepEqual(marked, tl.MarkedReport()) {
			t.Fatalf("marked report priced under the recording machine %+v, live %+v", marked.Time, tl.MarkedReport().Time)
		}
	})
}
