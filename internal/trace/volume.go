// Package trace is the instrumentation substrate of the simulated machine.
// It meters communication volume the way the paper measures it: it
// "instruments the implementations … and counts the aggregate bytes sent
// over the network" (paper §8, Score-P on Piz Daint). Every point-to-point
// delivery performed through internal/smpi is booked here on a per-rank
// timeline (see Timeline), attributed to the sending rank and to the phase
// label active on its communicator — and simultaneously timed
// under an α-β (latency–bandwidth) machine model, from which the simulated
// makespan and the per-rank busy/wait split derive.
package trace

import (
	"fmt"
	"sort"
)

// BytesPerElement is the element size used throughout (float64, as in the
// paper: "the models are scaled by the element size (8 bytes)").
const BytesPerElement = 8

// Report is a snapshot of the communication volume of one run, derived from
// the timeline. Time carries the simulated-time view of the same run.
type Report struct {
	P         int
	Sent      []int64 // bytes sent per rank
	Recv      []int64 // bytes received per rank
	Msgs      []int64 // messages sent per rank (latency proxy)
	ByPhase   map[string]int64
	PhaseMsgs map[string]int64
	// Time is the α-β simulated-time sub-report (makespan, busy/wait
	// split, critical-path phase attribution). Derived from the same
	// timeline as the volume fields above.
	Time *TimeReport
	// Executor names the run executor that produced this report
	// ("goroutines" or "events"); stamped by the smpi runner. Both
	// executors produce byte-identical volume and bit-identical clocks,
	// so the field is provenance, not a caveat.
	Executor string
	// Workers is the event executor's concurrent-window width for this
	// run (1 = the serial baton schedule); 0 under the goroutine
	// executor, where every rank is always live. Provenance like
	// Executor: the report is bit-identical at every width.
	Workers int
}

// TotalMsgs is the aggregate message count.
func (r *Report) TotalMsgs() int64 {
	var s int64
	for _, v := range r.Msgs {
		s += v
	}
	return s
}

// TotalBytes is the aggregate bytes sent over the network (the paper's
// headline metric).
func (r *Report) TotalBytes() int64 {
	var s int64
	for _, v := range r.Sent {
		s += v
	}
	return s
}

// PerNodeBytes is the average bytes sent per rank (Fig. 6 y-axis:
// "communication volume per node").
func (r *Report) PerNodeBytes() float64 {
	if r.P == 0 {
		return 0
	}
	return float64(r.TotalBytes()) / float64(r.P)
}

// MaxRankBytes is the maximum bytes sent by any single rank — the critical
// path of a bandwidth-bound run.
func (r *Report) MaxRankBytes() int64 {
	var m int64
	for _, v := range r.Sent {
		if v > m {
			m = v
		}
	}
	return m
}

// TotalGB returns TotalBytes in gigabytes (1e9, as in the paper's tables).
func (r *Report) TotalGB() float64 { return float64(r.TotalBytes()) / 1e9 }

// AlgorithmBytes returns TotalBytes minus the housekeeping phases. The paper
// "assume[s] that the input matrix A is already distributed in the block
// cyclic layout imposed by the algorithm" (§7.4); the harness therefore
// excludes the initial layout scatter and the final verification gather,
// which it labels PhaseLayout and PhaseCollect.
func (r *Report) AlgorithmBytes() int64 {
	return r.TotalBytes() - r.ByPhase[PhaseLayout] - r.ByPhase[PhaseCollect]
}

// The housekeeping phase labels shared by the engines: the layout scatter
// and the verification gather.
const (
	PhaseLayout  = "layout"
	PhaseCollect = "collect"
)

// timed reports whether traffic under phase advances logical clocks. Every
// phase does but the two housekeeping ones: they are metered for volume
// and, as AlgorithmBytes leaves them out of the algorithm's bytes, they
// cost no simulated time either — the paper's §7.4 assumption that the
// input is already distributed, applied to the clocks, so the layout
// scatter and verification gather cannot dominate the makespan.
func timed(phase string) bool { return phase != PhaseLayout && phase != PhaseCollect }

// Phases returns phase labels sorted by descending volume.
func (r *Report) Phases() []string {
	keys := make([]string, 0, len(r.ByPhase))
	for k := range r.ByPhase {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if r.ByPhase[keys[i]] != r.ByPhase[keys[j]] {
			return r.ByPhase[keys[i]] > r.ByPhase[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys
}

// String renders a short human-readable summary.
func (r *Report) String() string {
	s := fmt.Sprintf("P=%d total=%.3f GB per-node=%.3f MB max-rank=%.3f MB\n",
		r.P, r.TotalGB(), r.PerNodeBytes()/1e6, float64(r.MaxRankBytes())/1e6)
	for _, ph := range r.Phases() {
		s += fmt.Sprintf("  %-24s %12.3f MB\n", ph, float64(r.ByPhase[ph])/1e6)
	}
	if r.Time != nil {
		s += fmt.Sprintf("  simulated makespan %.6f s (busy %.6f, wait %.6f on rank %d)\n",
			r.Time.Makespan, r.Time.CritBusy(), r.Time.CritWait(), r.Time.CritRank)
	}
	return s
}
