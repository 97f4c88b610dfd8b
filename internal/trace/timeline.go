package trace

import (
	"fmt"
	"math"
	"sort"
)

// Machine is the α-β (latency–bandwidth) machine model used to advance the
// simulated clocks: a message of b bytes costs Alpha + Beta·b seconds on
// each endpoint it occupies. The paper argues its pivoting and broadcast
// choices in exactly these terms (§7.3: partial pivoting needs O(N) messages
// on the critical path, tournament pivoting O(N/v)).
type Machine struct {
	Alpha float64 // per-message latency, seconds
	Beta  float64 // per-byte transfer cost, seconds per byte
}

// DefaultMachine returns paper-scale interconnect parameters in the class of
// Piz Daint's Cray Aries network (§8): ~1 µs message latency and ~10 GB/s
// injection bandwidth per node.
func DefaultMachine() Machine { return Machine{Alpha: 1e-6, Beta: 1e-10} }

// Time returns the α-β cost of moving the given traffic serially:
// msgs·Alpha + bytes·Beta. It is the one place the cost formula lives —
// the timeline's per-endpoint advance and costmodel.PredictedTime both
// route through it.
func (m Machine) Time(bytes, msgs float64) float64 {
	return msgs*m.Alpha + bytes*m.Beta
}

// CheckNonNegative is the one range rule on a simulation's real parameters
// (α, β, the fast memory M, each topology tier's α and β): v must be finite
// and ≥ 0, so NaN fails it too. The error names the parameter.
func CheckNonNegative(name string, v float64) error {
	if v >= 0 && !math.IsInf(v, 1) {
		return nil
	}
	return fmt.Errorf("%s must be finite and non-negative, got %v", name, v)
}

// IsZero reports whether m is the zero Machine value. Callers that want a
// "default when unset" rule must pair it with an explicit way to request
// the all-free machine (α = β = 0), which is a meaningful configuration —
// it isolates volume from timing — and not merely "unset".
func (m Machine) IsZero() bool { return m == Machine{} }

// Topology generalizes the flat Machine into a per-pair cost model: the
// occupancy a delivery (from, to, bytes) charges each endpoint, plus the
// time it holds the receiver's shared ingress link. It is the seam
// internal/topo plugs hierarchical, dragonfly, fat-tree, and contended
// models into; a nil Topology on the Timeline keeps the flat Machine path
// byte-for-byte unchanged.
//
// Determinism contract (DESIGN.md §14): every method must be a pure
// function of its arguments. All mutable contention state lives on the
// receiver's shard and advances only at matching, in the receiver's
// program order, so reports stay bit-identical across executors and
// event-window widths exactly as with the flat machine.
type Topology interface {
	// Name labels the model in TimeReport.Topology ("flat",
	// "hier+contention", "dragonfly+faults", ...).
	Name() string
	// SendCost is the sender-endpoint occupancy in seconds of injecting a
	// from → to transfer of the given size.
	SendCost(from, to int, bytes int64) float64
	// RecvCost prices completing it, from one route lookup: occupancy is
	// how long the transfer holds the receiver's shared ingress link before
	// reception work can start (granted FIFO in the receiver's matching
	// order; 0 means uncontended — delivery starts at max(recv clock, send
	// stamp), exactly the flat rule), cost the receiver-endpoint occupancy.
	RecvCost(from, to int, bytes int64) (occupancy, cost float64)
}

// phaseStat is one phase's attribution on one shard: the bytes/msgs this
// rank originated under the label, and the busy time it accrued in it (send
// and recv sides alike). A rank touches a handful of phases, so the stats
// live in a small slice scanned linearly — one lookup per record where the
// map-based layout paid three hashes plus a probe of the untimed labels (timed
// is resolved once, when the label first appears on the shard).
type phaseStat struct {
	name  string
	timed bool
	bytes int64
	msgs  int64
	busy  float64
}

// shard is one rank's slice of the timeline: its volume aggregates, its
// logical clock and, when recording, its schedule. It has exactly one
// writer at a time and no lock (DESIGN.md §7): a send is booked on the
// sender's shard alone, a receive on the receiver's alone, each by that
// rank's own goroutine, or by a booker while that rank is parked at a
// rendezvous, with the mailbox hand-offs ordering the two.
type shard struct {
	// Volume aggregates — exactly the state the pre-timeline Counter kept
	// per rank, so the merged Report() stays byte-identical once every
	// message is matched. recv counts at matching.
	sent, recv, msgs int64

	// Per-phase attribution, in first-use order (deterministic: fixed by
	// this rank's program order). Report() sums the shards' stats, which
	// reproduces the old global maps exactly: integer addition is
	// order-independent, and busy times are never summed across ranks.
	phases []phaseStat

	// Timing state of this rank. busy is α-β work; wait is clock jumps on
	// matching. timedMsgs counts messages injected in timed phases only —
	// the latency-critical-path counterpart of the msgs aggregate.
	clock     float64
	busy      float64
	wait      float64
	timedMsgs int64

	// linkFree is when this rank's shared ingress link next frees up —
	// the FIFO contention state behind Topology.RecvCost's occupancy. It
	// is advanced only at matching, by its own rank, in that rank's program
	// order, which is what keeps contended runs deterministic (DESIGN.md
	// §14). Stays 0 under a nil or uncontended topology.
	linkFree float64

	// ops is this rank's recorded schedule (schedule.go): its timed sends
	// and receives in program order, kept only on a recording timeline.
	ops []op

	// 112 field bytes padded to two 64-byte cache lines, so adjacent
	// shards in the backing array do not false-share under concurrent
	// delivery; TestShardSizeCacheAligned pins the arithmetic.
	_ [16]byte
}

// phase returns the index of the shard's stat for name, creating it on first
// use (the only point timed is consulted). Scanned newest-first: traffic
// clusters in the phase set most recently.
func (s *shard) phase(name string) int {
	for i := len(s.phases) - 1; i >= 0; i-- {
		if s.phases[i].name == name {
			return i
		}
	}
	s.phases = append(s.phases, phaseStat{name: name, timed: timed(name)})
	return len(s.phases) - 1
}

// The clock rules live here once: a live run (RecordSend, RecordRecv) and a
// priced schedule (Price) advance their shards through the same three
// helpers, so both evaluate the same float expressions in the same per-rank
// order and their clocks agree bit for bit.

// sendCost is the sender-endpoint occupancy of one timed delivery: tp's
// price, or the flat machine's α + β·bytes when tp is nil.
func sendCost(m Machine, tp Topology, from, to int, bytes int64) float64 {
	if tp != nil {
		return tp.SendCost(from, to, bytes)
	}
	return m.Time(float64(bytes), 1)
}

// recvCost is the receive side's (ingress occupancy, endpoint cost); a nil tp
// prices the flat machine, which never contends.
func recvCost(m Machine, tp Topology, from, to int, bytes int64) (occ, cost float64) {
	if tp != nil {
		return tp.RecvCost(from, to, bytes)
	}
	return 0, m.Time(float64(bytes), 1)
}

// inject advances the sending shard by d of busy injection work.
func (s *shard) inject(ps *phaseStat, d float64) {
	s.clock += d
	s.busy += d
	ps.busy += d
}

// deliver advances the receiving shard over one timed delivery. It starts
// when the message is in flight AND the receiver reaches its matching point;
// under a contended topology (occ > 0) it also waits for the receiver's
// shared ingress link, granted FIFO in this rank's matching order
// (deterministic: the only state is this shard's linkFree, advanced only
// here, by this rank, in its program order — DESIGN.md §14). The jump to the
// start is wait time, d is busy reception work.
func (s *shard) deliver(ps *phaseStat, sendTime, occ, d float64) {
	start := s.clock
	if sendTime > start {
		start = sendTime
	}
	if occ > 0 {
		if s.linkFree > start {
			start = s.linkFree
		}
		s.linkFree = start + occ
	}
	if start > s.clock {
		s.wait += start - s.clock
		s.clock = start
	}
	s.clock += d
	s.busy += d
	ps.busy += d
}

// Timeline is the per-rank timeline substrate behind every simulated
// run: it meters communication volume exactly as the paper's Score-P
// methodology counts it (per sending rank, per phase) and simultaneously
// advances per-rank logical clocks under the α-β model. All ranks of a
// simulated world record on it concurrently, each on its own shard, so
// deliveries never contend; a rank's shard is read (Clock, Report) only
// where its writer is known to be parked or finished (DESIGN.md §7).
//
// Clock rules (see DESIGN.md §7):
//
//	send  by r:  clock[r] += α + β·bytes          (injection, busy time)
//	recv  by r:  clock[r]  = max(clock[r], sendTime)   (wait time)
//	             clock[r] += α + β·bytes          (reception, busy time)
//	self-sends advance nothing (memory moves), and neither does traffic
//	under PhaseLayout or PhaseCollect (metered for volume only).
type Timeline struct {
	p       int
	machine Machine
	shards  []shard

	// topo, when non-nil, replaces the flat machine cost with a per-pair
	// topology model (SetTopology). Written only before the run starts,
	// read without locks on the delivery hot path.
	topo Topology

	// record keeps every rank's timed operations for Price (Record). Set
	// before the run starts.
	record bool

	// marks holds each rank's shard as it stood when the rank last called
	// Mark, its schedule cut at the operations recorded by then. Nil unless
	// EnableMarks was called before the run.
	marks []shard
}

// NewTimeline creates the timeline for p ranks under machine m.
func NewTimeline(p int, m Machine) *Timeline {
	return &Timeline{p: p, machine: m, shards: make([]shard, p)}
}

// Machine returns the α-β parameters the timeline advances clocks with.
func (t *Timeline) Machine() Machine { return t.machine }

// SetTopology replaces the flat machine cost with a per-pair topology
// model for every subsequent clock advance (nil restores the flat rule).
// Must be called before the run starts: the field is read without
// synchronization on the delivery hot path.
func (t *Timeline) SetTopology(tp Topology) { t.topo = tp }

// Topology returns the installed topology model, or nil for the flat
// machine.
func (t *Timeline) Topology() Topology { return t.topo }

// Clock returns rank's current logical clock. The discrete-event executor
// orders its ready queue by this value (conservative discrete-event
// scheduling: always advance the rank whose simulated present is earliest),
// reading it only while rank is parked: under the baton, or at the window
// barrier.
func (t *Timeline) Clock(rank int) float64 { return t.shards[rank].clock }

// Stamp is what a timed send hands the receive that matches it: the
// sender's clock after injection and, on a recording timeline, the send's
// position in the sender's schedule (-1 when nothing was recorded).
type Stamp struct {
	Time  float64
	Index int32
}

// RecordSend meters bytes sent by rank from to rank to under the given phase
// label and advances the sender's clock by α + β·bytes. It returns the
// sender's clock after injection — the send timestamp the runtime carries on
// the message and hands back to RecordRecv on matching. Only the sender's
// shard is touched; the receiver counts the bytes when it matches.
func (t *Timeline) RecordSend(from, to int, bytes int64, phase string) float64 {
	return t.Send(from, to, bytes, phase).Time
}

// Send is RecordSend returning the whole stamp: on a recording timeline a
// timed send also appends itself to the sender's schedule, and the stamp
// carries its index there for the matching Recv.
func (t *Timeline) Send(from, to int, bytes int64, phase string) Stamp {
	s := &t.shards[from]
	s.sent += bytes
	s.msgs++
	i := s.phase(phase)
	ps := &s.phases[i]
	ps.bytes += bytes
	ps.msgs++
	st := Stamp{Index: -1}
	if ps.timed {
		s.inject(ps, sendCost(t.machine, t.topo, from, to, bytes))
		s.timedMsgs++
		if t.record {
			st.Index = s.recordSend(to, bytes, i)
		}
	}
	st.Time = s.clock
	return st
}

// RecordRecv completes a matched delivery on the receiving rank: it counts
// the received bytes, the clock jumps to max(local, sendTime) — the jump is
// wait time — then advances by α + β·bytes of reception work. phase is the
// delivery's (send-side) phase label. A recording timeline needs the send's
// index: use Recv.
func (t *Timeline) RecordRecv(from, to int, bytes int64, phase string, sendTime float64) {
	t.Recv(from, to, bytes, phase, Stamp{Time: sendTime, Index: -1})
}

// Recv is RecordRecv taking the stamp Send returned; a recording timeline
// appends the timed receive, with the matched send's index, to the
// receiver's schedule.
func (t *Timeline) Recv(from, to int, bytes int64, phase string, st Stamp) {
	s := &t.shards[to]
	s.recv += bytes
	i := s.phase(phase)
	if ps := &s.phases[i]; ps.timed {
		occ, d := recvCost(t.machine, t.topo, from, to, bytes)
		s.deliver(ps, st.Time, occ, d)
		if t.record {
			s.recordRecv(from, st.Index, i)
		}
	}
}

// errTimedBatch is the panic value of a batched booking in a timed phase.
const errTimedBatch = "trace: batched booking in a timed phase"

// untimedPhase is s.phase for the batched bookings, which are legal only
// where no clock moves: there a booking adds only bytes and counts, so one
// call stands in for len(batch) of them bit for bit. Anywhere else the k-th
// message's cost depends on the k−1 before it and the batch would have to
// replay them; it panics instead.
func (s *shard) untimedPhase(name string) *phaseStat {
	ps := &s.phases[s.phase(name)]
	if ps.timed {
		panic(errTimedBatch)
	}
	return ps
}

// RecordSendBatch books len(bytes) messages sent by rank from, one per entry,
// on its shard — the volume aggregates end up exactly where len(bytes)
// RecordSend calls would leave them. phase must be a housekeeping phase (see
// untimedPhase), so no receiver needs a stamp.
func (t *Timeline) RecordSendBatch(from int, bytes []int64, phase string) {
	s := &t.shards[from]
	ps := s.untimedPhase(phase)
	var total int64
	for _, b := range bytes {
		total += b
	}
	s.sent += total
	s.msgs += int64(len(bytes))
	ps.bytes += total
	ps.msgs += int64(len(bytes))
}

// RecordRecvBatch completes batched deliveries of bytes in total on rank to:
// the received bytes, which is all that a RecordRecv per message in an
// untimed phase leaves. The messages may come from different senders; phase
// (their common send-side label) must be a housekeeping phase.
func (t *Timeline) RecordRecvBatch(to int, bytes int64, phase string) {
	s := &t.shards[to]
	s.untimedPhase(phase)
	s.recv += bytes
}

// Report derives the immutable volume report — including the simulated-time
// sub-report — by merging the per-rank shards in rank order, after the run
// has joined. The volume fields are identical to what the pre-shard
// global-mutex timeline (and the per-rank counters before it) produced for
// a run whose every message was matched: per-rank values live on their own
// shard, and the per-phase maps merge by integer addition, which no
// interleaving can perturb. Bytes still in flight (an aborted run) count in
// Sent but not in Recv.
func (t *Timeline) Report() *Report { return t.report(t.shards) }

// report merges the given per-rank shards (the live ones, or the marks) into
// a report under the timeline's machine and topology.
func (t *Timeline) report(shards []shard) *Report {
	r := &Report{
		P:         t.p,
		Sent:      make([]int64, t.p),
		Recv:      make([]int64, t.p),
		Msgs:      make([]int64, t.p),
		ByPhase:   map[string]int64{},
		PhaseMsgs: map[string]int64{},
	}
	tr := &TimeReport{
		Machine:      t.machine,
		Clock:        make([]float64, t.p),
		Busy:         make([]float64, t.p),
		Wait:         make([]float64, t.p),
		Msgs:         make([]int64, t.p),
		CritPhases:   map[string]float64{},
		PhaseBusyMax: map[string]float64{},
	}
	if t.topo != nil {
		tr.Topology = t.topo.Name()
	}
	for i := range shards {
		s := &shards[i]
		r.Sent[i], r.Recv[i], r.Msgs[i] = s.sent, s.recv, s.msgs
		for _, ps := range s.phases {
			// Volume attribution: only stats with originated traffic add
			// keys (a receiver-side stat for a foreign phase carries 0 of
			// both and must not invent a phase the senders never metered).
			if ps.bytes != 0 || ps.msgs != 0 {
				r.ByPhase[ps.name] += ps.bytes
				r.PhaseMsgs[ps.name] += ps.msgs
			}
			if ps.timed && ps.busy > tr.PhaseBusyMax[ps.name] {
				tr.PhaseBusyMax[ps.name] = ps.busy
			}
		}
		tr.Clock[i] = s.clock
		tr.Busy[i] = s.busy
		tr.Wait[i] = s.wait
		tr.Msgs[i] = s.timedMsgs
		if s.clock > tr.Makespan {
			tr.Makespan = s.clock
			tr.CritRank = i
		}
	}
	if t.p > 0 {
		for _, ps := range shards[tr.CritRank].phases {
			if ps.timed {
				tr.CritPhases[ps.name] = ps.busy
			}
		}
	}
	r.Time = tr
	return r
}

// TimeReport is the simulated-time view of one run under the α-β model:
// per-rank logical clocks, the busy/wait split, and the phase attribution
// of the critical (makespan-defining) rank.
type TimeReport struct {
	Machine Machine
	// Topology names the per-pair topology model the clocks advanced
	// under ("" = the flat Machine) — provenance, like Report.Executor.
	Topology string
	Makespan float64   // max final clock over ranks, seconds
	Clock    []float64 // per-rank final clocks
	Busy     []float64 // per-rank α-β transfer work
	Wait     []float64 // per-rank time spent blocked on matching
	Msgs     []int64   // per-rank messages injected in timed phases only
	CritRank int       // rank whose clock defines the makespan
	// CritPhases is the critical rank's busy time per phase label — where
	// the simulated critical path actually spends its communication time.
	CritPhases map[string]float64
	// PhaseBusyMax is, per phase, the largest busy time any single rank
	// spent in it — the phase's own critical path, independent of which
	// rank bounds the whole run (a phase can be latency-critical on a
	// rank the overall makespan never visits).
	PhaseBusyMax map[string]float64
}

// CritBusy returns the critical rank's transfer (busy) time: the pure α-β
// communication time on the critical path, excluding waits.
func (t *TimeReport) CritBusy() float64 {
	if t.CritRank >= len(t.Busy) {
		return 0
	}
	return t.Busy[t.CritRank]
}

// CritWait returns the critical rank's wait time. Makespan = CritBusy +
// CritWait by construction.
func (t *TimeReport) CritWait() float64 {
	if t.CritRank >= len(t.Wait) {
		return 0
	}
	return t.Wait[t.CritRank]
}

// MaxRankMsgs returns the maximum timed-phase message count injected by
// any single rank — the latency-bound critical path, with the untimed
// housekeeping phases excluded exactly as they are from the clocks.
func (t *TimeReport) MaxRankMsgs() int64 {
	var m int64
	for _, v := range t.Msgs {
		if v > m {
			m = v
		}
	}
	return m
}

// CritPhaseOrder returns the critical rank's phase labels sorted by
// descending busy time.
func (t *TimeReport) CritPhaseOrder() []string {
	keys := make([]string, 0, len(t.CritPhases))
	for k := range t.CritPhases {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if t.CritPhases[keys[i]] != t.CritPhases[keys[j]] {
			return t.CritPhases[keys[i]] > t.CritPhases[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys
}

// String renders a short human-readable timing summary.
func (t *TimeReport) String() string {
	s := fmt.Sprintf("makespan=%.6fs crit-rank=%d busy=%.6fs wait=%.6fs (α=%.2e β=%.2e)\n",
		t.Makespan, t.CritRank, t.CritBusy(), t.CritWait(), t.Machine.Alpha, t.Machine.Beta)
	for _, ph := range t.CritPhaseOrder() {
		s += fmt.Sprintf("  %-24s %12.6f s\n", ph, t.CritPhases[ph])
	}
	return s
}
