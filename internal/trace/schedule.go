package trace

import (
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// Record once, price many (DESIGN.md §16). A simulated clock is a max-plus
// function of each rank's program order of timed sends and receives:
// matching is FIFO per stream, and the machine enters only through the
// endpoint costs. So a run's schedule — who sent how much to whom, which send
// each receive matched, in which phase — fixes every clock for every machine,
// and a recording timeline keeps exactly that, 12 bytes per operation. Price
// then re-evaluates the clocks under any other machine or topology without
// re-running the engine. Untimed traffic (layout, collect, every batch) moves
// no clock and is not recorded; volumes and timed-message counts do not
// depend on the machine, so Price copies them from the recording.

// op is one recorded timed operation of a rank. A send holds its receiver,
// its size in elements and its phase; a receive holds its sender, the index
// of the matched send in the sender's list, and its phase.
type op struct {
	peer  int32
	n     uint32 // send: elements; receive: the matched send's index in peer's ops
	phase uint16 // index into the rank's phases
	recv  bool
}

// errRecord is the panic value of an operation a schedule cannot hold.
const errRecord = "trace: recorded operation out of range (sizes must be whole elements below 2^32, at most 2^16 phases and 2^31 operations per rank)"

// Record makes the timeline keep every rank's timed operations, in program
// order, for Price. Call before the run starts. Receives must then be booked
// with the Stamp their send returned (Send/Recv).
func (t *Timeline) Record() { t.record = true }

// EnableMarks makes Mark keep snapshots. Call before the run starts; a
// timeline without marks pays nothing for them.
func (t *Timeline) EnableMarks() { t.marks = make([]shard, t.p) }

// Mark snapshots rank's shard — its volumes, per-phase stats, clock, busy and
// wait times, timed-message count and ingress-link state, and how many
// operations its schedule holds — so MarkedReport, and Price under any other
// machine, can report the run as it stood at that point of each rank's
// program order. It must be called by the rank's own goroutine, which keeps
// the shard's one writer; a second Mark replaces the first. It does nothing
// unless EnableMarks was called.
func (t *Timeline) Mark(rank int) {
	if t.marks == nil {
		return
	}
	m := t.shards[rank]
	m.phases = slices.Clone(m.phases)
	m.ops = m.ops[:len(m.ops):len(m.ops)]
	t.marks[rank] = m
}

// MarkedReport is Report over the ranks' marks instead of their final state;
// a rank that never marked reports zeros. Call it after the run has joined.
func (t *Timeline) MarkedReport() *Report {
	if t.marks == nil {
		panic("trace: MarkedReport on a timeline without marks")
	}
	return t.report(t.marks)
}

// recordSend appends a timed send to the shard's schedule and returns its
// index there.
func (s *shard) recordSend(to int, bytes int64, phase int) int32 {
	n := bytes / BytesPerElement
	if bytes%BytesPerElement != 0 || n > math.MaxUint32 || phase > math.MaxUint16 || len(s.ops) >= math.MaxInt32 {
		panic(errRecord)
	}
	s.ops = append(s.ops, op{peer: int32(to), n: uint32(n), phase: uint16(phase)})
	return int32(len(s.ops) - 1)
}

// recordRecv appends a timed receive that matched the send at index send of
// rank from's schedule.
func (s *shard) recordRecv(from int, send int32, phase int) {
	if send < 0 || phase > math.MaxUint16 {
		panic(errRecord)
	}
	s.ops = append(s.ops, op{peer: int32(from), n: uint32(send), phase: uint16(phase), recv: true})
}

// ScheduleBytes returns the size of the recorded schedule: 12 bytes per timed
// operation, two operations per timed delivery.
func (t *Timeline) ScheduleBytes() int64 {
	var n int64
	for i := range t.shards {
		n += int64(len(t.shards[i].ops))
	}
	return n * int64(unsafe.Sizeof(op{}))
}

// ScheduleDiff compares t's recorded schedule with u's operation by
// operation, ranks ascending, and describes the first (rank, operation) at
// which they differ: its position in the rank's program order and both
// sides' kind, peer, size or matched send, and phase label. It returns ""
// when every rank recorded the same operations, which pins every timed
// delivery's stamp under any machine. Call it on two recording timelines
// after their runs have joined; neither is modified.
func (t *Timeline) ScheduleDiff(u *Timeline) string {
	if !t.record || !u.record {
		panic("trace: ScheduleDiff on a timeline that did not record")
	}
	if t.p != u.p {
		return fmt.Sprintf("%d ranks vs %d", t.p, u.p)
	}
	for r := range t.shards {
		a, b := t.shards[r].ops, u.shards[r].ops
		for k := range max(len(a), len(b)) {
			x, y := t.shards[r].describe(k), u.shards[r].describe(k)
			if x != y {
				return fmt.Sprintf("rank %d operation %d: %s vs %s", r, k, x, y)
			}
		}
	}
	return ""
}

// describe renders the shard's k-th recorded operation, "none" past its end.
func (s *shard) describe(k int) string {
	if k >= len(s.ops) {
		return "none"
	}
	o, format := s.ops[k], "send to %d of %d elements in %q"
	if o.recv {
		format = "recv from %d of its send %d in %q"
	}
	return fmt.Sprintf(format, o.peer, o.n, s.phases[o.phase].name)
}

// Price re-evaluates the recorded schedule under machine m and topology tp
// (nil = the flat machine) and returns the report a live run under them
// would have returned: the volume fields and timed-message counts copied
// from this run, and every clock, busy and wait time, the makespan, the
// critical rank and the per-phase busy times bit-identical to the live
// run's. Executor and Workers stay empty (nothing executed). On a timeline
// with marks it also returns the marked report that run would have given
// (nil otherwise): each rank's priced state is snapshotted when its cursor
// reaches the operation it had marked at, and its volumes are copied from
// the live mark. It runs on one goroutine: each rank advances through its
// operations until a receive whose send is not yet priced, and parks on that
// sender until it is. Call it on a recording timeline after the run has
// joined; the timeline itself is not modified.
func (t *Timeline) Price(m Machine, tp Topology) (rep, marked *Report) {
	if !t.record {
		panic("trace: Price on a timeline that did not record")
	}
	pt := &Timeline{p: t.p, machine: m, topo: tp, shards: make([]shard, t.p)}
	// stamps[base[r]+k] is rank r's clock after its k-th operation, read by
	// the receive that matches it when the operation is a send.
	base := make([]int, t.p+1)
	// at[r] is the operation rank r marked at, -1 once its mark is priced
	// or when the timeline keeps none.
	at := make([]int, t.p)
	var marks []shard
	if t.marks != nil {
		marks = make([]shard, t.p)
	}
	for r := range t.shards {
		src, dst := &t.shards[r], &pt.shards[r]
		dst.sent, dst.recv, dst.msgs, dst.timedMsgs = src.sent, src.recv, src.msgs, src.timedMsgs
		dst.phases = slices.Clone(src.phases)
		for k := range dst.phases {
			dst.phases[k].busy = 0
		}
		base[r+1] = base[r] + len(src.ops)
		at[r] = -1
		if marks != nil {
			at[r] = len(t.marks[r].ops)
		}
	}
	stamps := make([]float64, base[t.p])
	cur := make([]int, t.p) // each rank's next unpriced operation
	// waiters[r] are the ranks parked on a send of rank r, each with the
	// index of the send it awaits.
	type waiter struct{ rank, send int32 }
	waiters := make([][]waiter, t.p)
	ready := make([]int32, 0, t.p) // ranks that may advance
	for r := t.p - 1; r >= 0; r-- {
		ready = append(ready, int32(r))
	}
	for len(ready) > 0 {
		r := int(ready[len(ready)-1])
		ready = ready[:len(ready)-1]
		s, ops := &pt.shards[r], t.shards[r].ops
		k := cur[r]
	advance:
		for {
			end := len(ops)
			if k <= at[r] {
				end = at[r]
			}
			for ; k < end; k++ {
				o := ops[k]
				ps := &s.phases[o.phase]
				peer := int(o.peer)
				if !o.recv {
					s.inject(ps, sendCost(m, tp, r, peer, int64(o.n)*BytesPerElement))
					stamps[base[r]+k] = s.clock
					continue
				}
				if int(o.n) >= cur[peer] {
					waiters[peer] = append(waiters[peer], waiter{int32(r), int32(o.n)})
					break advance
				}
				bytes := int64(t.shards[peer].ops[o.n].n) * BytesPerElement
				occ, d := recvCost(m, tp, peer, r, bytes)
				s.deliver(ps, stamps[base[peer]+int(o.n)], occ, d)
			}
			if k != at[r] {
				break
			}
			marks[r] = pricedMark(&t.marks[r], s)
			at[r] = -1
		}
		cur[r] = k
		// Wake the ranks whose awaited send this advance priced.
		ws := waiters[r][:0]
		for _, w := range waiters[r] {
			if int(w.send) < k {
				ready = append(ready, w.rank)
			} else {
				ws = append(ws, w)
			}
		}
		waiters[r] = ws
	}
	for r := range cur {
		if cur[r] != len(t.shards[r].ops) {
			panic(fmt.Sprintf("trace: recorded schedule cannot be priced: rank %d waits on a send rank %d never recorded",
				r, t.shards[r].ops[cur[r]].peer))
		}
	}
	if marks != nil {
		marked = pt.report(marks)
	}
	return pt.report(pt.shards), marked
}

// pricedMark returns the live mark mk with its timing state — clock, busy,
// wait, ingress link and per-phase busy times — taken from the priced shard
// s, which stands at the same operation. The phases s has gained since are
// past the mark and carry no busy time yet.
func pricedMark(mk, s *shard) shard {
	out := *mk
	out.phases = slices.Clone(mk.phases)
	for i := range out.phases {
		out.phases[i].busy = s.phases[i].busy
	}
	out.clock, out.busy, out.wait, out.linkFree = s.clock, s.busy, s.wait, s.linkFree
	return out
}
