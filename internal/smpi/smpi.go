// Package smpi is a deterministic message-passing runtime that stands in for
// MPI in the paper's experiments (see DESIGN.md §1). Ranks are goroutines;
// messages are delivered through per-rank mailboxes; every delivery crosses
// one metering point on the world's trace.Timeline, attributed to the
// sending rank and to the rank's current phase label, and advances the
// per-rank logical clocks of the α-β simulated-time model (DESIGN.md §7) —
// so collectives, dist.Scatter/Gather, and every engine built on top
// inherit both volume metering and timing for free.
//
// The runtime has two payload modes. In numeric mode messages carry real
// float64 data. In volume mode (phantom payloads) messages carry only their
// element counts — the schedule, the message pattern, and the metered bytes
// are identical by construction, which is what lets the harness replay the
// paper-scale runs (N = 16,384, P = 1,024) cheaply.
//
// One transport operation is normally one metered message. The batch
// (SendBatch/RecvBatches), the runtime's only scatter/gather-shaped
// primitive, moves many messages between one pair of ranks as one mailbox
// entry and one wire buffer, but still books them on the timeline one by
// one — legal only in phases excluded from timing, where that is exact.
// Ownership of a batch: the wire buffer is a pool lease the runtime holds from
// SendBatch until RecvBatches (or the abort sweep) recycles it, seen by the
// caller only inside the pack/unpack callbacks; the part list stays the
// sender's, read-only for everyone once sent. The booked exchange (SwapRows,
// AllreduceMaxLoc; rendezvous.go) moves a whole ping-pong or butterfly as one
// hand-off per participant: one rank books every message, each rank's records
// in that rank's own program order, so it is exact in timed phases too.
package smpi

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/mat"
	"repro/internal/trace"
)

// World is one simulated machine: P ranks with private memories, a shared
// event timeline (volume + simulated time), and an optional send-fault
// injector used by tests.
type World struct {
	P       int
	Payload bool
	Trace   *trace.Timeline

	boxes   []*mailbox
	slots   []slot // per world rank: rendezvous deposits (rendezvous.go)
	aborted atomic.Bool

	// sched is non-nil when the world runs under the discrete-event
	// executor (see events.go): ranks then yield blocked receives to the
	// scheduler instead of parking on mailbox condvars, and at most one
	// rank executes at a time. executor records the resolved choice for
	// the report stamp.
	sched    *eventScheduler
	executor Executor

	// reclaimed counts the leased wire buffers of undelivered messages the
	// post-run sweep returned to the pools. Written once after all ranks
	// have unwound; read by the abort-path regression tests.
	reclaimed struct{ bufs int }

	// FailSend, when non-nil, is consulted on every point-to-point delivery;
	// a non-nil error makes the sending rank panic with it (the runner turns
	// rank panics into run errors). Used for failure-injection tests.
	FailSend func(from, to int, bytes int64) error

	// worldMembers is the [0..P) member list every rank's world Comm
	// shares; worldID is its precomputed communicator hash. Before they
	// were shared, each of the P ranks built its own P-element copy —
	// O(P²) memory held for the whole run, the dominant per-rank cost at
	// beyond-paper scales.
	worldMembers []int
	worldID      uint64

	// interned shares large Sub member lists across ranks, keyed by
	// communicator ID (see internMembers). Guarded by commMu.
	commMu   sync.Mutex
	interned map[uint64][]int
}

// NewWorld creates a world with p ranks under the default α-β machine.
// payload=false selects volume mode.
func NewWorld(p int, payload bool) *World {
	return NewWorldMachine(p, payload, trace.DefaultMachine())
}

// NewWorldMachine creates a world whose timeline advances clocks with the
// given α-β machine parameters.
func NewWorldMachine(p int, payload bool, m trace.Machine) *World {
	if p <= 0 {
		panic("smpi: world size must be positive")
	}
	w := &World{P: p, Payload: payload, Trace: trace.NewTimeline(p, m)}
	// Housekeeping traffic is metered but untimed: the paper assumes the
	// input is already distributed (§7.4), so neither the layout scatter
	// nor the verification gather may dominate the simulated makespan.
	w.Trace.ExcludeFromTiming(trace.PhaseLayout, trace.PhaseCollect)
	w.boxes = make([]*mailbox, p)
	for i := range w.boxes {
		w.boxes[i] = newMailbox(i)
	}
	w.slots = make([]slot, p)
	w.worldMembers = make([]int, p)
	for i := range w.worldMembers {
		w.worldMembers[i] = i
	}
	w.worldID = commID("world", w.worldMembers)
	return w
}

// Msg is the wire unit: an optional float64 payload, an optional int payload
// (pivot indices and other metadata, carried in both modes), and N, the
// metered element count (8 bytes each). The unexported fields carry the
// sender's timeline stamp (send-completion clock and phase label); Send
// overwrites them, so callers never need to set them. pooled marks an F
// leased from the runtime's pools (SendMat and SendBatch wire buffers): an
// aborted run returns those — and only those — to their pools when it sweeps
// undelivered messages, so caller-owned payloads handed to raw Send are
// never aliased into the pool behind the caller.
//
// batch marks the one Msg a SendBatch enqueues for its whole part list: F is
// the packed payload of every part (a pool lease, so pooled is set with it;
// nil in volume mode), I the per-part element counts and N their sum. The
// part list stays the sender's — the runtime and the receiver only read it.
type Msg struct {
	F []float64
	I []int
	N int

	sendTime  float64
	sendPhase string
	pooled    bool
	batch     bool
}

// msgKey identifies one point-to-point stream. The communicator component
// is pre-hashed (commID computes it once at communicator creation), so
// matching a pending message against an awaited stream compares three
// scalars.
type msgKey struct {
	src  int
	comm uint64
	tag  int
}

// ErrAborted is the panic value raised in ranks blocked on Recv when
// another rank has failed; the runner filters it out in favour of the
// originating error.
var ErrAborted = errors.New("smpi: run aborted by another rank's failure")

// Abort wakes every rank blocked on a receive; their pending takes panic
// with ErrAborted. Called by the runner when any rank fails or the run's
// context fires, so one rank's error cannot deadlock the world. The
// broadcast must hold each mailbox's mutex: a rank between its aborted
// check and cond.Wait holds that mutex, so acquiring it orders the store
// before the rank's recheck — an unlocked broadcast could land in that
// window and be lost, leaving the rank (and the whole run) blocked forever.
// It wakes every receiver whatever stream it is parked on: a put signals
// only the stream it matches, an abort has no stream.
// Under the event executor no rank waits on a condvar; the abort instead
// wakes the scheduler (which may be idling on an all-ranks-blocked
// schedule deadlock) so it unwinds every parked rank.
func (w *World) Abort() {
	w.aborted.Store(true)
	if s := w.sched; s != nil {
		s.signalAbort()
	}
	for _, mb := range w.boxes {
		mb.mu.Lock()
		mb.cond.Broadcast()
		mb.mu.Unlock()
	}
}

// Comm is one rank's handle on a communicator (a subset of world ranks).
// Ranks within the communicator are indexed 0..Size()-1 in member order.
// A Comm value belongs to exactly one rank (one goroutine).
type Comm struct {
	w       *World
	id      uint64
	members []int // world ranks
	me      int   // my index in members
	phase   *string
	opseq   int // collective sequence number, salts internal tags
}

// WorldComm returns rank r's handle on the all-ranks communicator. All
// ranks share the world's one member list and precomputed ID; Comm never
// mutates its members, so sharing is safe.
func WorldComm(w *World, r int) *Comm {
	ph := "init"
	return &Comm{w: w, id: w.worldID, members: w.worldMembers, me: r, phase: &ph}
}

// commID hashes a communicator's identity (name + member list) with FNV-64a
// over the raw bytes. The value is purely internal message-routing salt —
// it never appears in reports — but it must be a deterministic function of
// (name, members) so every member rank derives the same stream keys.
func commID(name string, members []int) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	h ^= 0xff // separator: ("ab", [1]) must not collide with ("a", [0x62...])
	h *= prime64
	for _, m := range members {
		v := uint64(m)
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime64
		}
	}
	return h
}

// internMembersMin is the member-count threshold above which Sub shares one
// copy of the member list across all ranks of the communicator. Big
// communicators (the world-sized "active" comm every engine builds) would
// otherwise cost O(P²) memory — one P-element copy per rank. Small lists
// (row/column/per-tile comms, O(√P) members) stay private: they are cheap,
// and per-tile communicator names are transient, so interning them would
// grow the world's intern table with entries nobody reuses.
const internMembersMin = 256

// Sub derives a named communicator from the given member list (world ranks,
// order defines sub-ranks). The calling rank must be a member. Creation is
// purely local: grids are deterministic, so no coordination is needed.
func (c *Comm) Sub(name string, worldRanks []int) *Comm {
	me := -1
	for i, r := range worldRanks {
		if r == c.WorldRank() {
			me = i
			break
		}
	}
	if me < 0 {
		panic(fmt.Sprintf("smpi: rank %d not in sub-communicator %q %v", c.WorldRank(), name, worldRanks))
	}
	id := commID(name, worldRanks)
	return &Comm{
		w:       c.w,
		id:      id,
		members: c.w.internMembers(id, worldRanks),
		me:      me,
		phase:   c.phase,
	}
}

// internMembers returns the member slice to store on a new Comm: an
// immutable shared copy for large lists (deduplicated across ranks by
// communicator ID), a private copy otherwise. Never aliases the caller's
// slice — grid helpers rebuild theirs per call.
func (w *World) internMembers(id uint64, worldRanks []int) []int {
	if len(worldRanks) < internMembersMin {
		return append([]int(nil), worldRanks...)
	}
	w.commMu.Lock()
	defer w.commMu.Unlock()
	if m, ok := w.interned[id]; ok && len(m) == len(worldRanks) {
		return m
	}
	m := append([]int(nil), worldRanks...)
	if w.interned == nil {
		w.interned = make(map[uint64][]int)
	}
	w.interned[id] = m
	return m
}

// Rank returns this rank's index within the communicator.
func (c *Comm) Rank() int { return c.me }

// Size returns the communicator size.
func (c *Comm) Size() int { return len(c.members) }

// WorldRank returns this rank's index in the world.
func (c *Comm) WorldRank() int { return c.members[c.me] }

// Payload reports whether this world carries numeric payloads.
func (c *Comm) Payload() bool { return c.w.Payload }

// SetPhase labels subsequent traffic from this rank (shared across all Comms
// derived from the same world rank).
func (c *Comm) SetPhase(phase string) { *c.phase = phase }

// Phase returns the current phase label.
func (c *Comm) Phase() string { return *c.phase }

// Send delivers msg to communicator rank `to` under `tag`. Zero-copy is
// never assumed: callers pass freshly packed slices. The send is metered on
// the world timeline (bytes, sender clock += α + β·bytes) and the message
// carries the sender's post-injection clock for Recv to match against.
func (c *Comm) Send(to, tag int, msg Msg) {
	if to < 0 || to >= len(c.members) {
		panic(fmt.Sprintf("smpi: Send to rank %d of %d", to, len(c.members)))
	}
	src, dst := c.WorldRank(), c.members[to]
	bytes := int64(msg.N) * trace.BytesPerElement
	if f := c.w.FailSend; f != nil {
		if err := f(src, dst, bytes); err != nil {
			panic(err)
		}
	}
	if dst != src { // self-sends are memory moves, not network traffic
		msg.sendPhase = *c.phase
		msg.sendTime = c.w.Trace.RecordSend(src, dst, bytes, msg.sendPhase)
	}
	c.w.boxes[dst].put(c.w, msgKey{src: src, comm: c.id, tag: tag}, msg)
}

// Recv blocks until a message from communicator rank `from` under `tag`
// arrives and returns it. Matching completes the delivery on the timeline:
// the receiver's clock jumps to max(local, sender) — wait time — and then
// advances by α + β·bytes.
func (c *Comm) Recv(from, tag int) Msg {
	if from < 0 || from >= len(c.members) {
		panic(fmt.Sprintf("smpi: Recv from rank %d of %d", from, len(c.members)))
	}
	src, me := c.members[from], c.WorldRank()
	msg := c.w.boxes[me].take(c.w, msgKey{src: src, comm: c.id, tag: tag})
	if src != me { // self-receives are memory moves, untimed
		c.w.Trace.RecordRecv(src, me, int64(msg.N)*trace.BytesPerElement, msg.sendPhase, msg.sendTime)
	}
	return msg
}

// SendMat sends a matrix (payload in numeric mode, count-only otherwise).
// Phantom matrices take a zero-allocation fast path: the enqueued Msg is a
// plain value carrying only the metered element count. Numeric payloads are
// packed into a pooled wire buffer owned by the runtime until the matching
// RecvMat copies it out and recycles it.
func (c *Comm) SendMat(to, tag int, m *mat.Matrix) {
	if m.Phantom() {
		c.Send(to, tag, Msg{N: m.Len()})
		return
	}
	c.Send(to, tag, Msg{F: m.PackInto(getFloats(m.Len())), N: m.Len(), pooled: true})
}

// RecvMat receives into dst (shape must match the metered count) and
// returns the wire buffer to the runtime's pool — the payload is fully
// copied into dst, so no reference survives the call.
func (c *Comm) RecvMat(from, tag int, dst *mat.Matrix) {
	msg := c.Recv(from, tag)
	if msg.N != dst.Len() {
		panic(fmt.Sprintf("smpi: RecvMat expected %d elements, got %d", dst.Len(), msg.N))
	}
	dst.Unpack(msg.F)
	putFloats(msg.F)
}

// SendBatch sends len(parts) messages to communicator rank `to` as ONE
// transport operation: parts[i] is the element count of the i-th message,
// and pack — nil for a count-only (volume mode) batch — fills the single
// wire buffer, sum(parts) long, that carries all their payloads in whatever
// layout sender and receiver agree on. The timeline still books one message
// per part (World.FailSend is consulted once per part, in order, before
// anything is booked), which is only exact where no clock moves: the current
// phase must be excluded from timing, or the booking panics. Ownership: the
// wire buffer is the runtime's from lease until the matching RecvBatches
// recycles it (or the abort sweep does); parts stays the caller's and must
// not be modified after the call.
func (c *Comm) SendBatch(to, tag int, parts []int, pack func(wire []float64)) {
	if to < 0 || to >= len(c.members) {
		panic(fmt.Sprintf("smpi: SendBatch to rank %d of %d", to, len(c.members)))
	}
	src, dst := c.WorldRank(), c.members[to]
	if dst == src {
		panic("smpi: SendBatch to self")
	}
	msg := Msg{I: parts, batch: true, sendPhase: *c.phase}
	bytes := make([]int64, len(parts))
	for i, n := range parts {
		bytes[i] = int64(n) * trace.BytesPerElement
		msg.N += n
		if f := c.w.FailSend; f != nil {
			if err := f(src, dst, bytes[i]); err != nil {
				panic(err)
			}
		}
	}
	msg.sendTime = c.w.Trace.RecordSendBatch(src, dst, bytes, msg.sendPhase)
	if pack != nil {
		msg.F, msg.pooled = getFloats(msg.N), true
		pack(msg.F)
	}
	c.w.boxes[dst].put(c.w, msgKey{src: src, comm: c.id, tag: tag}, msg)
}

// RecvBatches takes one SendBatch from each communicator rank of froms, in
// that order, and then books every part as its own delivery. Batch i must
// carry exactly the part list parts[i] — anything else panics, as RecvMat's
// length check does — and, when it has a payload, is handed to unpack, after
// which the wire buffer goes back to the pool (no reference may survive the
// callback). seq fixes the order of the receiver's timeline events across
// senders: seq[k] indexes froms and names the sender whose next unbooked
// part is the k-th delivery; it must consume every part of every batch.
// Like the sends, the deliveries are legal only in a phase excluded from
// timing, and all batches must have been sent under the same one.
func (c *Comm) RecvBatches(froms []int, tag int, parts [][]int, seq []int, unpack func(i int, wire []float64)) {
	if len(froms) == 0 {
		return // nothing to take, and no send-side phase to book under
	}
	me := c.WorldRank()
	stamps := make([]float64, len(froms))
	var phase string
	for i, from := range froms {
		if from < 0 || from >= len(c.members) || c.members[from] == me {
			panic(fmt.Sprintf("smpi: RecvBatches from rank %d of %d", from, len(c.members)))
		}
		msg := c.w.boxes[me].take(c.w, msgKey{src: c.members[from], comm: c.id, tag: tag})
		if !msg.batch || !slices.Equal(msg.I, parts[i]) {
			panic(fmt.Sprintf("smpi: RecvBatches from rank %d expected %d parts, got a different list of %d", from, len(parts[i]), len(msg.I)))
		}
		if i > 0 && msg.sendPhase != phase {
			panic(fmt.Sprintf("smpi: RecvBatches across phases %q and %q", phase, msg.sendPhase))
		}
		stamps[i], phase = msg.sendTime, msg.sendPhase
		if msg.F != nil {
			unpack(i, msg.F)
			putFloats(msg.F)
		}
	}
	next := make([]int, len(froms))
	ds := make([]trace.Delivery, len(seq))
	for k, i := range seq {
		ds[k] = trace.Delivery{
			From:     c.members[froms[i]],
			Bytes:    int64(parts[i][next[i]]) * trace.BytesPerElement,
			SendTime: stamps[i],
		}
		next[i]++
	}
	for i := range next {
		if next[i] != len(parts[i]) {
			panic(fmt.Sprintf("smpi: RecvBatches order books %d of batch %d's %d parts", next[i], i, len(parts[i])))
		}
	}
	c.w.Trace.RecordRecvBatch(me, phase, ds)
}

// SendInts sends integer metadata (metered at 8 bytes per value).
func (c *Comm) SendInts(to, tag int, ids []int) {
	c.Send(to, tag, Msg{I: append([]int(nil), ids...), N: len(ids)})
}

// RecvInts receives integer metadata.
func (c *Comm) RecvInts(from, tag int) []int {
	return c.Recv(from, tag).I
}

const (
	// Tag space layout: caller point-to-point tags must be < tagCollBase.
	tagCollBase = 1 << 30
)

func (c *Comm) nextCollTag() int {
	c.opseq++
	return tagCollBase + c.opseq
}
