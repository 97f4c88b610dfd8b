// Booked exchanges (DESIGN.md §10): one rank, the booker, runs a fixed
// message schedule for every participant. Each other participant fills its
// world rank's slot (row view or operand, phase label), announces it with an
// empty mailbox put and parks once, on the booker's empty reply. The booker
// calls RecordSend/RecordRecv for every message — each rank's records in that
// rank's own program order and with the arguments its own Send/Recv would
// have passed, so every timeline shard sees the sequence it would have seen
// message by message and reports stay bit-identical — moves the data, and
// releases everyone. FailSend is consulted per message, in schedule order,
// and nothing after a refusal is booked: the booker panics with its own
// refused send; a participant's is raised on its release, and the booker
// unwinds with ErrAborted.
package smpi

import (
	"fmt"
	"math/bits"

	"repro/internal/blas"
	"repro/internal/mat"
	"repro/internal/trace"
)

// slot is one world rank's rendezvous state. A rank is in at most one
// rendezvous at a time — it is parked for the rest of it — so one slot per
// world rank serves every communicator the rank belongs to.
type slot struct {
	phase string     // the depositor's phase label at the rendezvous
	row   mat.Matrix // SwapRows: the follower's row, a view of its store
	val   MaxLoc     // AllreduceMaxLoc: the operand in, the result out
	err   error      // a refused send of this rank's, raised on release
}

// deposit announces this rank's filled slot to the booker at communicator
// rank `to` and parks until the booker releases it.
func (c *Comm) deposit(to, tag int) {
	w, me := c.w, c.WorldRank()
	s := &w.slots[me]
	s.phase = *c.phase
	booker := c.members[to]
	w.boxes[booker].put(w, msgKey{src: me, comm: c.id, tag: tag}, Msg{})
	w.boxes[me].take(w, msgKey{src: booker, comm: c.id, tag: tag})
	if s.err != nil {
		panic(s.err) // the world is unwinding; the slot is never reused
	}
}

// collect waits for communicator rank `from`'s deposit and returns its slot.
func (c *Comm) collect(from, tag int) *slot {
	src := c.members[from]
	c.w.boxes[c.WorldRank()].take(c.w, msgKey{src: src, comm: c.id, tag: tag})
	return &c.w.slots[src]
}

// release wakes the participant at communicator rank `to`.
func (c *Comm) release(to, tag int) {
	c.w.boxes[c.members[to]].put(c.w, msgKey{src: c.WorldRank(), comm: c.id, tag: tag}, Msg{})
}

// bookSend books the send of one message from communicator rank from to rank
// to and returns its stamp, or fails it as Send would on the sending rank.
func (c *Comm) bookSend(from, to, tag int, bytes int64) float64 {
	src, dst := c.members[from], c.members[to]
	if f := c.w.FailSend; f != nil {
		if err := f(src, dst, bytes); err != nil {
			if from == c.me {
				panic(err)
			}
			c.w.slots[src].err = err
			c.release(from, tag)
			panic(ErrAborted)
		}
	}
	return c.w.Trace.RecordSend(src, dst, bytes, c.w.slots[src].phase)
}

// bookRecv books the receive that matches a bookSend stamp.
func (c *Comm) bookRecv(from, to int, bytes int64, stamp float64) {
	src := c.members[from]
	c.w.Trace.RecordRecv(src, c.members[to], bytes, c.w.slots[src].phase, stamp)
}

// SwapRows exchanges row, one row of sum(parts) elements, with the
// same-shaped row of communicator rank peer (never c's own): the timeline,
// FailSend and the data end where a per-part ping-pong (lead SendMat then
// RecvMat, follower RecvMat then SendMat) leaves them. Both sides pass the
// same tag and parts and opposite lead flags; the follower parks once, and
// the lead books every message and, in numeric mode, swaps the rows in place.
func (c *Comm) SwapRows(peer, tag int, lead bool, row *mat.Matrix, parts []int) {
	me := &c.w.slots[c.WorldRank()]
	if !lead {
		me.row = *row
		c.deposit(peer, tag)
		return
	}
	o := c.collect(peer, tag)
	total := 0
	for _, n := range parts {
		total += n
	}
	if row.Rows != 1 || o.row.Rows != 1 || row.Cols != total || o.row.Cols != total {
		panic(fmt.Sprintf("smpi: SwapRows of %dx%d and %dx%d rows as %d elements", row.Rows, row.Cols, o.row.Rows, o.row.Cols, total))
	}
	me.phase = *c.phase
	for _, n := range parts {
		b := int64(n) * trace.BytesPerElement
		c.bookRecv(c.me, peer, b, c.bookSend(c.me, peer, tag, b))
		c.bookRecv(peer, c.me, b, c.bookSend(peer, c.me, tag, b))
	}
	if !row.Phantom() {
		blas.Swap(row.Row(0), o.row.Row(0))
	}
	o.row = mat.Matrix{} // hold no reference to its store past the swap
	c.release(peer, tag)
}

// AllreduceMaxLoc returns the globally largest |Val| with its location. The
// schedule is a butterfly of 16-byte messages over ⌊log₂ p⌋ rounds, with a
// fold-in/fan-out step for non-power-of-two sizes (Rabenseifner-style, the
// pattern the paper cites for tournament rounds), every rank combining its
// own value with its partner's; communicator rank 0 books it for everyone.
func (c *Comm) AllreduceMaxLoc(in MaxLoc) MaxLoc {
	tag := c.nextCollTag()
	p := c.Size()
	if p == 1 {
		return in
	}
	me := &c.w.slots[c.WorldRank()]
	if c.me != 0 {
		me.val = in
		c.deposit(0, tag)
		return me.val
	}
	me.phase = *c.phase
	vals := make([]MaxLoc, p) // every rank's running value
	vals[0] = in
	for r := 1; r < p; r++ {
		vals[r] = c.collect(r, tag).val
	}
	pow2 := 1 << (bits.Len(uint(p)) - 1)
	const bytes = 2 * trace.BytesPerElement
	for r := pow2; r < p; r++ { // fold-in: tail ranks into their mirrors
		c.bookRecv(r, r-pow2, bytes, c.bookSend(r, r-pow2, tag, bytes))
		vals[r-pow2] = combineMaxLoc(vals[r-pow2], vals[r])
	}
	for mask := 1; mask < pow2; mask <<= 1 {
		for r := 0; r < pow2; r++ {
			if q := r ^ mask; r < q { // both send, then both receive
				sr, sq := c.bookSend(r, q, tag, bytes), c.bookSend(q, r, tag, bytes)
				c.bookRecv(q, r, bytes, sq)
				c.bookRecv(r, q, bytes, sr)
				vals[r], vals[q] = combineMaxLoc(vals[r], vals[q]), combineMaxLoc(vals[q], vals[r])
			}
		}
	}
	for r := pow2; r < p; r++ { // fan-out to the folded tail
		c.bookRecv(r-pow2, r, bytes, c.bookSend(r-pow2, r, tag, bytes))
		vals[r] = vals[r-pow2]
	}
	for r := 1; r < p; r++ {
		c.w.slots[c.members[r]].val = vals[r]
		c.release(r, tag)
	}
	return vals[0]
}

// combineMaxLoc folds theirs into mine. Loc < 0 marks "no candidate" (a rank
// owning no rows in the searched range) and never wins; equal magnitudes go
// to the lower location.
func combineMaxLoc(mine, theirs MaxLoc) MaxLoc {
	m, t := abs(mine.Val), abs(theirs.Val)
	if mine.Loc < 0 || theirs.Loc >= 0 && (t > m || t == m && theirs.Loc < mine.Loc) {
		return theirs
	}
	return mine
}
