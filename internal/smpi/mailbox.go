// Mailboxes: one short list per rank, shaped by what the traffic is.
//
// Measured on the benchmark's two replays (LibSci / COnfLUX at P = 256,
// 479 k + 125 k takes; EXPERIMENTS.md, "Where a replay's time goes"): no
// stream — one (src, comm, tag) triple — ever held two messages at a take,
// the whole mailbox was empty at 54% / 54% of takes and held at most 7
// entries at 99.9% / 99.6% of them, the receiver arrived before its message
// 75% / 59% of the time, and a match sat at the head of the list 68% / 84% of
// the time. So a mailbox is ONE slice of (key, message) pairs in arrival
// order. A take scans it oldest-first for its key — which is per-stream FIFO
// by construction — and a put appends; no map, no hashing, no per-stream
// queue to lease and recycle, nothing that outlives the message. The one long
// list a replay builds is the collect root's, one batch per owner: ≈ 250
// deep at P = 256, 170 at the paper-scale P = 1,024 (the root drains while
// the owners finish), taken once.
//
// A mailbox has exactly one owner rank, so at most one receiver is ever
// parked on it. It registers the stream it awaits (waiting/want) and the put
// that matches wakes it — a put on any other stream leaves it asleep, where a
// broadcast made one wake-up in ten spurious.
//
// Payload ownership: a slice handed to Send belongs to the runtime until the
// matching Recv returns it to the receiving rank; only SendMat/RecvMat —
// which pack on send and copy out on receive — lease and recycle wire
// buffers (mat.GetFloats), SendBatch/RecvBatches hand a pool-able buffer from
// sender to receiver, and phantom messages carry none, so a
// volume-mode delivery allocates nothing once the list has grown to the
// mailbox's working depth. Raw Send/Recv callers (collectives carrying
// metadata, Recv callers that retain an int payload) keep ordinary Go
// ownership.
package smpi

import "sync"

// pending is one delivered, not yet received message.
type pending struct {
	key msgKey
	msg Msg
}

type mailbox struct {
	mu   sync.Mutex
	cond sync.Cond // on mu; goroutine executor only

	// pend holds the in-flight messages in arrival order.
	pend []pending

	// rank is the owning world rank (a mailbox belongs to exactly one).
	rank int
	// Wait registration: while the owner is parked awaiting a message,
	// waiting is true and want names the stream; the put that matches it
	// clears waiting and wakes the owner — the condvar under the goroutine
	// executor, the scheduler's ready heap under the event executor.
	//
	// Locking rule for everything above. Goroutine executor, and event
	// executor with a concurrent window (workers > 1): the owner and its
	// senders run simultaneously, so every access holds mu — a sender
	// touches nothing of the owner's but this mailbox. Event executor with
	// one worker: only the baton holder runs, the scheduler's channel
	// handoffs are the happens-before edges, and no lock is taken (see
	// events.go and DESIGN.md §12).
	waiting bool
	want    msgKey
}

func newMailbox(rank int) *mailbox {
	mb := &mailbox{rank: rank}
	mb.cond.L = &mb.mu
	return mb
}

// locks reports whether mailbox access under w's executor takes mu.
func (w *World) locks() bool { return w.sched == nil || w.sched.workers > 1 }

// put appends m to the list and, if the owner is parked on exactly this
// stream, wakes it (once — later deliveries find waiting cleared). Sends
// never block.
func (mb *mailbox) put(w *World, k msgKey, m Msg) {
	locks := w.locks()
	if locks {
		mb.mu.Lock()
	}
	mb.pend = append(mb.pend, pending{key: k, msg: m})
	if mb.waiting && mb.want == k {
		mb.waiting = false
		if s := w.sched; s != nil {
			s.makeReady(mb.rank)
		} else {
			mb.cond.Signal()
		}
	}
	if locks {
		mb.mu.Unlock()
	}
}

// take blocks until a message on stream k is pending and removes the oldest.
// An empty-handed receiver registers k and parks: on the condvar, or — event
// executor — by yielding its baton to the scheduler, with mu released across
// the yield (the scheduler may be mid-barrier, and a sender of this window
// could need the lock to complete, and thereby to yield, first). The abort
// flag is checked before every park, so an unwinding world never re-parks a
// rank, and a false baton unwinds at once even if a message raced the abort
// in: it stays on the list for the post-run sweep to return its buffer.
// World.Abort explains why its broadcast must hold mu.
func (mb *mailbox) take(w *World, k msgKey) Msg {
	s, locks := w.sched, w.locks()
	if locks {
		mb.mu.Lock()
		defer mb.mu.Unlock()
	}
	for {
		for i := range mb.pend {
			if mb.pend[i].key == k {
				return mb.pop(i)
			}
		}
		if w.aborted.Load() {
			panic(ErrAborted)
		}
		mb.waiting, mb.want = true, k
		resumed := true
		switch {
		case s == nil:
			mb.cond.Wait()
		case locks:
			mb.mu.Unlock()
			resumed = s.yieldBlocked(mb.rank)
			mb.mu.Lock()
		default:
			resumed = s.yieldBlocked(mb.rank)
		}
		mb.waiting = false
		if !resumed {
			panic(ErrAborted)
		}
	}
}

// pop removes pend[i], keeping the rest in arrival order. Caller holds mu
// (or the sole baton).
func (mb *mailbox) pop(i int) Msg {
	m := mb.pend[i].msg
	last := len(mb.pend) - 1
	copy(mb.pend[i:], mb.pend[i+1:])
	mb.pend[last] = pending{} // release payload references to the GC
	mb.pend = mb.pend[:last]
	return m
}
