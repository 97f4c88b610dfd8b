// Mailboxes and buffer pools: the allocation-conscious core of the runtime.
//
// Delivery cost at paper scale (P = 1,024 ranks, tens of millions of
// messages) is dominated by three churn sources this file eliminates:
//
//   - map traffic: the queue map is hashed once per put and once per take —
//     the matched-receive wait loop holds the *msgQueue pointer across
//     wakeups instead of re-indexing the map, and a drained key is deleted
//     immediately (empty-queue reclamation), so a long-lived world's maps
//     stay at the size of its in-flight traffic, not its history;
//   - queue storage: emptied msgQueue carcasses (struct + backing array)
//     are recycled through a sync.Pool instead of being re-grown from nil
//     for every (src, comm, tag) stream;
//   - payload storage: SendMat/RecvMat and the batches lease wire buffers from
//     size-classed sync.Pools (see pool.go); phantom messages carry none —
//     the volume-mode fast path enqueues a plain Msg value, allocating
//     nothing in steady state.
//
// Ownership rule: a payload slice handed to Send belongs to the runtime
// until the matching Recv returns it to the receiving rank; only
// SendMat/RecvMat and SendBatch/RecvBatches — which pack on send and copy
// out on receive — recycle wire buffers, so raw Send/Recv callers
// (collectives carrying metadata, RecvInts callers that retain the slice)
// keep ordinary Go ownership.
package smpi

import "sync"

// msgQueue is one (src, comm, tag) FIFO: messages in buf[head:]. The struct
// and its backing array are pooled; see take for the recycle point.
type msgQueue struct {
	buf  []Msg
	head int
}

var queuePool = sync.Pool{New: func() any { return new(msgQueue) }}

type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	q    map[msgKey]*msgQueue
	// waiters counts goroutines blocked in take (at most one in practice:
	// a mailbox belongs to one rank). put only signals when someone waits,
	// so the common deliver-before-receive case never touches the cond.
	waiters int
	// free is a one-slot queue cache in front of queuePool: a mailbox
	// cycles through one hot key at a time, and unlike the shared pool
	// this slot survives GC cycles (allocation-heavy replays collect
	// often enough to wipe sync.Pools mid-run).
	free *msgQueue

	// rank is the owning world rank (a mailbox belongs to exactly one).
	rank int
	// Event-executor wait registration: when the owner is parked in the
	// scheduler awaiting a message, evWaiting is true and evKey names the
	// stream it awaits; the put that matches evKey re-arms the owner. With
	// one worker these fields are written by the owner before yielding and
	// read by the sender after taking the baton — the scheduler's channel
	// handoffs provide the happens-before edges, so no lock is needed.
	// With a concurrent window (workers > 1) the owner and its senders can
	// run simultaneously, so every access goes under mb.mu — the ownership
	// rule is: one mailbox, one owner rank, and a sender touches nothing
	// of the owner's but this mailbox (see events.go and DESIGN.md §12).
	evWaiting bool
	evKey     msgKey
}

func newMailbox(rank int) *mailbox {
	mb := &mailbox{q: make(map[msgKey]*msgQueue), rank: rank}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

// queueLocked returns the FIFO for k, leasing a recycled one if the key is
// new. Caller holds mb.mu — or holds the event scheduler's baton, which
// serializes all mailbox access in that mode.
func (mb *mailbox) queueLocked(k msgKey) *msgQueue {
	q := mb.q[k]
	if q == nil {
		if q = mb.free; q != nil {
			mb.free = nil
		} else {
			q = queuePool.Get().(*msgQueue)
		}
		mb.q[k] = q
	}
	return q
}

// reclaimLocked deletes a drained key and recycles its queue. Caller holds
// mb.mu (or the event baton) and guarantees q is empty.
func (mb *mailbox) reclaimLocked(k msgKey, q *msgQueue) {
	delete(mb.q, k)
	q.buf = q.buf[:0]
	q.head = 0
	if mb.free == nil {
		mb.free = q
	} else {
		queuePool.Put(q)
	}
}

func (mb *mailbox) put(w *World, k msgKey, m Msg) {
	if s := w.sched; s != nil {
		if s.workers > 1 {
			// Concurrent window: the owner (or another sender in the same
			// window) may be touching this mailbox right now.
			mb.mu.Lock()
			q := mb.queueLocked(k)
			q.buf = append(q.buf, m)
			if mb.evWaiting && mb.evKey == k {
				mb.evWaiting = false
				s.makeReady(mb.rank)
			}
			mb.mu.Unlock()
			return
		}
		// Serial event mode: the caller holds the sole baton, so access is
		// exclusive and lock-free. If the owner is parked awaiting exactly
		// this stream, re-arm it on the ready heap (once — further
		// deliveries find evWaiting already cleared).
		q := mb.queueLocked(k)
		q.buf = append(q.buf, m)
		if mb.evWaiting && mb.evKey == k {
			mb.evWaiting = false
			s.makeReady(mb.rank)
		}
		return
	}
	mb.mu.Lock()
	q := mb.queueLocked(k)
	q.buf = append(q.buf, m)
	if mb.waiters > 0 {
		mb.cond.Broadcast()
	}
	mb.mu.Unlock()
}

// take blocks until a message under k is available and pops it. The queue
// pointer is resolved once; the wait loop re-checks only its length. On
// abort the pending take panics with ErrAborted (see World.Abort for why
// the goroutine-mode wake-up broadcast must hold this mutex).
func (mb *mailbox) take(w *World, k msgKey) Msg {
	if s := w.sched; s != nil {
		return mb.takeEvent(w, s, k)
	}
	mb.mu.Lock()
	defer mb.mu.Unlock()
	q := mb.queueLocked(k)
	for q.head >= len(q.buf) {
		if w.aborted.Load() {
			// Don't strand the just-leased empty queue on the dead world.
			mb.reclaimLocked(k, q)
			panic(ErrAborted)
		}
		mb.waiters++
		mb.cond.Wait()
		mb.waiters--
	}
	return mb.popLocked(k, q)
}

// takeEvent is take under the event executor: instead of parking on the
// condvar, the rank registers the awaited key and yields the baton; the
// matching put re-arms it. The abort flag is rechecked before every yield
// so an unwinding world never re-parks a rank. On the abort paths the
// just-leased queue is recycled only if it is still empty — a wake can
// race an abort, and a non-empty queue must stay in the map for the
// post-run reclaim sweep to return its pooled payloads.
func (mb *mailbox) takeEvent(w *World, s *eventScheduler, k msgKey) Msg {
	if s.workers > 1 {
		return mb.takeEventConcurrent(w, s, k)
	}
	q := mb.queueLocked(k)
	for q.head >= len(q.buf) {
		if w.aborted.Load() {
			mb.reclaimLocked(k, q)
			panic(ErrAborted)
		}
		mb.evWaiting = true
		mb.evKey = k
		ok := s.yieldBlocked(mb.rank)
		mb.evWaiting = false
		if !ok {
			if q.head >= len(q.buf) {
				mb.reclaimLocked(k, q)
			}
			panic(ErrAborted)
		}
	}
	return mb.popLocked(k, q)
}

// takeEventConcurrent is takeEvent for a concurrent window: identical
// protocol, but the wait registration and queue access interleave with
// same-window senders, so each step holds mb.mu. The yield itself must
// not: the scheduler may be mid-barrier and a sender of this window could
// need the lock to complete (and thereby to yield) first.
func (mb *mailbox) takeEventConcurrent(w *World, s *eventScheduler, k msgKey) Msg {
	mb.mu.Lock()
	q := mb.queueLocked(k)
	for q.head >= len(q.buf) {
		if w.aborted.Load() {
			mb.reclaimLocked(k, q)
			mb.mu.Unlock()
			panic(ErrAborted)
		}
		mb.evWaiting = true
		mb.evKey = k
		mb.mu.Unlock()
		ok := s.yieldBlocked(mb.rank)
		mb.mu.Lock()
		mb.evWaiting = false
		if !ok {
			if q.head >= len(q.buf) {
				mb.reclaimLocked(k, q)
			}
			mb.mu.Unlock()
			panic(ErrAborted)
		}
	}
	m := mb.popLocked(k, q)
	mb.mu.Unlock()
	return m
}

// popLocked removes the head message, reclaiming the queue if that drained
// it. Caller holds mb.mu (or the event baton) and guarantees q is
// non-empty.
func (mb *mailbox) popLocked(k msgKey, q *msgQueue) Msg {
	m := q.buf[q.head]
	q.buf[q.head] = Msg{} // release payload references to the GC
	q.head++
	if q.head == len(q.buf) {
		mb.reclaimLocked(k, q)
	}
	return m
}
