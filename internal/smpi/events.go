// The discrete-event executor: ranks advance in clock-ordered windows —
// one rank at a time when workers == 1, a concurrent batch of the W
// earliest ready ranks when workers > 1 (see DESIGN.md §11–§12).
//
// The goroutine executor gives every rank a live goroutine parked on a
// mailbox condvar. The event executor keeps the rank bodies exactly as
// written — ordinary imperative RankFuncs — but turns the goroutines into
// coroutines: a baton-passing discipline guarantees at most `workers` ranks
// execute at any instant, and control moves by explicit yields. It is not
// the default: every recorded replay, up to P = 4096, runs faster on
// goroutines (EXPERIMENTS.md, "Executors"); it stays as the second,
// independently scheduled implementation the parity suites compare against.
//
//   - A rank runs until its Recv finds nothing on its stream. It then yields:
//     it registers the key it awaits on its mailbox, sends evBlocked to the
//     scheduler, and parks on its private resume channel.
//   - The scheduler pops the ready ranks with the smallest (logical clock,
//     rank) pairs from a binary min-heap — conservative discrete-event
//     scheduling: always advance the ranks whose simulated present is
//     earliest — hands each a baton, and collects exactly one yield event
//     per resumed rank from the shared event channel before opening the
//     next window (the window barrier).
//   - A send into a mailbox whose owner is parked awaiting that exact key
//     re-arms the owner: directly onto the ready heap when the sender is
//     the sole baton holder (workers == 1), or onto a mutex-guarded wake
//     list merged into the heap at the window barrier (workers > 1) —
//     while ranks run concurrently, nothing but the wake list and the
//     mailboxes is shared. Sends never block, so a sender keeps its baton.
//
// With workers == 1 only the baton holder touches world state, so mailbox
// access needs no mutex in event mode and every handoff crosses a
// channel — the channel's happens-before edge is what makes the lock-free
// access sound (and race-detector clean). With workers > 1 the ranks of a
// window run truly concurrently and mailbox access takes the per-mailbox
// mutex (see mailbox.go); the window barrier's channel receives give the
// scheduler a happens-before edge over everything the window's ranks did.
// Determinism needs no scheduling argument at all: per-rank clocks and
// volume are pure functions of each rank's program order plus FIFO
// per-(src, comm, tag) matching, identical under any executor and any
// worker count — the clock-ordered heap is a performance policy (it bounds
// mailbox occupancy by draining the causally-earliest ranks first), not a
// correctness requirement.
//
// A window resume may be spurious: a rank woken by a put while it was
// being resumed anyway consumes the message during its window, parks on a
// later key, and its stale wake entry resumes it once more with nothing
// matched. The rank rescans its mailbox, finds no match, and re-parks — a
// wasted handoff, never a wrong result. Entries for ranks that are not
// parked (still running — impossible between windows — or done) are
// dropped at pop time.
//
// An empty ready heap with live ranks is a schedule deadlock. The scheduler
// does not fail fast: it parks on abortCh until World.Abort fires (from a
// run timeout, a context cancellation, or a failing rank), matching the
// goroutine executor's semantics, where deadlock is detected by deadline.
// The abort unwind then resumes every parked rank with a false baton, which
// the blocked take turns into an ErrAborted panic.
//
// Scheduler state (baton channels, rank states, heap backing) is pooled
// across runs: a sweep replays thousands of worlds, and P resume channels
// per world was a measurable slice of the per-run allocation bill.
package smpi

import (
	"errors"
	"sync"
)

type eventScheduler struct {
	w *World
	// workers is the window width: how many ready ranks run concurrently
	// between barriers. 1 (the default) is the serial baton discipline
	// with zero locking on the mailbox fast path.
	workers int
	states  []rankState

	// events carries yields from running ranks to the scheduler;
	// unbuffered, so a yield is also a baton handoff.
	events chan schedEvent

	// ready is a hand-rolled binary min-heap of (clock, rank) pairs —
	// container/heap would box every push through an interface, and the
	// heap churns once per blocked receive. Only the scheduler (or, with
	// workers == 1, the sole baton holder) touches it, so it is unlocked.
	ready []readyItem

	// wakes collects ranks re-armed by puts inside a concurrent window
	// (workers > 1); the scheduler merges it into the heap at the window
	// barrier, when no rank runs. Guarded by wakeMu, the only lock ranks
	// of the same window contend on outside their mailboxes.
	wakeMu sync.Mutex
	wakes  []int

	abortCh   chan struct{}
	abortOnce sync.Once
}

type rankState struct {
	// resume is the rank's private baton: true = run, false = the world
	// aborted while you were parked, unwind now.
	resume chan bool
	done   bool
	// parked is the scheduler's book: true while the rank waits on its
	// resume channel. A heap entry for a non-parked rank is stale (the
	// rank was resumed by the window that was open when its wake landed)
	// and is dropped at pop time.
	parked bool
}

type schedEvent struct {
	rank int
	kind eventKind
	err  error // evDone only
}

type eventKind uint8

const (
	evBlocked eventKind = iota // rank parked awaiting a mailbox key
	evDone                     // rank returned (err) or unwound (ErrAborted)
)

type readyItem struct {
	clock float64
	rank  int
}

// schedPool recycles scheduler state (rank states with their baton
// channels, the heap and wake backings, the event channel) across runs.
var schedPool = sync.Pool{New: func() any { return new(eventScheduler) }}

func newEventScheduler(w *World, workers int) *eventScheduler {
	if workers < 1 {
		workers = 1
	}
	if workers > w.P {
		workers = w.P
	}
	s := schedPool.Get().(*eventScheduler)
	s.w = w
	s.workers = workers
	if cap(s.states) >= w.P {
		s.states = s.states[:w.P]
	} else {
		old := s.states[:cap(s.states)]
		s.states = make([]rankState, w.P)
		copy(s.states, old) // keep already-made baton channels
	}
	for r := range s.states {
		if s.states[r].resume == nil {
			s.states[r].resume = make(chan bool)
		}
		s.states[r].done = false
		// Every rank goroutine parks for its first baton immediately.
		s.states[r].parked = true
	}
	if s.events == nil {
		s.events = make(chan schedEvent)
	}
	if cap(s.ready) < w.P {
		s.ready = make([]readyItem, 0, w.P)
	}
	s.ready = s.ready[:0]
	s.wakes = s.wakes[:0]
	// A fresh abort latch per run; the rest of the state is reusable
	// because run() returns only after every rank goroutine has exited.
	s.abortCh = make(chan struct{})
	s.abortOnce = sync.Once{}
	return s
}

// release returns the scheduler's state to the pool. The caller must
// guarantee no goroutine can still reach s — in Exec that means the run
// has returned (all rank goroutines sent their evDone) and the context
// watcher has been joined (it calls signalAbort through w.sched).
func (s *eventScheduler) release() {
	s.w = nil
	schedPool.Put(s)
}

// signalAbort wakes a scheduler parked on an all-ranks-blocked deadlock.
// Safe to call from any goroutine, any number of times.
func (s *eventScheduler) signalAbort() {
	s.abortOnce.Do(func() { close(s.abortCh) })
}

// run executes fn on every rank under the window discipline and returns the
// per-rank errors (ErrAborted for ranks unwound by an abort). It returns
// only after every rank goroutine has finished.
func (s *eventScheduler) run(fn RankFunc) []error {
	errs := make([]error, s.w.P)
	for r := 0; r < s.w.P; r++ {
		go s.rankMain(r, fn)
	}
	// All clocks start at zero, so the initial heap order is rank order.
	for r := 0; r < s.w.P; r++ {
		s.push(readyItem{clock: 0, rank: r})
	}
	live := s.w.P
	for live > 0 {
		if s.w.aborted.Load() {
			// Unwind: hand every parked rank a false baton, sequentially.
			// Between windows every live rank is parked. Blocked takes
			// panic ErrAborted without yielding again (take rechecks the
			// abort flag before every yield), so each resume is answered
			// by that rank's evDone.
			for r := range s.states {
				if s.states[r].done {
					continue
				}
				s.states[r].resume <- false
				ev := <-s.events
				s.states[ev.rank].done = true
				errs[ev.rank] = ev.err
				live--
			}
			continue // live is now 0
		}
		if len(s.ready) == 0 {
			// Schedule deadlock: every live rank awaits a message nobody
			// can send. Park until an abort (run timeout, context
			// cancellation) resolves it — deadline detection is the
			// caller's policy, exactly as under the goroutine executor.
			<-s.abortCh
			continue
		}
		// Open a window: resume up to `workers` earliest parked ranks.
		running := 0
		for running < s.workers && len(s.ready) > 0 {
			next := s.pop()
			st := &s.states[next.rank]
			if st.done || !st.parked {
				continue // stale entry
			}
			st.parked = false
			st.resume <- true
			running++
		}
		// Barrier: exactly one yield event per resumed rank.
		for i := 0; i < running; i++ {
			ev := <-s.events
			if ev.kind == evDone {
				s.states[ev.rank].done = true
				errs[ev.rank] = ev.err
				live--
				if ev.err != nil && !errors.Is(ev.err, ErrAborted) {
					s.w.Abort()
				}
				continue
			}
			// evBlocked: the rank registered its awaited key on its
			// mailbox before yielding; a matching put re-arms it.
			s.states[ev.rank].parked = true
		}
		s.mergeWakes()
	}
	return errs
}

// mergeWakes moves the wake list into the ready heap. Called only at the
// window barrier, when no rank runs, so reading a woken rank's clock (its
// own trace shard) is stable; the lock is still taken because the race
// detector cannot see the barrier.
func (s *eventScheduler) mergeWakes() {
	if s.workers == 1 {
		return // puts push directly; the wake list is never used
	}
	s.wakeMu.Lock()
	for _, r := range s.wakes {
		s.push(readyItem{clock: s.w.Trace.Clock(r), rank: r})
	}
	s.wakes = s.wakes[:0]
	s.wakeMu.Unlock()
}

// rankMain is the body of one rank coroutine: park for the first baton,
// run fn with the same panic conversion as the goroutine executor, report
// evDone. A false first baton means the world aborted before this rank
// ever ran.
func (s *eventScheduler) rankMain(rank int, fn RankFunc) {
	if !<-s.states[rank].resume {
		s.events <- schedEvent{rank: rank, kind: evDone, err: ErrAborted}
		return
	}
	var err error
	func() {
		defer func() {
			if rec := recover(); rec != nil {
				err = panicError(rank, rec)
			}
		}()
		err = fn(WorldComm(s.w, rank))
	}()
	s.events <- schedEvent{rank: rank, kind: evDone, err: err}
}

// yieldBlocked hands the baton back to the scheduler and parks until the
// rank is resumed. Returns the baton value: false means the world aborted
// while parked and the caller must unwind.
func (s *eventScheduler) yieldBlocked(rank int) bool {
	s.events <- schedEvent{rank: rank, kind: evBlocked}
	return <-s.states[rank].resume
}

// makeReady re-arms a parked rank whose awaited key just matched. With
// workers == 1 the caller is the sole baton holder and pushes straight
// onto the heap at the rank's current logical clock. With workers > 1 the
// caller is one of several concurrently running ranks, so the wake goes to
// the mutex-guarded wake list; the scheduler merges it at the barrier.
func (s *eventScheduler) makeReady(rank int) {
	if s.workers > 1 {
		s.wakeMu.Lock()
		s.wakes = append(s.wakes, rank)
		s.wakeMu.Unlock()
		return
	}
	s.push(readyItem{clock: s.w.Trace.Clock(rank), rank: rank})
}

func readyLess(a, b readyItem) bool {
	if a.clock != b.clock {
		return a.clock < b.clock
	}
	return a.rank < b.rank
}

func (s *eventScheduler) push(it readyItem) {
	s.ready = append(s.ready, it)
	i := len(s.ready) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !readyLess(s.ready[i], s.ready[parent]) {
			break
		}
		s.ready[i], s.ready[parent] = s.ready[parent], s.ready[i]
		i = parent
	}
}

func (s *eventScheduler) pop() readyItem {
	top := s.ready[0]
	last := len(s.ready) - 1
	s.ready[0] = s.ready[last]
	s.ready = s.ready[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < len(s.ready) && readyLess(s.ready[l], s.ready[least]) {
			least = l
		}
		if r < len(s.ready) && readyLess(s.ready[r], s.ready[least]) {
			least = r
		}
		if least == i {
			return top
		}
		s.ready[i], s.ready[least] = s.ready[least], s.ready[i]
		i = least
	}
}
