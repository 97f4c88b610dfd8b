package trace

import (
	"reflect"
	"sync"
	"testing"
	"unsafe"
)

// stamped is a message in flight in the stress schedule below: the metered
// byte count plus the sender's injection stamp, exactly what smpi carries.
type stamped struct {
	bytes int64
	st    Stamp
}

// runStressSchedule executes a fixed deterministic schedule on tl: every
// rank injects `rounds` sends (one per peer offset, mixed timed/untimed
// phases), then matches its inbound messages in fixed order. When concurrent
// is true each rank runs on its own goroutine and records on the timeline
// concurrently with every other — each on its own shard, as under the
// goroutine executor; when false the same per-rank program orders execute
// single-threaded, as the pre-shard global-mutex timeline would have
// serialized them.
func runStressSchedule(tl *Timeline, p, rounds int, concurrent bool) {
	phases := []string{"panel", "update", "layout"} // layout is untimed
	type key struct{ from, to int }
	ch := map[key]chan stamped{}
	for f := 0; f < p; f++ {
		for t := 0; t < p; t++ {
			ch[key{f, t}] = make(chan stamped, rounds)
		}
	}
	sendPhase := func(r int) {
		for k := 0; k < rounds; k++ {
			to := (r + 1 + k%(p-1)) % p
			ph := phases[k%len(phases)]
			bytes := int64(8 * (1 + (r+k)%7))
			st := tl.Send(r, to, bytes, ph)
			ch[key{r, to}] <- stamped{bytes: bytes, st: st}
		}
	}
	recvPhase := func(r int) {
		for k := 0; k < rounds; k++ {
			// Mirror of the send pattern: in round k every rank targets
			// offset 1 + k%(p-1), so exactly one message arrives per round,
			// from the rank that offset maps back to. Matching in k order
			// fixes this rank's program order.
			from := (r - 1 - k%(p-1) + 2*p) % p
			m := <-ch[key{from, r}]
			tl.Recv(from, r, m.bytes, phases[k%len(phases)], m.st)
		}
	}
	if !concurrent {
		for r := 0; r < p; r++ {
			sendPhase(r)
		}
		for r := 0; r < p; r++ {
			recvPhase(r)
		}
		return
	}
	var wg sync.WaitGroup
	var barrier sync.WaitGroup
	barrier.Add(p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			sendPhase(rank)
			barrier.Done()
			barrier.Wait() // all sends buffered before anyone matches
			recvPhase(rank)
		}(r)
	}
	wg.Wait()
}

// TestShardedTimelineDeterministicUnderConcurrency pins the tentpole
// guarantee of the shard refactor: with deliveries racing across all rank
// pairs, the recorded schedule (every timed delivery's peer, size, phase and
// matched send, in each rank's program order), the full Report (volume and
// time, bitwise on every float), and the makespan are identical across
// repeated concurrent runs AND identical to the single-threaded execution of
// the same schedule — the pre-shard fixture, since a global-mutex timeline
// serializing a sequential caller records exactly that. Run under -race in
// CI, this also proves the lock-free shards race-free: each is written by
// one goroutine, and read only after the join.
func TestShardedTimelineDeterministicUnderConcurrency(t *testing.T) {
	const p, rounds, reps = 8, 48, 10
	m := DefaultMachine()

	fixture := NewTimeline(p, m)
	fixture.Record()
	runStressSchedule(fixture, p, rounds, false)
	wantReport := fixture.Report()
	if fixture.ScheduleBytes() == 0 || wantReport.TotalBytes() == 0 {
		t.Fatal("degenerate fixture: schedule produced no traffic")
	}

	for rep := 0; rep < reps; rep++ {
		tl := NewTimeline(p, m)
		tl.Record()
		runStressSchedule(tl, p, rounds, true)
		if d := tl.ScheduleDiff(fixture); d != "" {
			t.Fatalf("rep %d: schedule differs from the fixture: %s", rep, d)
		}
		got := tl.Report()
		if got.Time.Makespan != wantReport.Time.Makespan {
			t.Fatalf("rep %d: makespan %v (not bit-identical to fixture %v)",
				rep, got.Time.Makespan, wantReport.Time.Makespan)
		}
		if !reflect.DeepEqual(got, wantReport) {
			t.Fatalf("rep %d: report diverged from fixture:\n got %+v\nwant %+v", rep, got, wantReport)
		}
	}
}

// TestShardSizeCacheAligned pins the padding arithmetic: the shard struct
// must stay a multiple of the 64-byte cache line so adjacent shards in the
// timeline's backing array never false-share. If a field is added, resize
// the trailing pad.
func TestShardSizeCacheAligned(t *testing.T) {
	if sz := unsafe.Sizeof(shard{}); sz%64 != 0 {
		t.Fatalf("shard is %d bytes, not a cache-line multiple; adjust the pad", sz)
	}
}

// TestShardedEndpointIsolation pins the single-writer promise: a send
// writes only the sender's shard and its receive only the receiver's, so a
// delivery between ranks 1 and 2 leaves every other rank's shard untouched —
// no clock movement, no volume — and until rank 2 matches, rank
// 2's shard is untouched too. That is what lets the shards go without a lock.
func TestShardedEndpointIsolation(t *testing.T) {
	tl := NewTimeline(4, Machine{Alpha: 1, Beta: 0.5})
	untouched := func(r *Report, ranks ...int) {
		t.Helper()
		for _, other := range ranks {
			if r.Sent[other] != 0 || r.Recv[other] != 0 || r.Msgs[other] != 0 ||
				r.Time.Clock[other] != 0 || r.Time.Busy[other] != 0 || r.Time.Wait[other] != 0 {
				t.Fatalf("rank %d shard touched: %+v", other, r)
			}
		}
	}
	st := tl.RecordSend(1, 2, 10, "p")
	untouched(tl.Report(), 0, 2, 3)
	tl.RecordRecv(1, 2, 10, "p", st)
	r := tl.Report()
	untouched(r, 0, 3)
	if r.Sent[1] != 10 || r.Recv[1] != 0 || r.Sent[2] != 0 || r.Recv[2] != 10 {
		t.Fatalf("endpoint aggregates wrong: %+v", r)
	}
}
