package plan

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCacheSingleflightOwnership: under heavy concurrency exactly one
// caller per key becomes the owner; everyone else joins and observes the
// owner's value after completion.
func TestCacheSingleflightOwnership(t *testing.T) {
	c := NewCache(0)
	const clients = 100
	var owners atomic.Int64
	var wg sync.WaitGroup
	want := &Exact{TotalBytes: 42}
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, owner := c.begin("k")
			if owner {
				owners.Add(1)
				c.complete("k", e, want, nil)
			}
			<-e.done
			if e.val != want || e.err != nil {
				t.Errorf("joiner observed val=%v err=%v", e.val, e.err)
			}
		}()
	}
	wg.Wait()
	if owners.Load() != 1 {
		t.Fatalf("%d owners for one key, want 1", owners.Load())
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits+st.Joined != clients-1 {
		t.Fatalf("stats %+v: want 1 miss and %d hits+joins", st, clients-1)
	}
}

// TestCacheErrorsNotCached: a failed computation is surfaced to its
// waiters but the next begin for the key starts fresh.
func TestCacheErrorsNotCached(t *testing.T) {
	c := NewCache(0)
	boom := errors.New("boom")
	e, owner := c.begin("k")
	if !owner {
		t.Fatal("first begin not owner")
	}
	c.complete("k", e, nil, boom)
	if !errors.Is(e.err, boom) {
		t.Fatalf("waiter error = %v", e.err)
	}
	if _, ok := c.Peek("k"); ok {
		t.Fatal("failed entry still resident")
	}
	if _, owner := c.begin("k"); !owner {
		t.Fatal("retry after failure did not become owner")
	}
}

// TestCacheBounded: capacity is exactly maxEntries under sustained distinct
// keys — filling the cache evicts nothing, and each key past it evicts one
// completed entry. In-flight entries are never evicted, so more of them than
// the capacity all stay resident; once they complete, the next miss evicts
// down to the capacity in one step, and the cache stays there.
func TestCacheBounded(t *testing.T) {
	const capacity, keys = 64, 1000
	key := func(i int) string { return Request{Algorithm: "A", N: i + 1, P: 4}.Key() }
	c := NewCache(capacity)
	for i := 0; i < keys; i++ {
		e, owner := c.begin(key(i))
		if !owner {
			t.Fatalf("key %d: unexpected join", i)
		}
		c.complete(key(i), e, &Exact{TotalBytes: int64(i)}, nil)
		if ev := c.Stats().Evictions; i < capacity && ev != 0 {
			t.Fatalf("key %d: %d evictions before the cache was full", i, ev)
		}
	}
	if n := c.Len(); n != capacity {
		t.Fatalf("cache holds %d entries, capacity %d", n, capacity)
	}
	if ev := c.Stats().Evictions; ev != keys-capacity {
		t.Fatalf("%d evictions, want %d", ev, keys-capacity)
	}

	const small, inFlight = 4, 10
	c = NewCache(small)
	var es []*entry
	for i := 0; i < inFlight; i++ {
		e, _ := c.begin(key(i))
		es = append(es, e)
	}
	if n, ev := c.Len(), c.Stats().Evictions; n != inFlight || ev != 0 {
		t.Fatalf("%d entries in flight: %d resident, %d evicted; want all resident", inFlight, n, ev)
	}
	for i, e := range es {
		c.complete(key(i), e, &Exact{}, nil)
	}
	for i := inFlight; i < inFlight+3; i++ {
		e, _ := c.begin(key(i))
		c.complete(key(i), e, &Exact{}, nil)
		if n := c.Len(); n != small {
			t.Fatalf("miss %d after the in-flight burst: %d resident, capacity %d", i-inFlight+1, n, small)
		}
	}
	if ev := c.Stats().Evictions; ev != inFlight+3-small {
		t.Fatalf("%d evictions, want %d", ev, inFlight+3-small)
	}
}

// TestMemoSetOnce: of many racing first Sets, exactly one value is stored,
// every reader sees it, and later Sets leave it alone.
func TestMemoSetOnce(t *testing.T) {
	var m Memo
	if m.Bytes() != nil {
		t.Fatal("a new memo holds bytes")
	}
	const setters = 16
	seen := make([][]byte, setters)
	var wg sync.WaitGroup
	for i := range setters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Set([]byte{byte(i)})
			seen[i] = m.Bytes()
		}()
	}
	wg.Wait()
	won := m.Bytes()
	if len(won) != 1 {
		t.Fatalf("memo holds %v, want one setter's byte", won)
	}
	for i, b := range seen {
		if string(b) != string(won) {
			t.Fatalf("setter %d read %v after its Set, memo holds %v", i, b, won)
		}
	}
	m.Set([]byte("late"))
	if string(m.Bytes()) != string(won) {
		t.Fatalf("a later Set replaced %v with %v", won, m.Bytes())
	}
}
