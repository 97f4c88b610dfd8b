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
// completed entry.
func TestCacheBounded(t *testing.T) {
	const capacity, keys = 64, 1000
	c := NewCache(capacity)
	for i := 0; i < keys; i++ {
		key := Request{Algorithm: "A", N: i + 1, P: 4}.Key()
		e, owner := c.begin(key)
		if !owner {
			t.Fatalf("key %d: unexpected join", i)
		}
		c.complete(key, e, &Exact{TotalBytes: int64(i)}, nil)
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
}
