package plan

import (
	"sync"
	"sync/atomic"
)

// entry is one cache slot. done is closed exactly once, after which val/err
// are immutable; an entry whose done is still open is an in-flight
// singleflight computation that later arrivals join instead of recomputing.
// memo belongs to the entry: a recomputed key starts with an empty one.
type entry struct {
	done chan struct{}
	val  *Exact
	err  error
	memo Memo
}

// Memo is a completed cache entry's one-shot slot for bytes a caller derives
// from that entry alone, such as cmd/confluxd's encoding of its answer as a
// hit. It holds nothing until the first Set and is never overwritten, so
// every reader sees either nothing or the first bytes stored. It lives and
// dies with its entry: eviction drops it, and the cache's capacity bounds
// how many exist.
type Memo struct{ b atomic.Pointer[[]byte] }

// Bytes returns the stored bytes, or nil before the first Set. They must not
// be modified.
func (m *Memo) Bytes() []byte {
	if p := m.b.Load(); p != nil {
		return *p
	}
	return nil
}

// Set stores b unless bytes are stored already, in which case it does
// nothing: of two racing first Sets, one wins. The caller must not modify b
// afterwards.
func (m *Memo) Set(b []byte) { m.b.CompareAndSwap(nil, &b) }

func (e *entry) completed() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// Cache is an in-memory result cache with singleflight semantics: for each
// key, at most one computation is ever in flight, and every concurrent
// requester for that key shares its outcome. Successful results are cached
// forever (they are pure functions of the key); failures are never cached,
// so transient errors (cancellation, shedding) retry on the next request.
// One mutex guards the map and the counters.
//
// Capacity is maxEntries: at it, a miss evicts completed entries
// arbitrarily (map order) until the new entry fits. In-flight entries are
// never evicted, so while more than maxEntries computations are in flight
// the map holds them all; the first miss after enough of them complete
// brings it back to maxEntries. Arbitrary replacement is deliberate:
// recomputation is cheap relative to serving-tier latency budgets and the
// expected workload is heavily skewed, so anything smarter buys little for
// the bookkeeping it costs.
type Cache struct {
	mu    sync.Mutex
	m     map[string]*entry
	max   int
	stats CacheStats // the counters; Stats fills in Entries
}

// NewCache returns a cache bounded to maxEntries completed results (0
// selects the 64k default).
func NewCache(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = 1 << 16
	}
	return &Cache{m: make(map[string]*entry), max: maxEntries}
}

// begin is the singleflight entry point: it returns the entry for key and
// whether the caller is its owner. Owners must eventually call complete or
// abandon exactly once; non-owners wait on e.done. The three outcomes are
// counted as hit (completed entry), joined (in-flight entry), or miss (new
// entry, caller owns the computation).
func (c *Cache) begin(key string) (e *entry, owner bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok {
		if e.completed() {
			c.stats.Hits++
		} else {
			c.stats.Joined++
		}
		return e, false
	}
	c.stats.Misses++
	for k, old := range c.m {
		if len(c.m) < c.max {
			break
		}
		if old.completed() {
			delete(c.m, k)
			c.stats.Evictions++
		}
	}
	e = &entry{done: make(chan struct{})}
	c.m[key] = e
	return e, true
}

// complete publishes the owner's result and wakes every joiner. Failed
// computations are published to the current joiners but removed from the
// map, so the next arrival retries instead of being pinned to a stale
// error. The removal happens before done is closed: otherwise a begin
// racing between the close and the delete would observe a completed
// error entry as a cache hit.
func (c *Cache) complete(key string, e *entry, val *Exact, err error) {
	if err != nil {
		c.remove(key, e)
	}
	e.val, e.err = val, err
	close(e.done)
}

// lookup returns key's entry, completed or in flight, without counting the
// access.
func (c *Cache) lookup(key string) (*entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	return e, ok
}

// remove deletes key's entry if it is still e.
func (c *Cache) remove(key string, e *entry) {
	c.mu.Lock()
	if c.m[key] == e {
		delete(c.m, key)
	}
	c.mu.Unlock()
}

// Peek returns the completed cached value for key, if any, without joining
// an in-flight computation.
func (c *Cache) Peek(key string) (*Exact, bool) {
	e, ok := c.lookup(key)
	if !ok || !e.completed() || e.err != nil {
		return nil, false
	}
	return e.val, true
}

// Len returns the number of resident entries (completed and in-flight).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Joined    int64 `json:"joined"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = len(c.m)
	return st
}
