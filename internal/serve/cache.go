package serve

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"zerotune/internal/gnn"
	"zerotune/internal/obs"
)

// Cache is a bounded LRU over plan fingerprints with single-flight
// semantics: the first request for a fingerprint becomes the leader and
// computes the prediction; identical requests arriving while it is in
// flight attach to the same entry and wait instead of spending a second
// forward pass. Completed entries stay resident (LRU-evicted beyond the
// size bound) until the model is swapped, which invalidates the whole
// cache via a generation bump.
type Cache struct {
	mu  sync.Mutex
	max int
	gen uint64
	m   map[Fingerprint]*CacheEntry
	ll  *list.List // completed entries, front = most recently used

	counters CacheCounters
}

// CacheCounters are the cache's observable counters. The zero-value-free
// constructor NewCache uses private unregistered counters; the server
// injects counters registered on its metrics registry, so cache behavior
// shows up on /metrics without the cache knowing about the registry.
type CacheCounters struct {
	Hits      *obs.Counter // completed-entry lookups
	Coalesced *obs.Counter // joins on an in-flight leader
	Misses    *obs.Counter
	Evictions *obs.Counter
}

// orDefaults fills missing counters with unregistered ones.
func (cc CacheCounters) orDefaults() CacheCounters {
	if cc.Hits == nil {
		cc.Hits = obs.NewCounter()
	}
	if cc.Coalesced == nil {
		cc.Coalesced = obs.NewCounter()
	}
	if cc.Misses == nil {
		cc.Misses = obs.NewCounter()
	}
	if cc.Evictions == nil {
		cc.Evictions = obs.NewCounter()
	}
	return cc
}

// CacheEntry is one fingerprint's slot, handed out by Acquire. done is
// closed once pred/err are valid; elem is non-nil only while the entry is
// resident in the LRU list.
type CacheEntry struct {
	key  Fingerprint
	gen  uint64
	done chan struct{}
	pred gnn.Prediction
	err  error
	elem *list.Element
}

// NewCache builds a cache bounded to max completed entries (min 1).
func NewCache(max int) *Cache {
	return NewCacheWithCounters(max, CacheCounters{})
}

// NewCacheWithCounters is NewCache with externally registered counters.
func NewCacheWithCounters(max int, cc CacheCounters) *Cache {
	if max < 1 {
		max = 1
	}
	return &Cache{max: max, m: make(map[Fingerprint]*CacheEntry), ll: list.New(),
		counters: cc.orDefaults()}
}

// Acquire looks up key. leader=true means the caller owns the computation
// and must call Complete exactly once; leader=false means the entry is (or
// will be) filled by someone else — Wait on it.
func (c *Cache) Acquire(key Fingerprint) (e *CacheEntry, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok {
		if e.Filled() {
			c.counters.Hits.Inc()
			if e.elem != nil {
				c.ll.MoveToFront(e.elem)
			}
		} else {
			c.counters.Coalesced.Inc()
		}
		return e, false
	}
	c.counters.Misses.Inc()
	e = &CacheEntry{key: key, gen: c.gen, done: make(chan struct{})}
	c.m[key] = e
	return e, true
}

// Complete publishes the leader's result and inserts the entry into the
// LRU (unless it errored or the cache was cleared since Acquire), evicting
// the least recently used entries beyond the bound. A leader error is
// published to waiting followers wrapped in ErrStaleEntry (the leader
// itself already holds the raw error), so the serving layer can distinguish
// "retry the acquire" from a result.
func (c *Cache) Complete(e *CacheEntry, pred gnn.Prediction, err error) {
	e.pred = pred
	if err != nil {
		e.err = fmt.Errorf("%w: %v", ErrStaleEntry, err)
	}
	close(e.done)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil || e.gen != c.gen {
		// Failed or stale: drop it so the next request retries, but only if
		// the slot still belongs to this entry (a Clear may have replaced it).
		if cur, ok := c.m[e.key]; ok && cur == e {
			delete(c.m, e.key)
		}
		return
	}
	e.elem = c.ll.PushFront(e)
	for c.ll.Len() > c.max {
		back := c.ll.Back()
		victim := back.Value.(*CacheEntry)
		c.ll.Remove(back)
		delete(c.m, victim.key)
		c.counters.Evictions.Inc()
	}
}

// Filled reports, without blocking, whether the leader has completed this
// entry — i.e. whether Wait would return immediately. It stays true after
// the entry is evicted: eviction removes the slot from the cache, not the
// result from holders of the entry.
func (e *CacheEntry) Filled() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// Wait blocks until the entry is filled — or ctx is cancelled — and
// returns its result. A follower whose client disconnects stops waiting
// immediately; the leader's computation is unaffected.
func (e *CacheEntry) Wait(ctx context.Context) (gnn.Prediction, error) {
	select {
	case <-e.done:
		return e.pred, e.err
	case <-ctx.Done():
		return gnn.Prediction{}, ctx.Err()
	}
}

// Clear invalidates every entry — called on model swap so predictions from
// the old model can never answer for the new one. In-flight leaders finish
// against the model they captured; their Complete sees the generation
// mismatch and discards the entry, while their followers still get the
// (old-model) result they attached to before the swap.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	c.m = make(map[Fingerprint]*CacheEntry)
	c.ll.Init()
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Size      int
	Hits      uint64
	Coalesced uint64
	Misses    uint64
	Evictions uint64
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	size := c.ll.Len()
	c.mu.Unlock()
	return CacheStats{Size: size, Hits: c.counters.Hits.Load(),
		Coalesced: c.counters.Coalesced.Load(), Misses: c.counters.Misses.Load(),
		Evictions: c.counters.Evictions.Load()}
}
