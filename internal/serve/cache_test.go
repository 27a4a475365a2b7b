package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"zerotune/internal/gnn"
)

func fp(b byte) Fingerprint {
	var f Fingerprint
	f[0] = b
	return f
}

func TestCacheHitMissEviction(t *testing.T) {
	c := NewCache(2)
	for i := byte(0); i < 3; i++ {
		e, leader := c.Acquire(fp(i))
		if !leader {
			t.Fatalf("key %d: expected leader on first acquire", i)
		}
		c.Complete(e, gnn.Prediction{LatencyMs: float64(i)}, nil)
	}
	// Capacity 2: key 0 is the LRU victim.
	st := c.Stats()
	if st.Size != 2 || st.Evictions != 1 || st.Misses != 3 {
		t.Fatalf("stats after fill: %+v", st)
	}
	if _, leader := c.Acquire(fp(0)); !leader {
		t.Fatal("evicted key should miss")
	}
	e, leader := c.Acquire(fp(2))
	if leader {
		t.Fatal("resident key should hit")
	}
	if pred, err := e.Wait(context.Background()); err != nil || pred.LatencyMs != 2 {
		t.Fatalf("cached value lost: %v %v", pred, err)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("expected 1 hit, got %+v", st)
	}
}

func TestCacheLRUOrder(t *testing.T) {
	c := NewCache(2)
	complete := func(b byte) {
		e, leader := c.Acquire(fp(b))
		if leader {
			c.Complete(e, gnn.Prediction{}, nil)
		}
	}
	complete(1)
	complete(2)
	complete(1) // touch 1 → 2 becomes LRU
	complete(3) // evicts 2
	if _, leader := c.Acquire(fp(1)); leader {
		t.Fatal("recently used key was evicted")
	}
	if _, leader := c.Acquire(fp(2)); !leader {
		t.Fatal("LRU key survived eviction")
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := NewCache(8)
	leaderEntry, leader := c.Acquire(fp(7))
	if !leader {
		t.Fatal("first acquire must lead")
	}
	// One follower attaches synchronously while the leader is in flight, so
	// the coalesced counter is deterministic; the rest race the completion.
	first, lead := c.Acquire(fp(7))
	if lead {
		t.Fatal("second acquire of an in-flight key must follow, not lead")
	}
	const followers = 8
	var wg sync.WaitGroup
	results := make([]float64, followers)
	// Bounded wait: a lost completion must fail the test, not hang it.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, lead := c.Acquire(fp(7))
			if lead {
				t.Error("follower became leader while entry resident or in flight")
				c.Complete(e, gnn.Prediction{}, nil)
				return
			}
			pred, err := e.Wait(ctx)
			if err != nil {
				t.Error(err)
			}
			results[i] = pred.LatencyMs
		}(i)
	}
	c.Complete(leaderEntry, gnn.Prediction{LatencyMs: 42}, nil)
	wg.Wait()
	if pred, _ := first.Wait(context.Background()); pred.LatencyMs != 42 {
		t.Fatalf("synchronous follower got %v, want 42", pred.LatencyMs)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("follower %d got %v, want 42", i, v)
		}
	}
	if st := c.Stats(); st.Coalesced == 0 {
		t.Fatalf("expected coalesced joins, got %+v", st)
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := NewCache(8)
	e, _ := c.Acquire(fp(1))
	c.Complete(e, gnn.Prediction{}, ErrBatcherClosed)
	if _, err := e.Wait(context.Background()); err == nil {
		t.Fatal("error lost")
	}
	if _, leader := c.Acquire(fp(1)); !leader {
		t.Fatal("failed entry must not stay cached")
	}
}

func TestCacheClearInvalidatesInFlight(t *testing.T) {
	c := NewCache(8)
	e, _ := c.Acquire(fp(1))
	c.Clear()
	// The old-generation leader still answers its followers...
	c.Complete(e, gnn.Prediction{LatencyMs: 1}, nil)
	if pred, _ := e.Wait(context.Background()); pred.LatencyMs != 1 {
		t.Fatal("in-flight result lost on clear")
	}
	// ...but the entry must not be resident for the new generation.
	if _, leader := c.Acquire(fp(1)); !leader {
		t.Fatal("stale entry survived Clear")
	}
	if st := c.Stats(); st.Size > 1 {
		t.Fatalf("unexpected residency: %+v", st)
	}
}

// TestCacheLookupAndFilled covers a lookup (Acquire of a key) and Filled
// across an entry's life: in flight (Filled is false, a second lookup
// coalesces onto the leader), filled (a lookup hits, returns the entry and
// refreshes its LRU position), evicted (the slot is gone from the cache, the
// result stays with its holders), and failed (filled for its waiters, but
// dropped so the next lookup leads again).
func TestCacheLookupAndFilled(t *testing.T) {
	c := NewCache(2)
	e1, leader := c.Acquire(fp(1))
	if !leader || e1.Filled() {
		t.Fatal("in-flight entry reported as filled")
	}
	if e, leader := c.Acquire(fp(1)); leader || e != e1 {
		t.Fatal("lookup of an in-flight key did not join its leader")
	}
	c.Complete(e1, gnn.Prediction{LatencyMs: 1}, nil)
	if e, leader := c.Acquire(fp(1)); leader || e != e1 || !e1.Filled() {
		t.Fatal("completed entry not found filled")
	}

	e2, _ := c.Acquire(fp(2))
	c.Complete(e2, gnn.Prediction{}, nil)
	c.Acquire(fp(1)) // refresh 1 → 2 becomes the LRU victim
	e3, _ := c.Acquire(fp(3))
	c.Complete(e3, gnn.Prediction{}, nil)
	if !e2.Filled() {
		t.Fatal("eviction un-filled an entry a holder may still read")
	}
	if e, leader := c.Acquire(fp(1)); leader || e != e1 {
		t.Fatal("lookup hit did not refresh the LRU position")
	}
	if st := c.Stats(); st.Hits != 3 || st.Coalesced != 1 || st.Misses != 3 || st.Evictions != 1 {
		t.Fatalf("stats: %+v, want 3 hits, 1 coalesced, 3 misses and 1 eviction", st)
	}
	if _, leader := c.Acquire(fp(2)); !leader {
		t.Fatal("evicted entry still found by a lookup")
	}

	e4, _ := c.Acquire(fp(4))
	c.Complete(e4, gnn.Prediction{}, ErrBatcherClosed)
	if _, leader := c.Acquire(fp(4)); !e4.Filled() || !leader {
		t.Fatal("failed entry must be filled for its waiters and dropped from the cache")
	}
}
