package serve

import (
	"bytes"
	"fmt"
	"testing"
)

func TestRespCacheHitMiss(t *testing.T) {
	c := newRespCache(4)
	body := []byte(`{"plan":1}`)
	if _, ok := c.get(body); ok {
		t.Fatal("hit on empty cache")
	}
	c.put(body, []byte("resp-1"))
	got, ok := c.get(body)
	if !ok || string(got) != "resp-1" {
		t.Fatalf("get = %q, %v; want resp-1, true", got, ok)
	}
	if _, ok := c.get([]byte(`{"plan":2}`)); ok {
		t.Fatal("hit for a different body")
	}
	// The stored body is a copy: mutating the caller's slice must not
	// poison the cache.
	body[0] = 'X'
	if _, ok := c.get([]byte(`{"plan":1}`)); !ok {
		t.Fatal("entry lost after caller mutated its body slice")
	}
}

func TestRespCacheCollisionIsAMiss(t *testing.T) {
	// Force a hash collision by planting an entry whose stored body differs
	// from the probe body under the probe's hash. The byte compare must turn
	// the collision into a miss, never a wrong answer.
	c := newRespCache(4)
	probe := []byte("probe-body")
	c.m[HashBody(probe)] = &respEntry{body: []byte("other-body"), resp: []byte("wrong")}
	if _, ok := c.get(probe); ok {
		t.Fatal("colliding hash served the wrong response")
	}
}

func TestRespCacheRefreshInPlace(t *testing.T) {
	c := newRespCache(4)
	body := []byte("same-body")
	c.put(body, []byte("v1"))
	c.put(body, []byte("v2"))
	if got, _ := c.get(body); string(got) != "v2" {
		t.Fatalf("refresh kept %q, want v2", got)
	}
	if c.size() != 1 || len(c.ring) != 1 {
		t.Fatalf("refresh changed occupancy: size=%d ring=%d", c.size(), len(c.ring))
	}
}

func TestRespCacheFIFOEviction(t *testing.T) {
	c := newRespCache(3)
	bodies := make([][]byte, 5)
	for i := range bodies {
		bodies[i] = []byte(fmt.Sprintf("body-%d", i))
		c.put(bodies[i], []byte(fmt.Sprintf("resp-%d", i)))
	}
	if c.size() != 3 {
		t.Fatalf("size = %d, want 3", c.size())
	}
	for i, want := range []bool{false, false, true, true, true} {
		if _, ok := c.get(bodies[i]); ok != want {
			t.Fatalf("after eviction, get(body-%d) = %v, want %v", i, ok, want)
		}
	}
}

func TestRespCacheClear(t *testing.T) {
	c := newRespCache(4)
	c.put([]byte("a"), []byte("1"))
	c.put([]byte("b"), []byte("2"))
	c.clear()
	if c.size() != 0 {
		t.Fatalf("size after clear = %d", c.size())
	}
	if _, ok := c.get([]byte("a")); ok {
		t.Fatal("hit after clear")
	}
	// The cache keeps working after a clear (model swap).
	c.put([]byte("a"), []byte("3"))
	if got, _ := c.get([]byte("a")); string(got) != "3" {
		t.Fatalf("post-clear get = %q", got)
	}
}

func TestRespCacheGetZeroAlloc(t *testing.T) {
	c := newRespCache(8)
	body := bytes.Repeat([]byte("x"), 1024)
	c.put(body, []byte("resp"))
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := c.get(body); !ok {
			t.Fatal("lost entry")
		}
	})
	if allocs != 0 {
		t.Fatalf("respCache.get allocates %.1f times per hit, want 0", allocs)
	}
}
