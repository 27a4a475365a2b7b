package serve

import (
	"bytes"
	"fmt"
	"testing"
)

func TestRespCacheHitMiss(t *testing.T) {
	c := newRespCache(4)
	body := []byte(`{"plan":1}`)
	_, key, ok := c.get(body)
	if ok {
		t.Fatal("hit on empty cache")
	}
	if key != HashBody(body) {
		t.Fatalf("miss returned key %#x, want HashBody %#x", key, HashBody(body))
	}
	c.put(key, body, []byte("resp-1"))
	got, _, ok := c.get(body)
	if !ok || string(got) != "resp-1" {
		t.Fatalf("get = %q, %v; want resp-1, true", got, ok)
	}
	if _, _, ok := c.get([]byte(`{"plan":2}`)); ok {
		t.Fatal("hit for a different body")
	}
	// The stored body is a copy: mutating the caller's slice must not
	// poison the cache.
	body[0] = 'X'
	if _, _, ok := c.get([]byte(`{"plan":1}`)); !ok {
		t.Fatal("entry lost after caller mutated its body slice")
	}
}

func TestRespCacheMissKeyIsTheSlot(t *testing.T) {
	// A miss hashes its body once: the key get returns is the slot put
	// fills, and the next get of the same bytes hits it.
	c := newRespCache(4)
	body := []byte(`{"plan":{"rate":50000}}`)
	_, key, ok := c.get(body)
	if ok {
		t.Fatal("hit on empty cache")
	}
	c.put(key, body, []byte("resp"))
	if e := c.m[key]; e == nil || !bytes.Equal(e.body, body) {
		t.Fatalf("put under the miss's key %#x left no entry for the body", key)
	}
	got, hitKey, ok := c.get(append([]byte(nil), body...))
	if !ok || string(got) != "resp" || hitKey != key {
		t.Fatalf("get after put = %q, %#x, %v; want resp, %#x, true", got, hitKey, ok, key)
	}
}

func TestRespCacheCollisionIsAMiss(t *testing.T) {
	// Force a hash collision by planting an entry whose stored body differs
	// from the probe body under the probe's hash. The byte compare must turn
	// the collision into a miss, never a wrong answer.
	c := newRespCache(4)
	probe := []byte("probe-body")
	c.m[HashBody(probe)] = &respEntry{body: []byte("other-body"), resp: []byte("wrong")}
	if _, _, ok := c.get(probe); ok {
		t.Fatal("colliding hash served the wrong response")
	}
}

func TestRespCacheRefreshInPlace(t *testing.T) {
	c := newRespCache(4)
	body := []byte("same-body")
	c.put(HashBody(body), body, []byte("v1"))
	c.put(HashBody(body), body, []byte("v2"))
	if got, _, _ := c.get(body); string(got) != "v2" {
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
		c.put(HashBody(bodies[i]), bodies[i], []byte(fmt.Sprintf("resp-%d", i)))
	}
	if c.size() != 3 {
		t.Fatalf("size = %d, want 3", c.size())
	}
	for i, want := range []bool{false, false, true, true, true} {
		if _, _, ok := c.get(bodies[i]); ok != want {
			t.Fatalf("after eviction, get(body-%d) = %v, want %v", i, ok, want)
		}
	}
}

func TestRespCacheClear(t *testing.T) {
	c := newRespCache(4)
	c.put(HashBody([]byte("a")), []byte("a"), []byte("1"))
	c.put(HashBody([]byte("b")), []byte("b"), []byte("2"))
	c.clear()
	if c.size() != 0 {
		t.Fatalf("size after clear = %d", c.size())
	}
	if _, _, ok := c.get([]byte("a")); ok {
		t.Fatal("hit after clear")
	}
	// The cache keeps working after a clear (model swap).
	c.put(HashBody([]byte("a")), []byte("a"), []byte("3"))
	if got, _, _ := c.get([]byte("a")); string(got) != "3" {
		t.Fatalf("post-clear get = %q", got)
	}
}

func TestRespCacheGetZeroAlloc(t *testing.T) {
	c := newRespCache(8)
	body := bytes.Repeat([]byte("x"), 1024)
	c.put(HashBody(body), body, []byte("resp"))
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, ok := c.get(body); !ok {
			t.Fatal("lost entry")
		}
	})
	if allocs != 0 {
		t.Fatalf("respCache.get allocates %.1f times per hit, want 0", allocs)
	}
}
