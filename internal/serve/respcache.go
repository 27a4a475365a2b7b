package serve

import (
	"bytes"
	"sync"
)

// respCache is the serve hot path's outermost cache: it maps raw request
// bodies to marshaled responses, so a byte-identical repeat of a recent
// /v1/predict request is answered without JSON decode, placement, encoding,
// or inference. It sits in front of the semantic fingerprint cache (which
// still coalesces requests whose bodies differ but whose featurized graphs
// agree) and is invalidated wholesale on every model swap — the stored
// responses embed the model ID.
//
// Lookups hash the body with XXH64 and verify with a full byte compare, so
// a hash collision degrades to a miss, never a wrong answer. A miss hashes
// its body once: get returns the key, and put takes it back. The hit path
// performs no allocation; eviction is FIFO over a fixed ring.
type respCache struct {
	mu   sync.RWMutex
	max  int
	m    map[uint64]*respEntry
	ring []uint64 // insertion order; oldest evicted first
	head int      // next ring slot to overwrite once full
}

type respEntry struct {
	body []byte // the exact request bytes this response answers
	resp []byte // marshaled response, Cached flag already set
}

func newRespCache(max int) *respCache {
	if max < 1 {
		max = 1
	}
	return &respCache{max: max, m: make(map[uint64]*respEntry, max)}
}

// HashBody is XXH64 with seed 0 over the raw request bytes: the body cache's
// key, and — so that byte-identical requests land on the replica whose
// caches already hold them — the gateway's affinity-routing key too.
func HashBody(body []byte) uint64 {
	return xxh64(body, 0)
}

// get returns the stored response for a byte-identical body, and the body's
// key either way, for a miss to hand to put. The returned slice is shared
// and must not be modified.
func (c *respCache) get(body []byte) (resp []byte, key uint64, ok bool) {
	key = HashBody(body)
	c.mu.RLock()
	e := c.m[key]
	c.mu.RUnlock()
	if e == nil || !bytes.Equal(e.body, body) {
		return nil, key, false
	}
	return e.resp, key, true
}

// put stores resp as the answer for body under key, which must be
// HashBody(body) (get returns it), copying body and taking ownership of
// resp. A colliding hash slot is simply overwritten.
func (c *respCache) put(key uint64, body, resp []byte) {
	e := &respEntry{body: append([]byte(nil), body...), resp: resp}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.m[key]; exists {
		c.m[key] = e // refresh in place; ring position unchanged
		return
	}
	if len(c.ring) < c.max {
		c.ring = append(c.ring, key)
	} else {
		delete(c.m, c.ring[c.head])
		c.ring[c.head] = key
		c.head = (c.head + 1) % c.max
	}
	c.m[key] = e
}

// clear drops every entry (model swap).
func (c *respCache) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = make(map[uint64]*respEntry, c.max)
	c.ring = c.ring[:0]
	c.head = 0
}

// size reports the number of resident responses.
func (c *respCache) size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}
