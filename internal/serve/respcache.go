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
// Lookups hash the body with FNV-1a and verify with a full byte compare, so
// a hash collision degrades to a miss, never a wrong answer. The hit path
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

// HashBody is FNV-1a-64 over the raw request bytes: the body cache's key,
// and — so that byte-identical requests land on the replica whose caches
// already hold them — the gateway's affinity-routing key and the serve-tier
// simulator's cache key too.
func HashBody(body []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range body {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// get returns the stored response for a byte-identical body. The returned
// slice is shared and must not be modified.
func (c *respCache) get(body []byte) ([]byte, bool) {
	h := HashBody(body)
	c.mu.RLock()
	e := c.m[h]
	c.mu.RUnlock()
	if e == nil || !bytes.Equal(e.body, body) {
		return nil, false
	}
	return e.resp, true
}

// put stores resp as the answer for body, copying body and taking ownership
// of resp. A colliding hash slot is simply overwritten.
func (c *respCache) put(body, resp []byte) {
	h := HashBody(body)
	e := &respEntry{body: append([]byte(nil), body...), resp: resp}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.m[h]; exists {
		c.m[h] = e // refresh in place; ring position unchanged
		return
	}
	if len(c.ring) < c.max {
		c.ring = append(c.ring, h)
	} else {
		delete(c.m, c.ring[c.head])
		c.ring[c.head] = h
		c.head = (c.head + 1) % c.max
	}
	c.m[h] = e
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
