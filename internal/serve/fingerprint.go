package serve

import (
	"encoding/binary"
	"math"

	"zerotune/internal/features"
)

// Fingerprint is a 128-bit canonical hash of a featurized plan — the cache
// key of the serving layer.
type Fingerprint [16]byte

// Fingerprint seeds: the two 64-bit halves of a Fingerprint are XXH64
// digests of one word stream under these.
const (
	fingerprintSeedHi uint64 = 0
	fingerprintSeedLo uint64 = 0x9E3779B97F4A7C15
)

// PlanFingerprint hashes exactly the model-visible parts of an encoded
// graph: operator feature vectors, resource feature vectors, data-flow
// edges, mapping edges with instance counts, and the read-out position.
// Node names, operator IDs and provenance fields (template, labels) are
// deliberately excluded — two plans that featurize identically are
// indistinguishable to the model and must share a cache slot. The mask is
// hashed too so models with different feature visibility never collide
// (the cache is additionally cleared on model swap; see Registry).
//
// Those fields form a stream of little-endian 64-bit words (floats by their
// IEEE-754 bits), streamed straight into XXH64's lanes under two fixed seeds
// — 128 bits out, big-endian, and no allocation. Like the FNV-128a it
// replaced, the hash is not cryptographic: it resists accidents, not an
// adversary. The plan cache does not compare graphs on a hit, so two plans
// that collide share one cached prediction, and the second is answered
// wrongly; at 128 bits an accidental collision is not expected.
func PlanFingerprint(g *features.Graph, mask features.Mask) Fingerprint {
	d := newXXHWords(fingerprintSeedHi, fingerprintSeedLo)
	d.write(uint64(mask))
	d.write(uint64(len(g.OpNodes)))
	for _, n := range g.OpNodes {
		d.write(uint64(n.Type))
		for _, v := range n.Feat {
			d.write(math.Float64bits(v))
		}
	}
	d.write(uint64(len(g.ResNodes)))
	for _, n := range g.ResNodes {
		for _, v := range n.Feat {
			d.write(math.Float64bits(v))
		}
	}
	d.write(uint64(len(g.DataEdges)))
	for _, e := range g.DataEdges {
		d.write(uint64(e[0])<<32 | uint64(uint32(e[1])))
	}
	d.write(uint64(len(g.Mapping)))
	for _, m := range g.Mapping {
		d.write(uint64(m.OpIdx))
		d.write(uint64(m.ResIdx))
		d.write(uint64(m.Instances))
	}
	d.write(uint64(g.SinkIdx))

	var fp Fingerprint
	binary.BigEndian.PutUint64(fp[:8], d.sum(0))
	binary.BigEndian.PutUint64(fp[8:], d.sum(1))
	return fp
}
