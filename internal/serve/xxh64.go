package serve

import (
	"encoding/binary"
	"math/bits"
)

// XXH64, the xxHash 64-bit function (github.com/Cyan4973/xxHash,
// doc/xxhash_spec.md), keys both serving caches: HashBody over a request's
// raw bytes and PlanFingerprint over a featurized plan's word stream. It is
// deterministic across processes and machines — gateway placement depends on
// that — and not cryptographic.
const (
	xxhPrime1 uint64 = 0x9E3779B185EBCA87
	xxhPrime2 uint64 = 0xC2B2AE3D27D4EB4F
	xxhPrime3 uint64 = 0x165667B19E3779F9
	xxhPrime4 uint64 = 0x85EBCA77C2B2AE63
	xxhPrime5 uint64 = 0x27D4EB2F165667C5
)

// xxh64 is XXH64 of b under seed: four lanes consume b 32 bytes per step,
// and the tail is folded in 8, 4 and 1 bytes at a time.
func xxh64(b []byte, seed uint64) uint64 {
	n := len(b)
	var h uint64
	if n >= 32 {
		v := xxhLanes(seed)
		for ; len(b) >= 32; b = b[32:] {
			s := b[:32:32]
			v[0] = xxhRound(v[0], binary.LittleEndian.Uint64(s[0:8]))
			v[1] = xxhRound(v[1], binary.LittleEndian.Uint64(s[8:16]))
			v[2] = xxhRound(v[2], binary.LittleEndian.Uint64(s[16:24]))
			v[3] = xxhRound(v[3], binary.LittleEndian.Uint64(s[24:32]))
		}
		h = xxhMerge(&v)
	} else {
		h = seed + xxhPrime5
	}
	h += uint64(n)
	for ; len(b) >= 8; b = b[8:] {
		h = xxhTail8(h, binary.LittleEndian.Uint64(b))
	}
	if len(b) >= 4 {
		h ^= uint64(binary.LittleEndian.Uint32(b)) * xxhPrime1
		h = bits.RotateLeft64(h, 23)*xxhPrime2 + xxhPrime3
		b = b[4:]
	}
	for _, c := range b {
		h ^= uint64(c) * xxhPrime5
		h = bits.RotateLeft64(h, 11) * xxhPrime1
	}
	return xxhAvalanche(h)
}

// xxhWords streams little-endian 64-bit words into two XXH64 states at
// once, one per seed, holding no more of the stream than the stripe being
// filled: sum(i) equals xxh64(stream, seeds[i]) over the bytes of every
// word written.
type xxhWords struct {
	seeds  [2]uint64
	lanes  [2][4]uint64
	stripe [4]uint64 // the words of the stripe being filled
	n      int       // words in stripe
	full   uint64    // stripes already folded into the lanes
}

func newXXHWords(seed0, seed1 uint64) xxhWords {
	return xxhWords{
		seeds: [2]uint64{seed0, seed1},
		lanes: [2][4]uint64{xxhLanes(seed0), xxhLanes(seed1)},
	}
}

// write appends one word to the stream.
func (d *xxhWords) write(w uint64) {
	d.stripe[d.n&3] = w
	if d.n++; d.n == 4 {
		d.fold()
	}
}

// fold runs a full stripe through both states' lanes.
func (d *xxhWords) fold() {
	for i := range d.lanes {
		v := &d.lanes[i]
		v[0] = xxhRound(v[0], d.stripe[0])
		v[1] = xxhRound(v[1], d.stripe[1])
		v[2] = xxhRound(v[2], d.stripe[2])
		v[3] = xxhRound(v[3], d.stripe[3])
	}
	d.n = 0
	d.full++
}

// sum is the digest under seeds[i] of the words written so far.
func (d *xxhWords) sum(i int) uint64 {
	var h uint64
	if d.full > 0 {
		h = xxhMerge(&d.lanes[i])
	} else {
		h = d.seeds[i] + xxhPrime5
	}
	h += 32*d.full + 8*uint64(d.n)
	for _, w := range d.stripe[:d.n] {
		h = xxhTail8(h, w)
	}
	return xxhAvalanche(h)
}

func xxhLanes(seed uint64) [4]uint64 {
	return [4]uint64{seed + xxhPrime1 + xxhPrime2, seed + xxhPrime2, seed, seed - xxhPrime1}
}

func xxhRound(acc, in uint64) uint64 {
	return bits.RotateLeft64(acc+in*xxhPrime2, 31) * xxhPrime1
}

// xxhMerge converges the four lanes into one accumulator.
func xxhMerge(v *[4]uint64) uint64 {
	h := bits.RotateLeft64(v[0], 1) + bits.RotateLeft64(v[1], 7) +
		bits.RotateLeft64(v[2], 12) + bits.RotateLeft64(v[3], 18)
	for _, x := range v {
		h = (h^xxhRound(0, x))*xxhPrime1 + xxhPrime4
	}
	return h
}

// xxhTail8 folds one remaining 8-byte word into the accumulator.
func xxhTail8(h, w uint64) uint64 {
	return bits.RotateLeft64(h^xxhRound(0, w), 27)*xxhPrime1 + xxhPrime4
}

func xxhAvalanche(h uint64) uint64 {
	h ^= h >> 33
	h *= xxhPrime2
	h ^= h >> 29
	h *= xxhPrime3
	h ^= h >> 32
	return h
}
