package serve

import (
	"encoding/binary"
	"testing"
)

func TestHashBodyIsXXH64(t *testing.T) {
	// XXH64 at seed 0 on the published test vectors.
	for _, c := range []struct {
		in   string
		want uint64
	}{
		{"", 0xEF46DB3751D8E999},
		{"a", 0xD24EC4F1A98C6E5B},
		{"abc", 0x44BC2CF5AD770999},
		{"Nobody inspects the spammish repetition", 0xFBCEA83C8A378BF1},
	} {
		if got := HashBody([]byte(c.in)); got != c.want {
			t.Errorf("HashBody(%q) = %#016x, want %#016x", c.in, got, c.want)
		}
	}
}

// refXXH64 is XXH64 written from the specification one step at a time —
// bytes gathered by shifts, lanes kept as separate accumulators — as an
// independent check on xxh64's stripe loop and tail branches.
func refXXH64(b []byte, seed uint64) uint64 {
	const (
		p1 uint64 = 11400714785074694791
		p2 uint64 = 14029467366897019727
		p3 uint64 = 1609587929392839161
		p4 uint64 = 9650029242287828579
		p5 uint64 = 2870177450012600261
	)
	rotl := func(x uint64, r uint) uint64 { return x<<r | x>>(64-r) }
	le := func(p []byte, n int) uint64 {
		var x uint64
		for i := n - 1; i >= 0; i-- {
			x = x<<8 | uint64(p[i])
		}
		return x
	}
	round := func(acc, in uint64) uint64 {
		acc += in * p2
		acc = rotl(acc, 31)
		return acc * p1
	}
	i := 0
	var acc uint64
	if len(b) >= 32 {
		a1, a2, a3, a4 := seed+p1+p2, seed+p2, seed, seed-p1
		for ; i+32 <= len(b); i += 32 {
			a1 = round(a1, le(b[i:], 8))
			a2 = round(a2, le(b[i+8:], 8))
			a3 = round(a3, le(b[i+16:], 8))
			a4 = round(a4, le(b[i+24:], 8))
		}
		acc = rotl(a1, 1) + rotl(a2, 7) + rotl(a3, 12) + rotl(a4, 18)
		for _, a := range []uint64{a1, a2, a3, a4} {
			acc ^= round(0, a)
			acc = acc*p1 + p4
		}
	} else {
		acc = seed + p5
	}
	acc += uint64(len(b))
	for ; i+8 <= len(b); i += 8 {
		acc ^= round(0, le(b[i:], 8))
		acc = rotl(acc, 27)*p1 + p4
	}
	if i+4 <= len(b) {
		acc ^= le(b[i:], 4) * p1
		acc = rotl(acc, 23)*p2 + p3
		i += 4
	}
	for ; i < len(b); i++ {
		acc ^= uint64(b[i]) * p5
		acc = rotl(acc, 11) * p1
	}
	acc ^= acc >> 33
	acc *= p2
	acc ^= acc >> 29
	acc *= p3
	acc ^= acc >> 32
	return acc
}

func TestXXH64EveryTailLength(t *testing.T) {
	// Lengths 0..70 run the short path, one and two stripes, and every mix
	// of the 8-, 4- and 1-byte tails.
	buf := make([]byte, 71)
	for i := range buf {
		buf[i] = byte(i*131 + 7)
	}
	for _, seed := range []uint64{0, 1, fingerprintSeedLo, ^uint64(0)} {
		for n := 0; n <= 70; n++ {
			if got, want := xxh64(buf[:n], seed), refXXH64(buf[:n], seed); got != want {
				t.Errorf("xxh64(len %d, seed %#x) = %#016x, want %#016x", n, seed, got, want)
			}
		}
	}
	if got := refXXH64([]byte("Nobody inspects the spammish repetition"), 0); got != 0xFBCEA83C8A378BF1 {
		t.Fatalf("reference disagrees with the published vector: %#016x", got)
	}
}

func TestXXHWordsMatchesBytes(t *testing.T) {
	// The streaming word form equals the byte form over the same words'
	// little-endian bytes, under both seeds, for streams that end inside a
	// stripe, on its boundary and past several.
	for words := 0; words <= 13; words++ {
		d := newXXHWords(fingerprintSeedHi, fingerprintSeedLo)
		var stream []byte
		for i := 0; i < words; i++ {
			w := uint64(i+1) * 0x9E3779B97F4A7C15
			d.write(w)
			stream = binary.LittleEndian.AppendUint64(stream, w)
		}
		for i, seed := range []uint64{fingerprintSeedHi, fingerprintSeedLo} {
			if got, want := d.sum(i), xxh64(stream, seed); got != want {
				t.Errorf("%d words, seed %#x: streamed %#016x, bytes %#016x", words, seed, got, want)
			}
		}
	}
}
