package main

import (
	"math/bits"
	"sort"
)

// hist is a fixed-size log-linear latency histogram over nanoseconds: 64
// linear sub-buckets per power of two, so a bucket is at most 1/64 of its
// value wide and a quantile read from it is within 1 % of the true one. Recording is
// one shift and one increment and never allocates, which is what lets the
// driver keep one histogram per client per window and merge them only after
// the timed region.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSub     = 64                 // linear sub-buckets per octave
	histBuckets = (34 + 2) * histSub // covers 0 ns .. 2^40 ns (≈18 min)
)

func histIndex(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 7 // top 7 bits: leading one + 6 sub-bucket bits
	i := (e+1)*histSub + int(uint64(ns)>>uint(e)) - histSub
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// histBounds is bucket i's lower edge and width, in nanoseconds.
func histBounds(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	e := uint(i/histSub - 1)
	return float64(uint64(histSub+i%histSub) << e), float64(uint64(1) << e)
}

func (h *hist) record(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (0 when empty): the bucket
// holding the nearest rank, interpolated linearly by the rank's position in
// it, so the result is not quantized to bucket edges.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := min(max(q*float64(h.n), 0.5), float64(h.n)-0.5)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, width := histBounds(i)
			return lo + width*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, width := histBounds(histBuckets - 1)
	return lo + width
}

// median of a small sample; the middle pair is averaged for even sizes.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantileOf is the nearest-rank q-quantile of raw samples (sorted in place).
func quantileOf(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	i := int(q*float64(len(v))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(v) {
		i = len(v) - 1
	}
	return v[i]
}
