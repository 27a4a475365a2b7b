package tensor

import (
	"fmt"
	"math"
)

// Vector is a dense float64 vector. The zero value is an empty vector.
type Vector []float64

// NewVector returns a zeroed vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Zero resets every element to 0 and returns v.
func (v Vector) Zero() Vector {
	for i := range v {
		v[i] = 0
	}
	return v
}

// Fill sets every element to x and returns v.
func (v Vector) Fill(x float64) Vector {
	for i := range v {
		v[i] = x
	}
	return v
}

// AddInPlace adds w element-wise into v. Lengths must match.
//
// Under a vector kernel it runs the AxpyInPlace kernel with a = 1: 1·w[i] is
// exactly w[i], so v[i] + 1·w[i] is the same sum bit for bit.
func (v Vector) AddInPlace(w Vector) Vector {
	mustSameLen(len(v), len(w))
	if active != kernelPortable && len(v) > 0 {
		axpy64(&v[0], &w[0], 1, int64(len(v)))
		return v
	}
	for i := range v {
		v[i] += w[i]
	}
	return v
}

// SubInPlace subtracts w element-wise from v. Lengths must match.
func (v Vector) SubInPlace(w Vector) Vector {
	mustSameLen(len(v), len(w))
	for i := range v {
		v[i] -= w[i]
	}
	return v
}

// ScaleInPlace multiplies every element by a and returns v.
func (v Vector) ScaleInPlace(a float64) Vector {
	for i := range v {
		v[i] *= a
	}
	return v
}

// AxpyInPlace performs v += a*w. Lengths must match.
//
// The loop is 4-way unrolled with a bounds-check-elimination preload; because
// every element is independent, the result is exactly the element-wise
// `v[i] += a*w[i]` of the naive loop. The AVX2 kernel that runs when Kernel()
// is not "portable" computes the same VMULPD-then-VADDPD per element (see
// MulVec).
func (v Vector) AxpyInPlace(a float64, w Vector) Vector {
	mustSameLen(len(v), len(w))
	n := len(v)
	if active != kernelPortable && n > 0 {
		axpy64(&v[0], &w[0], a, int64(n))
		return v
	}
	w = w[:n] // bounds-check elimination: w indexed with the same i as v
	i := 0
	for ; i+3 < n; i += 4 {
		v[i] += a * w[i]
		v[i+1] += a * w[i+1]
		v[i+2] += a * w[i+2]
		v[i+3] += a * w[i+3]
	}
	for ; i < n; i++ {
		v[i] += a * w[i]
	}
	return v
}

// Dot returns the inner product of v and w. Lengths must match.
func (v Vector) Dot(w Vector) float64 {
	mustSameLen(len(v), len(w))
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func (v Vector) Norm2() float64 { return math.Sqrt(v.Dot(v)) }

// Sum returns the sum of the elements of v.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of v, or 0 for an empty vector.
func (v Vector) Mean() float64 {
	if len(v) == 0 {
		return 0
	}
	return v.Sum() / float64(len(v))
}

// Max returns the largest element. It panics on an empty vector.
func (v Vector) Max() float64 {
	if len(v) == 0 {
		panic("tensor: Max of empty vector")
	}
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the smallest element. It panics on an empty vector.
func (v Vector) Min() float64 {
	if len(v) == 0 {
		panic("tensor: Min of empty vector")
	}
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// ArgMin returns the index of the smallest element (first on ties).
// It panics on an empty vector.
func (v Vector) ArgMin() int {
	if len(v) == 0 {
		panic("tensor: ArgMin of empty vector")
	}
	best := 0
	for i, x := range v {
		if x < v[best] {
			best = i
		}
	}
	return best
}

// HasNaN reports whether any element is NaN or ±Inf.
func (v Vector) HasNaN() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
	}
	return false
}

// ClipInPlace clamps every element to [lo, hi] and returns v.
func (v Vector) ClipInPlace(lo, hi float64) Vector {
	for i := range v {
		if v[i] < lo {
			v[i] = lo
		} else if v[i] > hi {
			v[i] = hi
		}
	}
	return v
}

// Concat returns the concatenation of the given vectors as a new vector.
func Concat(vs ...Vector) Vector {
	n := 0
	for _, v := range vs {
		n += len(v)
	}
	out := make(Vector, 0, n)
	for _, v := range vs {
		out = append(out, v...)
	}
	return out
}

func mustSameLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("tensor: length mismatch %d vs %d", a, b))
	}
}
