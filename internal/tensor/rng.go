// Package tensor provides the small dense linear-algebra kernel used by the
// ZeroTune neural models: vectors, row-major matrices, and a deterministic
// random number generator.
//
// The package is deliberately minimal — just the operations the MLP and
// message-passing layers need — and allocation-conscious: every mutating
// operation has an in-place variant so training loops can reuse buffers.
package tensor

import "math"

// RNG is a deterministic xorshift64* pseudo-random generator.
//
// Everything stochastic in this repository (weight initialization, workload
// sampling, simulator noise, minibatch shuffling, forests) draws from an RNG
// seeded explicitly, so runs are reproducible bit-for-bit. We do not use
// math/rand so that the stream is stable across Go releases.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. A zero seed is remapped to a
// fixed non-zero constant because xorshift has an all-zero fixed point.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	r := &RNG{state: seed}
	// Warm up so nearby seeds diverge quickly.
	for i := 0; i < 8; i++ {
		r.Uint64()
	}
	return r
}

// State exposes the generator's internal state for checkpointing: a
// generator restored with SetState continues the exact stream this one
// would have produced.
func (r *RNG) State() uint64 { return r.state }

// SetState restores a state captured with State. Unlike NewRNG it performs
// no warm-up, so restore is an exact continuation, not a reseed. A zero
// state (never produced by a healthy generator) is remapped like a zero
// seed to keep the generator out of xorshift's fixed point.
func (r *RNG) SetState(s uint64) {
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	r.state = s
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform value in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + float64((hi-lo)*r.Float64())
}

// NormFloat64 returns a standard normal variate (Box–Muller).
func (r *RNG) NormFloat64() float64 {
	// Reject u1 == 0 to keep Log finite.
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// LogNormal returns exp(mu + sigma*N(0,1)); handy for noise factors.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + float64(sigma*r.NormFloat64()))
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes idx in place.
func (r *RNG) Shuffle(idx []int) {
	for i := len(idx) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		idx[i], idx[j] = idx[j], idx[i]
	}
}

// Pick returns a uniformly chosen element of vals. It panics on empty input.
func Pick[T any](r *RNG, vals []T) T {
	if len(vals) == 0 {
		panic("tensor: Pick from empty slice")
	}
	return vals[r.Intn(len(vals))]
}

// Split derives an independent generator from the current one. Deriving
// per-component generators (one for the workload, one for the model, …)
// keeps component streams decoupled: drawing more numbers in one component
// does not shift another component's stream.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xA0761D6478BD642F)
}
