package tensor

import "math"

// AdamCoeffs are the per-step constants of an Adam update with decoupled
// weight decay (see AdamInPlace).
type AdamCoeffs struct {
	Beta1, Beta2 float64 // moment decay rates
	BC1, BC2     float64 // bias corrections 1-Beta1^t and 1-Beta2^t
	LR, Eps, WD  float64
}

// AdamInPlace applies one Adam step to val, element by element:
//
//	m   = fma(1-Beta1, g, Beta1·m)
//	v   = fma((1-Beta2)·g, g, Beta2·v)
//	s   = (m·(1/BC1)) / (√(v·(1/BC2)) + Eps)
//	val = fma(-LR, fma(WD, val, s), val)
//
// in that order: each fma rounds once, every other product, sum, quotient
// and root rounds on its own, and the reciprocals 1/BC1 and 1/BC2 are
// computed once per call, so an element costs one division and one root.
// Under a vector kernel (see Kernel) four elements run per AVX2 instruction;
// each lane does the same operations (each fma a VFMADD231PD or, for the
// last, a VFNMADD231PD, and VDIVPD and VSQRTPD round exactly as their scalar
// forms), so the result is the portable loop's bit for bit. All four slices
// have the same length.
func AdamInPlace(val, grad, m, v Vector, c *AdamCoeffs) {
	n := len(val)
	grad, m, v = grad[:n], m[:n], v[:n]
	j := 0
	if active != kernelPortable && n >= 4 {
		j = n &^ 3
		adam64(&val[0], &grad[0], &m[0], &v[0], int64(j), c)
	}
	c1, c2 := 1-c.Beta1, 1-c.Beta2
	r1, r2 := 1/c.BC1, 1/c.BC2
	for ; j < n; j++ {
		g := grad[j]
		mj := math.FMA(c1, g, float64(c.Beta1*m[j]))
		vj := math.FMA(float64(c2*g), g, float64(c.Beta2*v[j]))
		m[j], v[j] = mj, vj
		s := float64(mj*r1) / (math.Sqrt(float64(vj*r2)) + c.Eps)
		val[j] = math.FMA(-c.LR, math.FMA(c.WD, val[j], s), val[j])
	}
}
