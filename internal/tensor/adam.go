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
//	m = Beta1·m + (1-Beta1)·g
//	v = Beta2·v + (1-Beta2)·g·g
//	val -= LR·((m/BC1)/(√(v/BC2)+Eps) + WD·val)
//
// with every product, sum, quotient and root in that order. Under a vector
// kernel (see Kernel) four elements run per AVX2 instruction; each lane does
// the same operations (VDIVPD and VSQRTPD round exactly as their scalar
// forms, and no multiply is fused into an add), so the result is the
// portable loop's bit for bit. All four slices have the same length.
func AdamInPlace(val, grad, m, v Vector, c *AdamCoeffs) {
	n := len(val)
	grad, m, v = grad[:n], m[:n], v[:n]
	j := 0
	if active != kernelPortable && n >= 4 {
		j = n &^ 3
		adam64(&val[0], &grad[0], &m[0], &v[0], int64(j), c)
	}
	c1, c2 := 1-c.Beta1, 1-c.Beta2
	for ; j < n; j++ {
		g := grad[j]
		mj := c.Beta1*m[j] + c1*g
		vj := c.Beta2*v[j] + c2*g*g
		m[j], v[j] = mj, vj
		val[j] -= c.LR * ((mj/c.BC1)/(math.Sqrt(vj/c.BC2)+c.Eps) + c.WD*val[j])
	}
}
