//go:build !amd64

package tensor

// Non-amd64 targets run the portable kernels only.
const cpuKernel = kernelPortable

func gemm32Asm(x, wt *Matrix32, bias Vector32, y *Matrix32, act Act32) {
	panic("tensor: assembly GEMM called on a target without one")
}

func mulVec64(w, v, b, out *float64, rows, cols int64) {
	panic("tensor: assembly kernel called on a target without one")
}

func mulVecT64(w, v, out *float64, rows, cols int64) {
	panic("tensor: assembly kernel called on a target without one")
}

func addOuter64(m, u, v *float64, a float64, rows, cols int64) {
	panic("tensor: assembly kernel called on a target without one")
}

func axpy64(dst, src *float64, a float64, n int64) {
	panic("tensor: assembly kernel called on a target without one")
}

func gemmBias64(w, x, b, y *float64, n, quads, cols, ldy int64) {
	panic("tensor: assembly kernel called on a target without one")
}

func gemmT64(w, d, y *float64, n, rows, cols int64) {
	panic("tensor: assembly kernel called on a target without one")
}

func addOuterRows64(m, d, x *float64, n, rows, cols, ldd int64) {
	panic("tensor: assembly kernel called on a target without one")
}

func adam64(val, grad, m, v *float64, n int64, s float64, c *AdamCoeffs) {
	panic("tensor: assembly kernel called on a target without one")
}
