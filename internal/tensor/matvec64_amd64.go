//go:build amd64

package tensor

// The AVX2+FMA kernels of the float64 vector paths; see matvec64_amd64.s.
// Each is bit-identical to the Go loop it stands in for. Only call when active
// is not kernelPortable, with every dimension >= 1.

//go:noescape
func mulVec64(w, v, b, out *float64, rows, cols int64)

//go:noescape
func mulVecT64(w, v, out *float64, rows, cols int64)

//go:noescape
func addOuter64(m, u, v *float64, a float64, rows, cols int64)

//go:noescape
func axpy64(dst, src *float64, a float64, n int64)

// The register-tiled AVX2+FMA kernels of the float64 batched paths; see
// gemm64_amd64.s. Each computes every element it writes bit-identically to the
// one-vector kernel above it batches. Same calling rule as above.

//go:noescape
func gemmBias64(w, x, b, y *float64, n, quads, cols, ldy int64)

//go:noescape
func gemmT64(w, d, y *float64, n, rows, cols int64)

//go:noescape
func addOuterRows64(m, d, x *float64, n, rows, cols, ldd int64)

// adam64 is AdamInPlace's AVX2+FMA kernel over the first n elements, n a
// positive multiple of 4; see adam_amd64.s.
//
//go:noescape
func adam64(val, grad, m, v *float64, n int64, c *AdamCoeffs)
