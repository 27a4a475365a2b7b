//go:build amd64

package tensor

// The AVX2 kernels of the float64 vector paths; see matvec64_amd64.s. Each is
// bit-identical to the Go loop it stands in for. Only call when active is not
// kernelPortable, with every dimension >= 1.

//go:noescape
func mulVec64(w, v, b, out *float64, rows, cols int64)

//go:noescape
func mulVecT64(w, v, out *float64, rows, cols int64)

//go:noescape
func addOuter64(m, u, v *float64, a float64, rows, cols int64)

//go:noescape
func axpy64(dst, src *float64, a float64, n int64)
