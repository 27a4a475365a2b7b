package tensor

import "fmt"

// The float64 batched kernels: a linear layer over a stack of rows, one row
// per sample, and its two backward products. Each is defined row by row by a
// one-vector path and is bit-identical to it — GemmBiasInto to MulVecAddBias,
// GemmTInto to MulVecT, AddOuterRowsInPlace to AddOuterInPlace with a = 1
// applied sample after sample — so a batched pass computes the bits of the
// per-sample loop. Under a vector kernel (see Kernel) they run the register-
// tiled AVX2 kernels of gemm64_amd64.s, which keep every element's sequence
// of products and sums and change only which elements share a pass; the rows
// a tile leaves over run the one-vector kernels. The portable path is the
// one-vector loop, row by row.

// GemmBiasInto computes Y = X · Wᵀ + 1⊗b, the batched form of a linear layer
// pre-activation: row i of Y is w.MulVecAddBias(x.Row(i), b, ·), bit for bit.
func GemmBiasInto(x, w *Matrix, b Vector, y *Matrix) *Matrix {
	if x.Cols != w.Cols || y.Rows != x.Rows || y.Cols != w.Rows || len(b) != w.Rows {
		panic(fmt.Sprintf("tensor: GemmBiasInto shape mismatch x %dx%d w %dx%d b %d y %dx%d",
			x.Rows, x.Cols, w.Rows, w.Cols, len(b), y.Rows, y.Cols))
	}
	if x.Rows == 0 || !w.vec64() {
		for i := 0; i < x.Rows; i++ {
			w.MulVecAddBias(x.Row(i), b, y.Row(i))
		}
		return y
	}
	_, _ = x.Data[:x.Rows*x.Cols], y.Data[:y.Rows*y.Cols]
	n, quads := x.Rows&^1, w.Rows/4
	if n > 0 && quads > 0 {
		gemmBias64(&w.Data[0], &x.Data[0], &b[0], &y.Data[0], int64(n), int64(quads), int64(w.Cols), int64(y.Cols))
	}
	if r := 4 * quads; r < w.Rows { // the w rows the quads leave, for the paired x rows
		for i := 0; i < n; i++ {
			mulVec64(&w.Data[r*w.Cols], &x.Data[i*x.Cols], &b[r], &y.Data[i*y.Cols+r], int64(w.Rows-r), int64(w.Cols))
		}
	}
	if n < x.Rows { // the odd last x row
		mulVec64(&w.Data[0], &x.Data[n*x.Cols], &b[0], &y.Data[n*y.Cols], int64(w.Rows), int64(w.Cols))
	}
	return y
}

// GemmTInto computes Y = D · W, the batched input gradient of a linear layer:
// row i of Y is w.MulVecT(d.Row(i), ·), bit for bit — summed over w's rows in
// order, skipping the rows whose multiplier d[i][r] is zero.
func GemmTInto(d, w, y *Matrix) *Matrix {
	if d.Cols != w.Rows || y.Rows != d.Rows || y.Cols != w.Cols {
		panic(fmt.Sprintf("tensor: GemmTInto shape mismatch d %dx%d w %dx%d y %dx%d",
			d.Rows, d.Cols, w.Rows, w.Cols, y.Rows, y.Cols))
	}
	if d.Rows == 0 || !w.vec64() {
		for i := 0; i < d.Rows; i++ {
			w.MulVecT(d.Row(i), y.Row(i))
		}
		return y
	}
	_, _ = d.Data[:d.Rows*d.Cols], y.Data[:y.Rows*y.Cols]
	n := d.Rows &^ 1
	if n > 0 {
		gemmT64(&w.Data[0], &d.Data[0], &y.Data[0], int64(n), int64(w.Rows), int64(w.Cols))
	}
	if n < d.Rows { // the odd last d row
		mulVecT64(&w.Data[0], &d.Data[n*d.Cols], &y.Data[n*y.Cols], int64(w.Rows), int64(w.Cols))
	}
	return y
}

// AddOuterRowsInPlace performs m += Dᵀ · X, the batched weight gradient of a
// linear layer: bit for bit m.AddOuterInPlace(1, d.Row(s), x.Row(s)) for
// s = 0, 1, … in order, so every element is a sum in sample order that skips
// the samples whose multiplier d[s][r] is zero. The tiled kernel loads each
// element of m once per call rather than once per sample.
func (m *Matrix) AddOuterRowsInPlace(d, x *Matrix) *Matrix {
	if d.Rows != x.Rows || d.Cols != m.Rows || x.Cols != m.Cols {
		panic(fmt.Sprintf("tensor: AddOuterRowsInPlace shape mismatch m %dx%d d %dx%d x %dx%d",
			m.Rows, m.Cols, d.Rows, d.Cols, x.Rows, x.Cols))
	}
	if d.Rows == 0 || !m.vec64() {
		for s := 0; s < d.Rows; s++ {
			m.AddOuterInPlace(1, d.Row(s), x.Row(s))
		}
		return m
	}
	_, _ = d.Data[:d.Rows*d.Cols], x.Data[:x.Rows*x.Cols]
	pairs := m.Rows &^ 1
	if pairs > 0 {
		addOuterRows64(&m.Data[0], &d.Data[0], &x.Data[0], int64(d.Rows), int64(pairs), int64(m.Cols), int64(d.Cols))
	}
	if r := pairs; r < m.Rows { // the odd last row of m
		for s := 0; s < d.Rows; s++ {
			addOuter64(&m.Data[r*m.Cols], &d.Data[s*d.Cols+r], &x.Data[s*x.Cols], 1, 1, int64(m.Cols))
		}
	}
	return m
}
