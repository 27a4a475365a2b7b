package tensor

import "fmt"

// Float32 mirrors of the hot-path types. The compiled inference engine keeps
// its weights and activations in float32: half the memory traffic of float64
// and twice the SIMD lane count, which is where the fused forward pass gets
// most of its speed. Matrices carry an explicit row stride so columns can be
// padded to the 16-float width of the vector microkernels without copies.

// Vector32 is a dense float32 vector.
type Vector32 []float32

// NewVector32 returns a zeroed vector of length n.
func NewVector32(n int) Vector32 { return make(Vector32, n) }

// Matrix32 is a dense row-major float32 matrix with an explicit row stride
// (Stride >= Cols). Element (r, c) lives at Data[r*Stride+c]; columns
// [Cols, Stride) of each row are padding owned by the matrix.
type Matrix32 struct {
	Rows, Cols int
	Stride     int
	Data       []float32 // len == Rows*Stride
}

// NewMatrix32Strided returns a zeroed rows×cols matrix with the given row
// stride (>= cols). Use a stride rounded up to a multiple of 16 to make the
// matrix eligible for the assembly GEMM path.
func NewMatrix32Strided(rows, cols, stride int) *Matrix32 {
	if rows < 0 || cols < 0 || stride < cols {
		panic(fmt.Sprintf("tensor: bad Matrix32 shape %dx%d stride %d", rows, cols, stride))
	}
	return &Matrix32{Rows: rows, Cols: cols, Stride: stride, Data: make([]float32, rows*stride)}
}

// At returns the element at (r, c).
func (m *Matrix32) At(r, c int) float32 { return m.Data[r*m.Stride+c] }

// Row returns row r (without padding) sharing storage with m.
func (m *Matrix32) Row(r int) Vector32 {
	return Vector32(m.Data[r*m.Stride : r*m.Stride+m.Cols])
}

// PadTo16 returns n rounded up to the next multiple of 16, the column width
// of the vector microkernels (with a floor of 16 so a single block always
// exists).
func PadTo16(n int) int {
	if n <= 16 {
		return 16
	}
	return (n + 15) &^ 15
}

// TransposedPadded32 packs the nn.Linear weight layout (out×in, float64)
// into the K×Np float32 layout the fused GEMM consumes: row t holds column t
// of the original weights, i.e. out[t, j] = w[j, t], with Np = PadTo16(out)
// and zeros in the padding columns.
func TransposedPadded32(w *Matrix) *Matrix32 {
	np := PadTo16(w.Rows)
	out := NewMatrix32Strided(w.Cols, w.Rows, np)
	for j := 0; j < w.Rows; j++ {
		row := w.Data[j*w.Cols : (j+1)*w.Cols]
		for t, x := range row {
			out.Data[t*np+j] = float32(x)
		}
	}
	return out
}
