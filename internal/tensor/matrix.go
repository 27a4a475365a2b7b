package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, Data[r*Cols+c]
}

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("tensor: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewMatrixFrom builds a matrix from a row slice of rows; all rows must have
// equal length.
func NewMatrixFrom(rows [][]float64) *Matrix {
	r := len(rows)
	if r == 0 {
		return NewMatrix(0, 0)
	}
	c := len(rows[0])
	m := NewMatrix(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("tensor: ragged rows: row %d has %d cols, want %d", i, len(row), c))
		}
		copy(m.Row(i), row)
	}
	return m
}

// At returns the element at (r, c).
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set writes the element at (r, c).
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Row returns row r as a Vector sharing storage with m.
func (m *Matrix) Row(r int) Vector { return Vector(m.Data[r*m.Cols : (r+1)*m.Cols]) }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero resets every element to 0 and returns m.
func (m *Matrix) Zero() *Matrix {
	for i := range m.Data {
		m.Data[i] = 0
	}
	return m
}

// RandomizeXavier fills m with Xavier/Glorot-uniform values for a layer with
// fanIn inputs and fanOut outputs.
func (m *Matrix) RandomizeXavier(rng *RNG, fanIn, fanOut int) *Matrix {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range m.Data {
		m.Data[i] = rng.Range(-limit, limit)
	}
	return m
}

// RandomizeHe fills m with He-normal values for ReLU layers with fanIn inputs.
func (m *Matrix) RandomizeHe(rng *RNG, fanIn int) *Matrix {
	std := math.Sqrt(2.0 / float64(fanIn))
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
	return m
}

// MulVec computes out = m · v. out must have length m.Rows and v length
// m.Cols; out is returned for chaining. out must not alias v.
//
// The dot product is 4-way unrolled with independent accumulators; the
// partial sums are combined in a fixed order, so results are deterministic
// (though not bit-identical to a strictly sequential accumulation).
//
// Like every float64 vector path here (MulVecAddBias, MulVecT,
// AddOuterInPlace, AxpyInPlace, AddInPlace), MulVec runs an AVX2 kernel
// whenever Kernel() is not "portable", and the loop below otherwise. The two
// are bit-identical: the kernel's four vector lanes are the loop's four
// accumulators, it multiplies and adds in separate instructions (never a
// fused multiply-add) with the loop's operand order, and it keeps the tail,
// the zero skips and the final (s0+s1)+(s2+s3) where the loop has them. So a
// model trains to the same bits under any kernel.
func (m *Matrix) MulVec(v, out Vector) Vector {
	mustSameLen(len(v), m.Cols)
	mustSameLen(len(out), m.Rows)
	if m.vec64() {
		mulVec64(&m.Data[0], &v[0], nil, &out[0], int64(m.Rows), int64(m.Cols))
		return out
	}
	n := m.Cols
	v = v[:n] // bounds-check elimination: inner loops index v[c..c+3] with c+3 < n
	for r := 0; r < m.Rows; r++ {
		row := m.Data[r*n : r*n+n : r*n+n]
		var s0, s1, s2, s3 float64
		c := 0
		for ; c+3 < n; c += 4 {
			s0 += row[c] * v[c]
			s1 += row[c+1] * v[c+1]
			s2 += row[c+2] * v[c+2]
			s3 += row[c+3] * v[c+3]
		}
		for ; c < n; c++ {
			s0 += row[c] * v[c]
		}
		out[r] = (s0 + s1) + (s2 + s3)
	}
	return out
}

// MulVecAddBias computes out = m · v + b in one pass. It is bit-identical to
// m.MulVec(v, out) followed by out.AddInPlace(b): each dot product uses the
// same 4-way unrolled accumulation and the bias is added last as a single
// final term. out must not alias v or b.
func (m *Matrix) MulVecAddBias(v, b, out Vector) Vector {
	mustSameLen(len(v), m.Cols)
	mustSameLen(len(b), m.Rows)
	mustSameLen(len(out), m.Rows)
	if m.vec64() {
		mulVec64(&m.Data[0], &v[0], &b[0], &out[0], int64(m.Rows), int64(m.Cols))
		return out
	}
	n := m.Cols
	v = v[:n]
	for r := 0; r < m.Rows; r++ {
		row := m.Data[r*n : r*n+n : r*n+n]
		var s0, s1, s2, s3 float64
		c := 0
		for ; c+3 < n; c += 4 {
			s0 += row[c] * v[c]
			s1 += row[c+1] * v[c+1]
			s2 += row[c+2] * v[c+2]
			s3 += row[c+3] * v[c+3]
		}
		for ; c < n; c++ {
			s0 += row[c] * v[c]
		}
		out[r] = ((s0 + s1) + (s2 + s3)) + b[r]
	}
	return out
}

// MulVecT computes out = mᵀ · v, i.e. out[c] = Σ_r m[r,c]·v[r]. out must have
// length m.Cols and v length m.Rows. out must not alias v.
func (m *Matrix) MulVecT(v, out Vector) Vector {
	mustSameLen(len(v), m.Rows)
	mustSameLen(len(out), m.Cols)
	if m.vec64() {
		mulVecT64(&m.Data[0], &v[0], &out[0], int64(m.Rows), int64(m.Cols))
		return out
	}
	out.Zero()
	n := m.Cols
	out = out[:n] // bounds-check elimination for the unrolled column loop
	for r := 0; r < m.Rows; r++ {
		vr := v[r]
		if vr == 0 {
			continue
		}
		row := m.Data[r*n : r*n+n : r*n+n]
		c := 0
		for ; c+3 < n; c += 4 {
			out[c] += row[c] * vr
			out[c+1] += row[c+1] * vr
			out[c+2] += row[c+2] * vr
			out[c+3] += row[c+3] * vr
		}
		for ; c < n; c++ {
			out[c] += row[c] * vr
		}
	}
	return out
}

// AddOuterInPlace performs m += a · (u ⊗ v), the rank-1 update used for
// gradient accumulation: m[r,c] += a*u[r]*v[c].
func (m *Matrix) AddOuterInPlace(a float64, u, v Vector) *Matrix {
	mustSameLen(len(u), m.Rows)
	mustSameLen(len(v), m.Cols)
	if m.vec64() {
		addOuter64(&m.Data[0], &u[0], &v[0], a, int64(m.Rows), int64(m.Cols))
		return m
	}
	n := m.Cols
	for r := 0; r < m.Rows; r++ {
		au := a * u[r]
		if au == 0 {
			continue
		}
		row := m.Data[r*n : (r+1)*n]
		c := 0
		for ; c+3 < n; c += 4 {
			row[c] += au * v[c]
			row[c+1] += au * v[c+1]
			row[c+2] += au * v[c+2]
			row[c+3] += au * v[c+3]
		}
		for ; c < n; c++ {
			row[c] += au * v[c]
		}
	}
	return m
}

// AddInPlace adds w element-wise into m. Shapes must match.
func (m *Matrix) AddInPlace(w *Matrix) *Matrix {
	m.mustSameShape(w)
	for i := range m.Data {
		m.Data[i] += w.Data[i]
	}
	return m
}

// ScaleInPlace multiplies every element by a.
func (m *Matrix) ScaleInPlace(a float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= a
	}
	return m
}

// FrobeniusNorm returns sqrt(Σ m[i]²).
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, x := range m.Data {
		s += x * x
	}
	return math.Sqrt(s)
}

// HasNaN reports whether any element is NaN or ±Inf.
func (m *Matrix) HasNaN() bool {
	for _, x := range m.Data {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
	}
	return false
}

// vec64 reports whether m's vector paths run the AVX2 kernels: a vector
// kernel is active and m is not empty. It first checks that Data holds
// Rows×Cols elements, which the kernels read without bounds checks.
func (m *Matrix) vec64() bool {
	_ = m.Data[:m.Rows*m.Cols]
	return active != kernelPortable && m.Rows > 0 && m.Cols > 0
}

func (m *Matrix) mustSameShape(w *Matrix) {
	if m.Rows != w.Rows || m.Cols != w.Cols {
		panic(fmt.Sprintf("tensor: shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, w.Rows, w.Cols))
	}
}
