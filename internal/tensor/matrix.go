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
// Every product is fused into its sum (math.FMA, one rounding per term) in
// one documented order: four partial sums, s_j over the columns c ≡ j (mod 4)
// below m.Cols&^3 in column order, then the tail columns into s0, then
// out[r] = (s0+s1)+(s2+s3). The order is deterministic, though not a strictly
// sequential accumulation.
//
// Like every float64 vector path here (MulVecAddBias, MulVecT,
// AddOuterInPlace, AxpyInPlace, AddInPlace and the batched kernels of
// gemm.go), MulVec runs an AVX2+FMA kernel whenever Kernel() is not
// "portable", and the loop below otherwise. The two are bit-identical: the
// kernel's four vector lanes are the loop's four partial sums, each term is
// one VFMADD231PD where the loop calls math.FMA, and it keeps the tail and
// the final (s0+s1)+(s2+s3) where the loop has them. So a model trains to the
// same bits under any kernel.
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
			s0 = math.FMA(row[c], v[c], s0)
			s1 = math.FMA(row[c+1], v[c+1], s1)
			s2 = math.FMA(row[c+2], v[c+2], s2)
			s3 = math.FMA(row[c+3], v[c+3], s3)
		}
		for ; c < n; c++ {
			s0 = math.FMA(row[c], v[c], s0)
		}
		out[r] = (s0 + s1) + (s2 + s3)
	}
	return out
}

// MulVecAddBias computes out = m · v + b in one pass. It is bit-identical to
// m.MulVec(v, out) followed by out.AddInPlace(b): each dot product runs
// MulVec's order and the bias is added last as a single final term. out must
// not alias v or b.
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
			s0 = math.FMA(row[c], v[c], s0)
			s1 = math.FMA(row[c+1], v[c+1], s1)
			s2 = math.FMA(row[c+2], v[c+2], s2)
			s3 = math.FMA(row[c+3], v[c+3], s3)
		}
		for ; c < n; c++ {
			s0 = math.FMA(row[c], v[c], s0)
		}
		out[r] = ((s0 + s1) + (s2 + s3)) + b[r]
	}
	return out
}

// MulVecT computes out = mᵀ · v, i.e. out[c] = Σ_r m[r,c]·v[r]. out must have
// length m.Cols and v length m.Rows. out must not alias v. Each out[c] starts
// at +0 and takes out[c] = fma(m[r,c], v[r], out[c]) for every r in order.
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
		row := m.Data[r*n : r*n+n : r*n+n]
		c := 0
		for ; c+3 < n; c += 4 {
			out[c] = math.FMA(row[c], vr, out[c])
			out[c+1] = math.FMA(row[c+1], vr, out[c+1])
			out[c+2] = math.FMA(row[c+2], vr, out[c+2])
			out[c+3] = math.FMA(row[c+3], vr, out[c+3])
		}
		for ; c < n; c++ {
			out[c] = math.FMA(row[c], vr, out[c])
		}
	}
	return out
}

// AddOuterInPlace performs m += a · (u ⊗ v), the rank-1 update used for
// gradient accumulation: m[r,c] = fma(au, v[c], m[r,c]) with au = a·u[r]
// rounded on its own.
func (m *Matrix) AddOuterInPlace(a float64, u, v Vector) *Matrix {
	mustSameLen(len(u), m.Rows)
	mustSameLen(len(v), m.Cols)
	if m.vec64() {
		addOuter64(&m.Data[0], &u[0], &v[0], a, int64(m.Rows), int64(m.Cols))
		return m
	}
	n := m.Cols
	for r := 0; r < m.Rows; r++ {
		au := float64(a * u[r])
		row := m.Data[r*n : (r+1)*n]
		c := 0
		for ; c+3 < n; c += 4 {
			row[c] = math.FMA(au, v[c], row[c])
			row[c+1] = math.FMA(au, v[c+1], row[c+1])
			row[c+2] = math.FMA(au, v[c+2], row[c+2])
			row[c+3] = math.FMA(au, v[c+3], row[c+3])
		}
		for ; c < n; c++ {
			row[c] = math.FMA(au, v[c], row[c])
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

// HasNaN reports whether any element is NaN or ±Inf.
func (m *Matrix) HasNaN() bool {
	for _, x := range m.Data {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
	}
	return false
}

// vec64 reports whether m's vector paths run the AVX2+FMA kernels: a vector
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
