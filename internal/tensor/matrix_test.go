package tensor

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewMatrixFrom(t *testing.T) {
	m := NewMatrixFrom([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("shape %dx%d", m.Rows, m.Cols)
	}
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %v", m.At(2, 1))
	}
}

func TestNewMatrixFromRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged input did not panic")
		}
	}()
	NewMatrixFrom([][]float64{{1, 2}, {3}})
}

func TestMatrixSetRowClone(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatal("Set/At mismatch")
	}
	r := m.Row(1)
	r[0] = 5 // Row shares storage
	if m.At(1, 0) != 5 {
		t.Fatal("Row must alias matrix storage")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Fatal("Clone must not alias")
	}
}

func TestMulVec(t *testing.T) {
	m := NewMatrixFrom([][]float64{{1, 2}, {3, 4}})
	out := m.MulVec(Vector{1, 1}, NewVector(2))
	if out[0] != 3 || out[1] != 7 {
		t.Fatalf("MulVec: %v", out)
	}
}

func TestMulVecT(t *testing.T) {
	m := NewMatrixFrom([][]float64{{1, 2}, {3, 4}})
	out := m.MulVecT(Vector{1, 1}, NewVector(2))
	if out[0] != 4 || out[1] != 6 {
		t.Fatalf("MulVecT: %v", out)
	}
}

func TestAddOuterInPlace(t *testing.T) {
	m := NewMatrix(2, 2)
	m.AddOuterInPlace(2, Vector{1, 3}, Vector{5, 7})
	// m[r][c] = 2*u[r]*v[c]
	want := [][]float64{{10, 14}, {30, 42}}
	for r := 0; r < 2; r++ {
		for c := 0; c < 2; c++ {
			if m.At(r, c) != want[r][c] {
				t.Fatalf("AddOuter at (%d,%d): %v", r, c, m.At(r, c))
			}
		}
	}
}

func TestMatrixAddScaleNorm(t *testing.T) {
	m := NewMatrixFrom([][]float64{{3, 0}, {0, 4}})
	m.AddInPlace(NewMatrixFrom([][]float64{{1, 1}, {1, 1}}))
	if m.At(0, 0) != 4 {
		t.Fatal("AddInPlace failed")
	}
	m.ScaleInPlace(0.5)
	if m.At(1, 1) != 2.5 {
		t.Fatal("ScaleInPlace failed")
	}
	m.Zero()
	for _, x := range m.Data {
		if x != 0 {
			t.Fatal("Zero failed")
		}
	}
}

func TestMatrixShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on shape mismatch")
		}
	}()
	NewMatrix(2, 2).AddInPlace(NewMatrix(2, 3))
}

func TestMatrixHasNaN(t *testing.T) {
	m := NewMatrix(1, 2)
	if m.HasNaN() {
		t.Fatal("false positive")
	}
	m.Set(0, 1, math.NaN())
	if !m.HasNaN() {
		t.Fatal("missed NaN")
	}
}

func TestRandomizeXavierBounds(t *testing.T) {
	rng := NewRNG(5)
	m := NewMatrix(16, 16).RandomizeXavier(rng, 16, 16)
	limit := math.Sqrt(6.0 / 32.0)
	for _, x := range m.Data {
		if math.Abs(x) > limit {
			t.Fatalf("Xavier value %v exceeds limit %v", x, limit)
		}
	}
	// Not all zero.
	if !slices.ContainsFunc(m.Data, func(x float64) bool { return x != 0 }) {
		t.Fatal("Xavier produced zero matrix")
	}
}

func TestRandomizeHeStd(t *testing.T) {
	rng := NewRNG(6)
	m := NewMatrix(100, 100).RandomizeHe(rng, 100)
	var sumSq float64
	for _, x := range m.Data {
		sumSq += x * x
	}
	std := math.Sqrt(sumSq / float64(len(m.Data)))
	want := math.Sqrt(2.0 / 100.0)
	if math.Abs(std-want) > 0.2*want {
		t.Fatalf("He std %v, want ≈ %v", std, want)
	}
}

// Property: (Mᵀ v) · w == v · (M w) — the adjoint identity that backprop
// correctness rests on.
func TestAdjointIdentity(t *testing.T) {
	rng := NewRNG(9)
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		rows, cols := 1+r.Intn(8), 1+r.Intn(8)
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = r.Range(-2, 2)
		}
		v := NewVector(rows)
		for i := range v {
			v[i] = r.Range(-2, 2)
		}
		w := NewVector(cols)
		for i := range w {
			w[i] = r.Range(-2, 2)
		}
		left := m.MulVecT(v, NewVector(cols)).Dot(w)
		right := v.Dot(m.MulVec(w, NewVector(rows)))
		return almostEq(left, right)
	}
	for i := 0; i < 200; i++ {
		if !f(rng.Uint64()) {
			t.Fatal("adjoint identity violated")
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
