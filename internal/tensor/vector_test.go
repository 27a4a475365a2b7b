package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

func TestVectorCloneIsDeep(t *testing.T) {
	v := Vector{1, 2, 3}
	w := v.Clone()
	w[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestVectorZeroFill(t *testing.T) {
	v := NewVector(4).Fill(2.5)
	for _, x := range v {
		if x != 2.5 {
			t.Fatalf("Fill failed: %v", v)
		}
	}
	v.Zero()
	for _, x := range v {
		if x != 0 {
			t.Fatalf("Zero failed: %v", v)
		}
	}
}

func TestVectorArithmetic(t *testing.T) {
	v := Vector{1, 2, 3}
	v.AddInPlace(Vector{10, 20, 30})
	if v[2] != 33 {
		t.Fatalf("AddInPlace: %v", v)
	}
	v.SubInPlace(Vector{1, 1, 1})
	if v[0] != 10 {
		t.Fatalf("SubInPlace: %v", v)
	}
	v.ScaleInPlace(0.5)
	if v[1] != 10.5 {
		t.Fatalf("ScaleInPlace: %v", v)
	}
	v = Vector{1, 0, 0}
	v.AxpyInPlace(2, Vector{1, 2, 3})
	if v[0] != 3 || v[2] != 6 {
		t.Fatalf("AxpyInPlace: %v", v)
	}
}

func TestVectorLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	Vector{1, 2}.AddInPlace(Vector{1})
}

func TestDotAndNorm(t *testing.T) {
	v := Vector{3, 4}
	if v.Dot(v) != 25 {
		t.Fatalf("Dot: %v", v.Dot(v))
	}
}

func TestSumMeanMaxMinArgMin(t *testing.T) {
	v := Vector{4, -1, 7, 2}
	if v.Sum() != 12 {
		t.Fatalf("Sum: %v", v.Sum())
	}
	if v.Mean() != 3 {
		t.Fatalf("Mean: %v", v.Mean())
	}
	if v.Max() != 7 || v.Min() != -1 {
		t.Fatalf("Max/Min: %v %v", v.Max(), v.Min())
	}
	if (Vector{}).Mean() != 0 {
		t.Fatal("empty Mean should be 0")
	}
}

func TestHasNaN(t *testing.T) {
	if (Vector{1, 2}).HasNaN() {
		t.Fatal("false positive")
	}
	if !(Vector{1, math.NaN()}).HasNaN() {
		t.Fatal("missed NaN")
	}
	if !(Vector{math.Inf(1)}).HasNaN() {
		t.Fatal("missed Inf")
	}
}

func TestConcat(t *testing.T) {
	v := Concat(Vector{1}, Vector{2, 3}, Vector{})
	if len(v) != 3 || v[2] != 3 {
		t.Fatalf("Concat: %v", v)
	}
}

// Property: dot product is commutative and bilinear in the first argument.
func TestDotProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		n := len(raw) / 2
		v, w := Vector(raw[:n]), Vector(raw[n:2*n])
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				return true // skip pathological inputs
			}
		}
		if !almostEq(v.Dot(w), w.Dot(v)) {
			return false
		}
		v2 := v.Clone().ScaleInPlace(2)
		return almostEq(v2.Dot(w), 2*v.Dot(w))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the norm Dot induces is absolutely homogeneous: ‖a·v‖ = |a|·‖v‖.
func TestNormHomogeneity(t *testing.T) {
	f := func(raw []float64, a float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.Abs(a) > 1e3 {
			return true
		}
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e3 {
				return true
			}
		}
		v := Vector(raw)
		scaled := v.Clone().ScaleInPlace(a)
		return almostEq(math.Sqrt(scaled.Dot(scaled)), math.Abs(a)*math.Sqrt(v.Dot(v)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
