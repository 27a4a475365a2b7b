package tensor

import (
	"fmt"
	"math"
	"testing"
)

func randMatrix(rng *RNG, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Range(-1, 1)
	}
	return m
}

func randVector(rng *RNG, n int) Vector {
	v := NewVector(n)
	for i := range v {
		v[i] = rng.Range(-1, 1)
	}
	return v
}

// naiveMulVec is the strictly sequential reference the unrolled kernels are
// compared against. Sequential accumulation and 4-way accumulation differ in
// rounding, so MulVec is checked against its own documented order instead;
// this reference pins down MulVecT and AxpyInPlace, whose per-element results
// are order-independent and must match exactly.
func naiveMulVecT(m *Matrix, v Vector) Vector {
	// MulVecT accumulates out[c] += m[r,c]*v[r] in row order; replicate that
	// exact order (a column-order sum would differ in rounding).
	out := NewVector(m.Cols)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			if v[r] == 0 {
				continue
			}
			out[c] += m.At(r, c) * v[r]
		}
	}
	return out
}

// mulVecDocumentedOrder recomputes MulVec's documented accumulation order
// (4-way unrolled, (s0+s1)+(s2+s3)) without slices, pinning the kernel's
// numerics across refactors.
func mulVecDocumentedOrder(m *Matrix, v Vector) Vector {
	out := NewVector(m.Rows)
	for r := 0; r < m.Rows; r++ {
		var s0, s1, s2, s3 float64
		c := 0
		for ; c+3 < m.Cols; c += 4 {
			s0 += m.At(r, c) * v[c]
			s1 += m.At(r, c+1) * v[c+1]
			s2 += m.At(r, c+2) * v[c+2]
			s3 += m.At(r, c+3) * v[c+3]
		}
		for ; c < m.Cols; c++ {
			s0 += m.At(r, c) * v[c]
		}
		out[r] = (s0 + s1) + (s2 + s3)
	}
	return out
}

// Tail widths (n%4 != 0) must produce exactly the documented accumulation.
func TestMulVecTailsExact(t *testing.T) {
	rng := NewRNG(11)
	for _, cols := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 48} {
		m := randMatrix(rng, 6, cols)
		v := randVector(rng, cols)
		got := m.MulVec(v, NewVector(6))
		want := mulVecDocumentedOrder(m, v)
		for r := range got {
			if got[r] != want[r] {
				t.Fatalf("cols=%d row %d: MulVec %v != documented order %v", cols, r, got[r], want[r])
			}
		}
	}
}

func TestMulVecTTailsExact(t *testing.T) {
	rng := NewRNG(12)
	for _, cols := range []int{1, 3, 5, 8, 13, 16, 31} {
		m := randMatrix(rng, 7, cols)
		v := randVector(rng, 7)
		v[3] = 0 // exercise the zero-skip branch
		got := m.MulVecT(v, NewVector(cols))
		want := naiveMulVecT(m, v)
		for c := range got {
			if got[c] != want[c] {
				t.Fatalf("cols=%d col %d: MulVecT %v != reference %v", cols, c, got[c], want[c])
			}
		}
	}
}

func TestAxpyTailsExact(t *testing.T) {
	rng := NewRNG(13)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 9, 16, 33} {
		v := randVector(rng, n)
		w := randVector(rng, n)
		a := rng.Range(-2, 2)
		want := NewVector(n)
		for i := range want {
			want[i] = v[i] + a*w[i]
		}
		v.AxpyInPlace(a, w)
		for i := range v {
			if v[i] != want[i] {
				t.Fatalf("n=%d i=%d: Axpy %v != naive %v", n, i, v[i], want[i])
			}
		}
	}
}

// MulVecAddBias must be bit-identical to MulVec followed by AddInPlace.
func TestMulVecAddBiasBitIdentical(t *testing.T) {
	rng := NewRNG(14)
	for _, cols := range []int{1, 3, 4, 6, 48, 96} {
		m := randMatrix(rng, 9, cols)
		v := randVector(rng, cols)
		b := randVector(rng, 9)
		want := m.MulVec(v, NewVector(9)).AddInPlace(b)
		got := m.MulVecAddBias(v, b, NewVector(9))
		for r := range got {
			if got[r] != want[r] {
				t.Fatalf("cols=%d row %d: MulVecAddBias %v != MulVec+Add %v", cols, r, got[r], want[r])
			}
		}
	}
}

// The float64 GEMM is per-row MulVec and must match it bit for bit.
func TestGemmIntoBitIdentical(t *testing.T) {
	rng := NewRNG(15)
	for _, shape := range [][3]int{{1, 5, 3}, {4, 48, 48}, {7, 43, 48}, {13, 96, 1}} {
		m, k, n := shape[0], shape[1], shape[2]
		x := randMatrix(rng, m, k)
		w := randMatrix(rng, n, k)
		b := randVector(rng, n)
		y := GemmBiasInto(x, w, b, NewMatrix(m, n))
		for i := 0; i < m; i++ {
			want := w.MulVec(x.Row(i), NewVector(n)).AddInPlace(b)
			for j := range want {
				if y.At(i, j) != want[j] {
					t.Fatalf("shape %v at (%d,%d): gemm %v != per-row %v", shape, i, j, y.At(i, j), want[j])
				}
			}
		}
	}
}

func randMatrix32(rng *RNG, rows, cols, stride int) *Matrix32 {
	m := NewMatrix32Strided(rows, cols, stride)
	for r := 0; r < rows; r++ {
		row := m.Row(r)
		for i := range row {
			row[i] = float32(rng.Range(-1, 1))
		}
	}
	return m
}

// gemm32F64Ref computes the layer in float64 for tolerance checks.
func gemm32F64Ref(x, wt *Matrix32, bias Vector32, act Act32, i, j int) float64 {
	s := float64(bias[j])
	for t := 0; t < x.Cols; t++ {
		s += float64(x.At(i, t)) * float64(wt.At(t, j))
	}
	if act == Act32LeakyReLU && s < 0 {
		s *= 0.01
	}
	return s
}

func TestGemm32BiasActInto(t *testing.T) {
	rng := NewRNG(17)
	for _, simd := range []bool{false, true} {
		if simd && !hasAVX2FMA {
			t.Log("no AVX2+FMA; skipping SIMD leg")
			continue
		}
		prev := SetSIMD(simd)
		for _, shape := range [][3]int{{1, 5, 3}, {2, 43, 48}, {4, 48, 48}, {5, 96, 48}, {7, 48, 1}, {64, 96, 48}, {3, 7, 17}} {
			m, k, n := shape[0], shape[1], shape[2]
			np := PadTo16(n)
			x := randMatrix32(rng, m, k, k)
			wt := randMatrix32(rng, k, n, np)
			bias := NewVector32(np)
			for j := 0; j < n; j++ {
				bias[j] = float32(rng.Range(-1, 1))
			}
			for _, act := range []Act32{Act32Identity, Act32LeakyReLU} {
				y := NewMatrix32Strided(m, n, np)
				Gemm32BiasActInto(x, wt, bias, y, act)
				for i := 0; i < m; i++ {
					for j := 0; j < n; j++ {
						want := gemm32F64Ref(x, wt, bias, act, i, j)
						got := float64(y.At(i, j))
						if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
							t.Fatalf("simd=%v shape %v act %d at (%d,%d): %v want %v", simd, shape, act, i, j, got, want)
						}
					}
					// Padding must stay zero so downstream gathers can read padded rows.
					for j := n; j < np; j++ {
						if y.At(i, j) != 0 {
							t.Fatalf("simd=%v shape %v: padding (%d,%d) = %v, want 0", simd, shape, i, j, y.At(i, j))
						}
					}
				}
			}
		}
		SetSIMD(prev)
	}
}

// The SIMD and portable kernels must agree to float32 rounding (FMA vs
// separate rounding), so compare with a tight relative tolerance.
func TestGemm32SimdMatchesGo(t *testing.T) {
	if on := SetSIMD(true); !SIMDEnabled() {
		SetSIMD(on)
		t.Skip("no AVX2+FMA on this machine")
	}
	rng := NewRNG(18)
	m, k, n := 13, 91, 48
	np := PadTo16(n)
	x := randMatrix32(rng, m, k, k)
	wt := randMatrix32(rng, k, n, np)
	bias := NewVector32(np)
	for j := 0; j < n; j++ {
		bias[j] = float32(rng.Range(-1, 1))
	}
	ySIMD := NewMatrix32Strided(m, n, np)
	yGo := NewMatrix32Strided(m, n, np)
	SetSIMD(true)
	Gemm32BiasActInto(x, wt, bias, ySIMD, Act32LeakyReLU)
	SetSIMD(false)
	Gemm32BiasActInto(x, wt, bias, yGo, Act32LeakyReLU)
	SetSIMD(true)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			a, b := float64(ySIMD.At(i, j)), float64(yGo.At(i, j))
			if math.Abs(a-b) > 1e-4*(1+math.Abs(b)) {
				t.Fatalf("(%d,%d): simd %v vs go %v", i, j, a, b)
			}
		}
	}
}

func TestTransposedPadded32(t *testing.T) {
	rng := NewRNG(19)
	w := randMatrix(rng, 48, 43) // out×in
	wt := TransposedPadded32(w)
	if wt.Rows != 43 || wt.Cols != 48 || wt.Stride != 48 {
		t.Fatalf("shape %dx%d stride %d", wt.Rows, wt.Cols, wt.Stride)
	}
	for j := 0; j < 48; j++ {
		for tt := 0; tt < 43; tt++ {
			if wt.At(tt, j) != float32(w.At(j, tt)) {
				t.Fatalf("(%d,%d) mismatch", tt, j)
			}
		}
	}
	w2 := randMatrix(rng, 1, 96) // head layer: out=1 pads to 16
	wt2 := TransposedPadded32(w2)
	if wt2.Stride != 16 {
		t.Fatalf("stride %d want 16", wt2.Stride)
	}
	for tt := 0; tt < 96; tt++ {
		for j := 1; j < 16; j++ {
			if wt2.At(tt, j) != 0 {
				t.Fatalf("padding (%d,%d) nonzero", tt, j)
			}
		}
	}
}

func BenchmarkGemm32(b *testing.B) {
	rng := NewRNG(20)
	m, k, n := 64, 96, 48
	np := PadTo16(n)
	x := randMatrix32(rng, m, k, k)
	wt := randMatrix32(rng, k, n, np)
	bias := NewVector32(np)
	y := NewMatrix32Strided(m, n, np)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm32BiasActInto(x, wt, bias, y, Act32LeakyReLU)
	}
	flops := 2 * float64(m) * float64(k) * float64(n)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
}

func ExamplePadTo16() {
	fmt.Println(PadTo16(1), PadTo16(16), PadTo16(48), PadTo16(49))
	// Output: 16 16 48 64
}
