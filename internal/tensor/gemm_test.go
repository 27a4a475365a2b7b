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

// naiveMulVecT is the strictly sequential reference MulVecT is compared
// against: its per-element results do not depend on the unrolling and must
// match exactly. (MulVec is checked against its own documented order
// instead, which is not a sequential sum.)
func naiveMulVecT(m *Matrix, v Vector) Vector {
	// MulVecT accumulates out[c] = fma(m[r,c], v[r], out[c]) in row order;
	// replicate that exact order (a column-order sum would differ in
	// rounding).
	out := NewVector(m.Cols)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			out[c] = math.FMA(m.At(r, c), v[r], out[c])
		}
	}
	return out
}

// mulVecDocumentedOrder recomputes MulVec's documented accumulation order
// (four fused partial sums, (s0+s1)+(s2+s3)) without slices, pinning the
// kernel's numerics across refactors.
func mulVecDocumentedOrder(m *Matrix, v Vector) Vector {
	out := NewVector(m.Rows)
	for r := 0; r < m.Rows; r++ {
		var s0, s1, s2, s3 float64
		c := 0
		for ; c+3 < m.Cols; c += 4 {
			s0 = math.FMA(m.At(r, c), v[c], s0)
			s1 = math.FMA(m.At(r, c+1), v[c+1], s1)
			s2 = math.FMA(m.At(r, c+2), v[c+2], s2)
			s3 = math.FMA(m.At(r, c+3), v[c+3], s3)
		}
		for ; c < m.Cols; c++ {
			s0 = math.FMA(m.At(r, c), v[c], s0)
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
		v[3] = 0 // a zero multiplier is a term like any other
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
			want[i] = math.FMA(a, w[i], v[i])
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

// eachKernel runs fn once per GEMM kernel with that kernel pinned, skipping
// the ones this CPU cannot run.
func eachKernel(t *testing.T, fn func(t *testing.T)) {
	for _, name := range kernelNames {
		t.Run(name, func(t *testing.T) {
			defer SetSIMD(SetSIMD(name))
			if Kernel() != name {
				t.Skipf("this CPU has no %s kernel", name)
			}
			fn(t)
		})
	}
}

// gemm32Case is one randomly filled layer: x and y carry extra stride so a
// kernel that assumed dense rows would show.
type gemm32Case struct {
	x, wt *Matrix32
	bias  Vector32
	n, np int
}

func newGemm32Case(rng *RNG, m, k, n, xPad int) gemm32Case {
	np := PadTo16(n)
	c := gemm32Case{x: randMatrix32(rng, m, k, k+xPad), wt: randMatrix32(rng, k, n, np), bias: NewVector32(np), n: n, np: np}
	for j := 0; j < n; j++ {
		c.bias[j] = float32(rng.Range(-1, 1))
	}
	return c
}

// run computes the layer into a fresh y whose stride exceeds np by yPad.
func (c gemm32Case) run(act Act32, yPad int) *Matrix32 {
	y := NewMatrix32Strided(c.x.Rows, c.n, c.np+yPad)
	Gemm32BiasActInto(c.x, c.wt, c.bias, y, act)
	return y
}

func TestGemm32BiasActInto(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		rng := NewRNG(17)
		for _, shape := range [][3]int{{1, 5, 3}, {2, 43, 48}, {4, 48, 48}, {5, 96, 48}, {7, 48, 1}, {9, 47, 48}, {64, 96, 48}, {3, 7, 17}} {
			m, k, n := shape[0], shape[1], shape[2]
			c := newGemm32Case(rng, m, k, n, 0)
			for _, act := range []Act32{Act32Identity, Act32LeakyReLU} {
				y := c.run(act, 0)
				for i := 0; i < m; i++ {
					for j := 0; j < n; j++ {
						want := gemm32F64Ref(c.x, c.wt, c.bias, act, i, j)
						got := float64(y.At(i, j))
						if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
							t.Fatalf("shape %v act %d at (%d,%d): %v want %v", shape, act, i, j, got, want)
						}
					}
					// Padding must stay zero so downstream gathers can read padded rows.
					for j := n; j < c.np; j++ {
						if y.At(i, j) != 0 {
							t.Fatalf("shape %v: padding (%d,%d) = %v, want 0", shape, i, j, y.At(i, j))
						}
					}
				}
			}
		}
	})
}

// The vector and portable kernels must agree to float32 rounding (FMA vs
// separate rounding), so compare with a tight relative tolerance.
func TestGemm32SimdMatchesGo(t *testing.T) {
	c := newGemm32Case(NewRNG(18), 13, 91, 48, 0)
	defer SetSIMD(SetSIMD("portable"))
	yGo := c.run(Act32LeakyReLU, 0)
	eachKernel(t, func(t *testing.T) {
		y := c.run(Act32LeakyReLU, 0)
		for i := 0; i < c.x.Rows; i++ {
			for j := 0; j < c.n; j++ {
				a, b := float64(y.At(i, j)), float64(yGo.At(i, j))
				if math.Abs(a-b) > 1e-4*(1+math.Abs(b)) {
					t.Fatalf("(%d,%d): %s %v vs go %v", i, j, Kernel(), a, b)
				}
			}
		}
	})
}

// The AVX-512 kernel must reproduce the AVX2 kernel bit for bit: served
// answers and the golden files may not depend on which of the two a CPU
// selects. Exact comparison of every float of y, padding included, over the
// row counts around both kernels' group sizes and tails, the layer widths the
// model runs plus awkward ones, strided x and y, and rows of non-finite and
// signed-zero inputs through both activations.
func TestGemm32AVX512MatchesAVX2(t *testing.T) {
	if cpuKernel < kernelAVX512 {
		t.Skip("this CPU or OS lacks AVX-512F (CPUID.7:EBX bit 16, XCR0 bits 5-7)")
	}
	defer SetSIMD(Kernel())
	rng := NewRNG(21)
	nan, inf, negZero := float32(math.NaN()), float32(math.Inf(1)), float32(math.Copysign(0, -1))
	for _, m := range []int{4, 5, 7, 8, 9, 12, 13, 16, 64} {
		for _, k := range []int{1, 6, 47, 48, 96} {
			for _, n := range []int{1, 16, 17, 48} {
				c := newGemm32Case(rng, m, k, n, 3)
				// Rows 1–3 carry the values a comparison by tolerance would
				// wave through: a NaN, infinities of both signs, and all
				// negative zeros (with a zero bias the sum stays -0).
				c.x.Row(1)[k/2] = nan
				c.x.Row(2)[0], c.x.Row(2)[k-1] = inf, -inf
				for t := range c.x.Row(3) {
					c.x.Row(3)[t] = negZero
				}
				for _, act := range []Act32{Act32Identity, Act32LeakyReLU} {
					SetSIMD("avx2")
					want := c.run(act, 16)
					SetSIMD("avx512")
					got := c.run(act, 16)
					for i, w := range want.Data {
						if g := got.Data[i]; math.Float32bits(g) != math.Float32bits(w) {
							t.Fatalf("m=%d k=%d n=%d act %d at (%d,%d): avx512 %v (%#x) != avx2 %v (%#x)",
								m, k, n, act, i/want.Stride, i%want.Stride, g, math.Float32bits(g), w, math.Float32bits(w))
						}
					}
					// Padding stays zero: the kernel's own columns [n, np) on
					// finite rows (NaN·0 is NaN), the columns past np it must
					// not touch on every row.
					for i := 0; i < m; i++ {
						from := n
						if i == 1 || i == 2 {
							from = c.np
						}
						for j := from; j < got.Stride; j++ {
							if got.Data[i*got.Stride+j] != 0 {
								t.Fatalf("m=%d k=%d n=%d: padding (%d,%d) = %v, want 0", m, k, n, i, j, got.Data[i*got.Stride+j])
							}
						}
					}
				}
			}
		}
	}
}

// The selection rule over the three words it reads. The XCR0 rows are the ones
// that crash in production when wrong: a CPU that advertises a vector
// extension under an OS (or hypervisor) that does not save its registers.
func TestKernelFor(t *testing.T) {
	const (
		fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
		avx2, avx512f     = 1 << 5, 1 << 16
		all1              = fma | osxsave | avx
	)
	for _, tc := range []struct {
		name             string
		ecx1, ebx7, xcr0 uint32
		want             kernel
	}{
		{"nothing", 0, 0, 0, kernelPortable},
		{"avx512 box", all1, avx2 | avx512f, 0xe7, kernelAVX512},
		{"avx512f, OS saves ymm only", all1, avx2 | avx512f, 0x07, kernelAVX2},
		{"avx512f, zmm halves but no opmask", all1, avx2 | avx512f, 0xc7, kernelAVX2},
		{"avx512f, opmask and low zmm only", all1, avx2 | avx512f, 0x67, kernelAVX2},
		{"avx2 box", all1, avx2, 0x07, kernelAVX2},
		{"avx2 box with stray zmm state bits", all1, avx2, 0xe7, kernelAVX2},
		{"avx2, OS saves xmm only", all1, avx2 | avx512f, 0x03, kernelPortable},
		{"no OSXSAVE", fma | avx, avx2 | avx512f, 0, kernelPortable},
		{"no FMA", osxsave | avx, avx2 | avx512f, 0xe7, kernelPortable},
		{"AVX without AVX2", all1, 0, 0x07, kernelPortable},
		{"avx512f without avx2", all1, avx512f, 0xe7, kernelPortable},
	} {
		if got := kernelFor(tc.ecx1, tc.ebx7, tc.xcr0); got != tc.want {
			t.Errorf("%s: kernelFor(%#x, %#x, %#x) = %s, want %s", tc.name, tc.ecx1, tc.ebx7, tc.xcr0, kernelNames[got], kernelNames[tc.want])
		}
	}
}

// SetSIMD clamps to what the CPU has, returns the previous kernel by name and
// refuses names that are not kernels.
func TestSetSIMD(t *testing.T) {
	start := Kernel()
	defer SetSIMD(start)
	// CI's bench-snapshot job greps this line: which kernel its numbers are of.
	t.Logf("start-up kernel: %s (widest this CPU runs: %s)", start, kernelNames[cpuKernel])
	if prev := SetSIMD("portable"); prev != start || Kernel() != "portable" || SIMDEnabled() {
		t.Fatalf("SetSIMD(portable) = %q with %q active (SIMDEnabled %v), want %q and portable", prev, Kernel(), SIMDEnabled(), start)
	}
	SetSIMD("avx512")
	if got, want := Kernel(), kernelNames[cpuKernel]; got != want {
		t.Fatalf("SetSIMD(avx512) selected %q, the widest this CPU has is %q", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetSIMD accepted a name that is no kernel")
		}
	}()
	SetSIMD("sse9")
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

// The float64 vector kernels must reproduce the portable loops bit for bit:
// training runs on them, and a model may not depend on the CPU it was trained
// on. Every primitive with a vector path, the batched GemmBiasInto, GemmTInto
// and AddOuterRowsInPlace and the Adam update included, is compared, by Float64bits, with the
// portable kernel over the GNN's widths (6, 47, 48, 96 columns; 1 and 48
// rows), widths below 4 and every 1–3 element tail, odd and even row and
// sample counts up to 113 (tile remainders), on operands salted with
// zeros and negative zeros so zero multipliers and the sign of a zero sum
// both show, and with a NaN multiplier.
// Then every primitive, under every kernel, the portable one included, runs
// on operands where a fused multiply-add and a twice-rounded one differ (see
// fusedCase) and must give the fused bits.
func TestF64KernelsMatchPortable(t *testing.T) {
	negZero := math.Copysign(0, -1)
	salt := func(v Vector) {
		for i := range v {
			switch i % 5 {
			case 1:
				v[i] = 0
			case 3:
				v[i] = negZero
			}
		}
	}
	type result struct {
		name string
		vals Vector
	}
	// run computes every primitive on fresh operands drawn from one seed, so
	// two calls see identical inputs.
	run := func(rows, cols int) []result {
		rng := NewRNG(uint64(31 + rows*1000 + cols))
		m := randMatrix(rng, rows, cols)
		salt(m.Data)
		vc, vr := randVector(rng, cols), randVector(rng, rows)
		salt(vc)
		salt(vr)
		if rows > 2 {
			vr[2] = math.NaN()
		}
		b := randVector(rng, rows)
		// A row of -0 weights against a -0 multiplier: the sign of a zero sum
		// shows.
		for c := 0; c < cols; c++ {
			m.Set(0, c, negZero)
		}
		// The batched kernels run over k = rows samples, so the sample count
		// takes the same odd, even and tile-remainder values as the widths.
		x := randMatrix(rng, rows, cols)
		d := randMatrix(rng, rows, rows)
		salt(d.Data)
		if rows > 2 {
			d.Set(rows/2, 2, math.NaN())
		}
		d.Set(0, 0, negZero) // meets the row of -0 weights
		acc := m.Clone()
		axpy := vc.Clone()
		// One Adam step over the matrix's elements: gradients salted like
		// the operands, moments drawn positive for the second one.
		adamVal, adamGrad := m.Clone().Data, m.Clone().Data
		salt(adamGrad)
		adamM, adamV := randVector(rng, rows*cols), randVector(rng, rows*cols)
		for i := range adamV {
			adamV[i] *= adamV[i]
		}
		adamC := AdamCoeffs{
			Beta1: 0.9, Beta2: 0.999, BC1: 1 - 0.9*0.9, BC2: 1 - 0.999*0.999,
			LR: 3e-3, Eps: 1e-8, WD: 1e-5,
		}
		clipVal, clipM, clipV := Vector(adamVal).Clone(), adamM.Clone(), adamV.Clone()
		AdamInPlace(adamVal, adamGrad, adamM, adamV, 1, &adamC)
		AdamInPlace(clipVal, adamGrad, clipM, clipV, 0.3713, &adamC)
		return []result{
			{"AdamInPlace", Concat(adamVal, adamM, adamV)},
			{"AdamInPlace(gradScale)", Concat(clipVal, clipM, clipV)},
			{"MulVec", m.MulVec(vc, NewVector(rows))},
			{"MulVecAddBias", m.MulVecAddBias(vc, b, NewVector(rows))},
			{"MulVecT", m.MulVecT(vr, NewVector(cols))},
			{"AddOuterInPlace", acc.AddOuterInPlace(0.75, vr, vc).Data},
			{"AddOuterInPlace(a=-0)", m.Clone().AddOuterInPlace(negZero, vr, vc).Data},
			{"AxpyInPlace", axpy.AxpyInPlace(-1.25, randVector(NewRNG(uint64(cols)), cols))},
			{"AddInPlace", vc.Clone().AddInPlace(axpy)},
			{"GemmBiasInto", GemmBiasInto(x, m, b, NewMatrix(rows, rows)).Data},
			{"GemmTInto", GemmTInto(d, m, NewMatrix(rows, cols)).Data},
			{"AddOuterRowsInPlace", m.Clone().AddOuterRowsInPlace(d, x).Data},
		}
	}
	var shapes [][2]int
	for _, rows := range []int{1, 2, 3, 4, 5, 7, 48, 113} {
		for _, cols := range []int{1, 2, 3, 4, 5, 6, 7, 15, 16, 17, 18, 19, 47, 48, 96} {
			shapes = append(shapes, [2]int{rows, cols})
		}
	}
	prev := SetSIMD("portable")
	want := make([][]result, len(shapes))
	for i, s := range shapes {
		want[i] = run(s[0], s[1])
	}
	SetSIMD(prev)
	eachKernel(t, func(t *testing.T) {
		for i, s := range shapes {
			for j, got := range run(s[0], s[1]) {
				w := want[i][j]
				for k := range w.vals {
					if math.Float64bits(got.vals[k]) != math.Float64bits(w.vals[k]) {
						t.Fatalf("%s %dx%d [%d]: %s %v (%#x) != portable %v (%#x)", w.name, s[0], s[1], k,
							Kernel(), got.vals[k], math.Float64bits(got.vals[k]), w.vals[k], math.Float64bits(w.vals[k]))
					}
				}
			}
		}
		for _, c := range fusedCases() {
			if math.Float64bits(c.fused) == math.Float64bits(c.twice) {
				t.Fatalf("%s: the operands do not tell fused from twice-rounded (%v)", c.name, c.fused)
			}
			for k, got := range c.run() {
				if math.Float64bits(got) != math.Float64bits(c.fused) {
					t.Fatalf("%s [%d]: %s %v (%#x), want the fused %v (%#x); twice-rounded is %v", c.name, k,
						Kernel(), got, math.Float64bits(got), c.fused, math.Float64bits(c.fused), c.twice)
				}
			}
		}
	})
}

// TestAdamGradScaleIsAPreScale: reading the gradient scaled inside the update
// gives the bits of scaling it in place first (g *= s, as a global-norm clip
// does) and stepping on the stored product, under every kernel; a scale of 1
// reads the gradient as it is and leaves it unwritten.
func TestAdamGradScaleIsAPreScale(t *testing.T) {
	c := AdamCoeffs{Beta1: 0.9, Beta2: 0.999, BC1: 1 - 0.9*0.9, BC2: 1 - 0.999*0.999, LR: 3e-3, Eps: 1e-8, WD: 1e-5}
	eachKernel(t, func(t *testing.T) {
		for _, n := range []int{1, 3, 4, 7, 48, 97} {
			for _, scale := range []float64{1, 0.3713, 5 / 7.3} {
				rng := NewRNG(uint64(n))
				val, grad, m, v := randVector(rng, n), randVector(rng, n), randVector(rng, n), randVector(rng, n)
				for i := range v {
					v[i] *= v[i]
				}
				folded := []Vector{val.Clone(), m.Clone(), v.Clone()}
				orig := grad.Clone()
				AdamInPlace(folded[0], grad, folded[1], folded[2], scale, &c)
				for i := range grad {
					if math.Float64bits(grad[i]) != math.Float64bits(orig[i]) {
						t.Fatalf("n=%d scale %v: gradient [%d] written", n, scale, i)
					}
					grad[i] *= scale
				}
				AdamInPlace(val, grad, m, v, 1, &c)
				for k, want := range []Vector{val, m, v} {
					for i := range want {
						if math.Float64bits(folded[k][i]) != math.Float64bits(want[i]) {
							t.Fatalf("n=%d scale %v: operand %d [%d] %v, pre-scaled %v", n, scale, k, i, folded[k][i], want[i])
						}
					}
				}
			}
		}
	})
}

// fusedCase is one primitive on operands where a fused multiply-add and a
// product rounded before its sum part ways. With a = 1+2⁻²⁷ and b = 1−2⁻²⁷,
// a·b = 1−2⁻⁵⁴ exactly: fma(a, b, −1) = −2⁻⁵⁴, while a·b rounded is 1 and
// 1 + (−1) = 0. Every element run returns must be fused; twice is what it
// would be if some path rounded a product before adding it.
type fusedCase struct {
	name         string
	run          func() Vector
	fused, twice float64
}

func fusedCases() []fusedCase {
	const a, b = 1 + 0x1p-27, 1 - 0x1p-27
	const tiny = 0x1p-600 // tiny·tiny underflows: fma(−tiny, tiny, +0) is −0
	negZero := math.Copysign(0, -1)
	fill := func(n int, x float64) Vector { return NewVector(n).Fill(x) }
	rows := func(n int, row Vector) *Matrix {
		m := NewMatrix(n, len(row))
		for i := 0; i < n; i++ {
			copy(m.Row(i), row)
		}
		return m
	}
	// Nine columns, nine rows (a group of four, a quad and the rows they
	// leave): each lane goes to −1, then takes a·b — lane 0 in the tail
	// column, after a zero weight in its second step — so the four partial
	// sums are −2⁻⁵⁴ and the row is −2⁻⁵².
	dotW := rows(9, Vector{1, 1, 1, 1, 0, a, a, a, a})
	dotV := Vector{-1, -1, -1, -1, b, b, b, b, b}
	// Five columns of products that underflow to −0 when fused: each lane is
	// −0, and so is the row, unless the tail column touches lanes 1–3.
	zeroW, zeroV := rows(9, fill(5, -tiny)), fill(5, tiny)
	// 53 columns take every column block and tail: weight rows 1, 7 and a
	// against multipliers −1, 0 and b (7·0 adds +0 to −1).
	colW := rows(3, fill(53, 1))
	copy(colW.Row(1), fill(53, 7))
	copy(colW.Row(2), fill(53, a))
	colV := Vector{-1, 0, b}
	// One Adam step over five equal elements (four in a vector, one in the
	// tail), each coefficient set putting one fused site out of step with
	// its twice-rounded form.
	adam := func(c AdamCoeffs, g, m, v, val float64) (Vector, Vector, Vector) {
		vm, vv, vval := fill(5, m), fill(5, v), fill(5, val)
		AdamInPlace(vval, fill(5, g), vm, vv, 1, &c)
		return vm, vv, vval
	}
	// m = fma(¼b, 4a, −¾−2⁻²⁹) and v = fma(2a, 4a, −8).
	adamMV := AdamCoeffs{Beta1: 0.75 + 0x1p-29, Beta2: 0.5, BC1: 1, BC2: 1}
	// s = −¾, so fma(WD = a, val = ¾b, s) = −¾·2⁻⁵⁴, scaled by LR into val.
	adamU := AdamCoeffs{Beta1: 0.5, Beta2: 0.5, BC1: 1, BC2: 1, LR: 0x1p40, WD: a}
	// s = b, so val = fma(−a, b, 1) = 2⁻⁵⁴.
	adamVal := AdamCoeffs{Beta1: 0.5, Beta2: 0.5, BC1: 1, BC2: 1, LR: a}
	return []fusedCase{
		{"MulVec", func() Vector { return dotW.MulVec(dotV, NewVector(9)) }, -0x1p-52, 0},
		{"MulVec, underflow to -0", func() Vector { return zeroW.MulVec(zeroV, NewVector(9)) }, negZero, 0},
		{"MulVecAddBias", func() Vector { return dotW.MulVecAddBias(dotV, fill(9, 1), NewVector(9)) }, 1 - 0x1p-52, 1},
		{"GemmBiasInto", func() Vector { return GemmBiasInto(rows(9, dotV), dotW, fill(9, 1), NewMatrix(9, 9)).Data }, 1 - 0x1p-52, 1},
		{"GemmBiasInto, underflow to -0", func() Vector {
			return GemmBiasInto(rows(9, zeroV), zeroW, fill(9, negZero), NewMatrix(9, 9)).Data
		}, negZero, 0},
		{"MulVecT", func() Vector { return colW.MulVecT(colV, NewVector(53)) }, -0x1p-54, 0},
		{"GemmTInto", func() Vector { return GemmTInto(rows(5, colV), colW, NewMatrix(5, 53)).Data }, -0x1p-54, 0},
		{"AddOuterInPlace", func() Vector { return rows(3, fill(53, -1)).AddOuterInPlace(1, fill(3, b), fill(53, a)).Data }, -0x1p-54, 0},
		{"AddOuterRowsInPlace", func() Vector {
			d := NewMatrixFrom([][]float64{fill(5, b), fill(5, 0)})   // the second sample
			x := NewMatrixFrom([][]float64{fill(53, a), fill(53, 3)}) // adds 0·3 = +0
			return rows(5, fill(53, -1)).AddOuterRowsInPlace(d, x).Data
		}, -0x1p-54, 0},
		{"AxpyInPlace", func() Vector { return fill(21, -1).AxpyInPlace(a, fill(21, b)) }, -0x1p-54, 0},
		{"AdamInPlace m", func() Vector { m, _, _ := adam(adamMV, 4*a, -1, -16, 1); return m }, 0.25 - 0x1p-29 - 0x1p-54, 0.25 - 0x1p-29},
		{"AdamInPlace v", func() Vector { _, v, _ := adam(adamMV, 4*a, -1, -16, 1); return v }, 0x1p-23 + 0x1p-51, 0x1p-23},
		{"AdamInPlace fma(WD, val, s)", func() Vector { _, _, val := adam(adamU, 0, -1.5, 2, 0.75*b); return val }, 0.75*b + 3*0x1p-16, 0.75 * b},
		{"AdamInPlace fma(-LR, u, val)", func() Vector { _, _, val := adam(adamVal, 0, 2*b, 2, 1); return val }, 0x1p-54, 0},
	}
}
