package tensor

import "testing"

// Kernel micro-benchmarks at the shapes the GNN actually runs: hidden widths
// around 48–96 with concat inputs twice as wide.

func benchMatrix(rows, cols int, seed uint64) (*Matrix, Vector, Vector, Vector) {
	rng := NewRNG(seed)
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Range(-1, 1)
	}
	in := NewVector(cols)
	for i := range in {
		in[i] = rng.Range(-1, 1)
	}
	outRows := NewVector(rows)
	for i := range outRows {
		outRows[i] = rng.Range(-1, 1)
	}
	return m, in, outRows, NewVector(cols)
}

func BenchmarkMulVec(b *testing.B) {
	m, in, out, _ := benchMatrix(48, 96, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(in, out)
	}
}

func BenchmarkMulVecT(b *testing.B) {
	m, _, u, outCols := benchMatrix(48, 96, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVecT(u, outCols)
	}
}

func BenchmarkAddOuter(b *testing.B) {
	m, v, u, _ := benchMatrix(48, 96, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.AddOuterInPlace(0.5, u, v)
	}
}

// The batched kernels at one training minibatch's shape: 128 stacked rows
// (the operator nodes of 16 plans) through a 96→48 layer.

func benchRows(rows, cols int, seed uint64) *Matrix {
	rng := NewRNG(seed)
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Range(-1, 1)
	}
	return m
}

func BenchmarkGemmBias64(b *testing.B) {
	w, x, bias := benchRows(48, 96, 4), benchRows(128, 96, 5), NewVector(48)
	y := NewMatrix(128, 48)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmBiasInto(x, w, bias, y)
	}
}

func BenchmarkGemmT64(b *testing.B) {
	w, d := benchRows(48, 96, 6), benchRows(128, 48, 7)
	y := NewMatrix(128, 96)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmTInto(d, w, y)
	}
}

func BenchmarkAddOuterRows(b *testing.B) {
	g, d, x := NewMatrix(48, 96), benchRows(128, 48, 8), benchRows(128, 96, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.AddOuterRowsInPlace(d, x)
	}
}
