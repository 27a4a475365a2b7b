package tensor

import "fmt"

// This file holds the float64 batched kernel of the compiled inference
// engine's bit-exact reference mode: GemmBiasInto computes each output row with
// exactly the MulVecAddBias accumulation, so a batched forward is bit-identical
// to the per-graph one. Each row runs MulVecAddBias's AVX2 kernel when a vector
// kernel is active (see Kernel), which is itself bit-identical to the portable
// loop: its four lanes are the loop's four accumulators and it never fuses a
// multiply into an add.

// GemmBiasInto computes Y = X · Wᵀ + 1⊗b, the batched form of a linear layer
// pre-activation. It is bit-identical to MulVec followed by AddInPlace(b) on
// every row (see MulVecAddBias).
func GemmBiasInto(x, w *Matrix, b Vector, y *Matrix) *Matrix {
	if x.Cols != w.Cols || y.Rows != x.Rows || y.Cols != w.Rows || len(b) != w.Rows {
		panic(fmt.Sprintf("tensor: GemmBiasInto shape mismatch x %dx%d w %dx%d b %d y %dx%d",
			x.Rows, x.Cols, w.Rows, w.Cols, len(b), y.Rows, y.Cols))
	}
	for i := 0; i < x.Rows; i++ {
		w.MulVecAddBias(x.Row(i), b, y.Row(i))
	}
	return y
}
