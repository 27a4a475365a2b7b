package nn

import (
	"math"
	"testing"

	"zerotune/internal/tensor"
)

// A BatchTrace is the per-row pass stacked: ForwardRows, BackwardRows and
// AccumulateGrad must give, bit for bit, what ForwardInto and Backward give
// row by row — whatever the row grouping, in Permute's order when one is set
// — for every activation, with inputs that put pre-activations at ±0, below
// zero and at NaN.
func TestBatchMatchesPerRow(t *testing.T) {
	const rows = 9
	for _, act := range []Activation{LeakyReLU, ReLU, Identity, Tanh, Sigmoid} {
		rng := tensor.NewRNG(3)
		m := NewMLP(rng, []int{5, 7, 3}, act, act)
		x := tensor.NewMatrix(rows, 5)
		dOut := tensor.NewMatrix(rows, 3)
		for i := range x.Data {
			x.Data[i] = rng.Range(-1, 1)
		}
		for i := range dOut.Data {
			dOut.Data[i] = rng.Range(-1, 1)
		}
		x.Row(2).Zero()         // pre-activation = bias = +0
		x.Set(4, 1, math.NaN()) // a NaN pre-activation
		dOut.Row(5).Zero()      // a zero gradient
		perm := []int{3, 0, 8, 1, 7, 2, 6, 4, 5}

		// Per row, in perm's order.
		m.ZeroGrad()
		want := tensor.NewMatrix(rows, 3)
		wantDIn := tensor.NewMatrix(rows, 5)
		for _, r := range perm {
			tr := m.Forward(x.Row(r))
			copy(want.Row(r), tr.Output())
			copy(wantDIn.Row(r), m.Backward(tr, dOut.Row(r)))
		}
		var wantGrads [][]float64
		for _, p := range m.Params() {
			wantGrads = append(wantGrads, append([]float64(nil), p.Grad...))
		}

		// Batched, in two uneven row groups.
		m.ZeroGrad()
		bt := m.Batch(nil, rows)
		copy(bt.In().Data, x.Data)
		m.ForwardRows(bt, 0, 4)
		m.ForwardRows(bt, 4, rows)
		copy(bt.DOut().Data, dOut.Data)
		m.BackwardRows(bt, 0, 5, true)
		m.BackwardRows(bt, 5, rows, true)
		bt.Permute(perm)
		for l := range m.Layers {
			m.AccumulateGrad(l, bt)
		}

		same := func(what string, got, want []float64) {
			t.Helper()
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%v %s [%d]: batched %v, per row %v", act, what, i, got[i], want[i])
				}
			}
		}
		same("output", bt.Out().Data, want.Data)
		same("input gradient", bt.DIn().Data, wantDIn.Data)
		for i, p := range m.Params() {
			same("parameter gradient", p.Grad, wantGrads[i])
		}
	}
}
