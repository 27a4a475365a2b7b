package nn

import (
	"fmt"
	"math"

	"zerotune/internal/tensor"
)

// BatchTrace records an MLP's forward pass over a stack of input rows, one
// row per sample, for BackwardRows and AccumulateGrad: the batched form of
// Trace. Rows are independent — each row's activations and gradients are bit
// for bit what ForwardInto and Backward compute on that row alone, however
// the rows are grouped into calls — so a caller may run the rows in any
// grouping that respects its own data dependencies (gnn runs a graph's
// data-flow combiner one topological depth level at a time).
//
// The zero value is ready for use through MLP.Batch, which sizes it; buffers
// are reused by later Batch calls and grow only when a batch outgrows them.
type BatchTrace struct {
	acts []*tensor.Matrix // acts[0] is the input, acts[l+1] the activation of layer l
	pre  []*tensor.Matrix // per layer: W·x + b
	dPre []*tensor.Matrix // per layer: ∂loss/∂pre; the last one starts as ∂loss/∂output
	dIn  *tensor.Matrix   // ∂loss/∂input

	// After Permute, the layer inputs and pre-activation gradients in the
	// order AccumulateGrad sums them.
	ordIn, ordDPre []*tensor.Matrix
	permuted       bool
}

// Batch sizes t for rows samples through m and returns it (a nil t is
// allocated). Contents are not cleared: callers write every input row before
// ForwardRows and every ∂loss/∂output row before BackwardRows.
func (m *MLP) Batch(t *BatchTrace, rows int) *BatchTrace {
	if t == nil {
		t = &BatchTrace{}
	}
	n := len(m.Layers)
	if len(t.pre) != n {
		t.acts = make([]*tensor.Matrix, n+1)
		t.pre = make([]*tensor.Matrix, n)
		t.dPre = make([]*tensor.Matrix, n)
		t.ordIn = make([]*tensor.Matrix, n)
		t.ordDPre = make([]*tensor.Matrix, n)
	}
	t.acts[0] = fit(t.acts[0], rows, m.InDim())
	t.dIn = fit(t.dIn, rows, m.InDim())
	for l, layer := range m.Layers {
		t.pre[l] = fit(t.pre[l], rows, layer.Out())
		t.acts[l+1] = fit(t.acts[l+1], rows, layer.Out())
		t.dPre[l] = fit(t.dPre[l], rows, layer.Out())
	}
	t.permuted = false
	return t
}

// fit returns m as a rows×cols matrix, reusing its storage when it is large
// enough. New storage has half as much again as asked for, so a training run,
// whose batches grow to their largest over its first epoch, reallocates a few
// times rather than at every new maximum.
func fit(m *tensor.Matrix, rows, cols int) *tensor.Matrix {
	if m == nil || cap(m.Data) < rows*cols {
		return &tensor.Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols, rows*cols*3/2)}
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:rows*cols]
	return m
}

// rowSpan is the view of rows [lo, hi) of m.
func rowSpan(m *tensor.Matrix, lo, hi int) tensor.Matrix {
	return tensor.Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// In is the input stack, one sample per row, for the caller to fill.
func (t *BatchTrace) In() *tensor.Matrix { return t.acts[0] }

// Out is the network output of the traced rows.
func (t *BatchTrace) Out() *tensor.Matrix { return t.acts[len(t.acts)-1] }

// DOut is where the caller writes ∂loss/∂output before BackwardRows, which
// overwrites it.
func (t *BatchTrace) DOut() *tensor.Matrix { return t.dPre[len(t.dPre)-1] }

// DIn is ∂loss/∂input of the rows BackwardRows ran with wantDIn.
func (t *BatchTrace) DIn() *tensor.Matrix { return t.dIn }

// ForwardRows runs rows [lo, hi) of t's input through the network: per layer
// one GemmBiasInto (each row bit-identical to MulVecAddBias) and the
// activation.
func (m *MLP) ForwardRows(t *BatchTrace, lo, hi int) {
	if t.acts[0].Cols != m.InDim() {
		panic(fmt.Sprintf("nn: batch input width %d, want %d", t.acts[0].Cols, m.InDim()))
	}
	if lo == hi {
		return
	}
	for l, layer := range m.Layers {
		in, pre, out := rowSpan(t.acts[l], lo, hi), rowSpan(t.pre[l], lo, hi), rowSpan(t.acts[l+1], lo, hi)
		tensor.GemmBiasInto(&in, layer.W, layer.B, &pre)
		layer.Act.applyRows(pre.Data, out.Data)
	}
}

// BackwardRows turns the DOut rows [lo, hi) into ∂loss/∂pre of every layer,
// and, with wantDIn, into the DIn rows: per layer the activation derivative
// and one GemmTInto (each row bit-identical to MulVecT). It accumulates no
// parameter gradient; AccumulateGrad does, once every row is back.
func (m *MLP) BackwardRows(t *BatchTrace, lo, hi int, wantDIn bool) {
	if lo == hi {
		return
	}
	for l := len(m.Layers) - 1; l >= 0; l-- {
		layer := m.Layers[l]
		dPre, pre := rowSpan(t.dPre[l], lo, hi), rowSpan(t.pre[l], lo, hi)
		layer.Act.derivRows(dPre.Data, pre.Data)
		switch {
		case l > 0:
			dIn := rowSpan(t.dPre[l-1], lo, hi)
			tensor.GemmTInto(&dPre, layer.W, &dIn)
		case wantDIn:
			dIn := rowSpan(t.dIn, lo, hi)
			tensor.GemmTInto(&dPre, layer.W, &dIn)
		}
	}
}

// Permute sets the order in which AccumulateGrad sums t's rows: row k of the
// sum is row perm[k] of the pass. It copies each layer's input and ∂loss/∂pre
// rows, so call it after BackwardRows.
func (t *BatchTrace) Permute(perm []int) {
	for l := range t.pre {
		t.ordIn[l] = permuteRows(t.ordIn[l], t.acts[l], perm)
		t.ordDPre[l] = permuteRows(t.ordDPre[l], t.dPre[l], perm)
	}
	t.permuted = true
}

func permuteRows(dst, src *tensor.Matrix, perm []int) *tensor.Matrix {
	dst = fit(dst, len(perm), src.Cols)
	for k, r := range perm {
		copy(dst.Row(k), src.Row(r))
	}
	return dst
}

// AccumulateGrad adds layer l's weight and bias gradients over every row of t
// into GradW and GradB, summing the rows in order (Permute's order, if set):
// bit for bit what Backward accumulates when called once per row in that
// order.
func (m *MLP) AccumulateGrad(l int, t *BatchTrace) {
	in, dPre := t.acts[l], t.dPre[l]
	if t.permuted {
		in, dPre = t.ordIn[l], t.ordDPre[l]
	}
	if dPre.Rows == 0 {
		return
	}
	layer := m.Layers[l]
	layer.GradW.AddOuterRowsInPlace(dPre, in)
	for s := 0; s < dPre.Rows; s++ {
		layer.GradB.AddInPlace(dPre.Row(s))
	}
}

// applyRows writes act(pre) into out element by element, as ForwardInto does.
// LeakyReLU multiplies by its derivative instead of branching on the sign: p·1
// is p, so every element gets Apply's bits.
func (a Activation) applyRows(pre, out []float64) {
	out = out[:len(pre)]
	switch a {
	case LeakyReLU:
		for j, p := range pre {
			out[j] = p * leakyDeriv(p)
		}
	case Identity:
		copy(out, pre)
	default:
		for j, p := range pre {
			out[j] = a.Apply(p)
		}
	}
}

// derivRows turns grad into grad ⊙ act'(pre) in place, as Backward computes
// dPre. A derivative of 1 leaves the element as it is, which is what
// multiplying by 1 gives.
func (a Activation) derivRows(grad, pre []float64) {
	pre = pre[:len(grad)]
	switch a {
	case LeakyReLU:
		for j, p := range pre {
			grad[j] *= leakyDeriv(p)
		}
	case Identity:
	default:
		for j, p := range pre {
			grad[j] *= a.Deriv(p)
		}
	}
}

// leakyDeriv is LeakyReLU.Deriv(p), selected on the integer side so the
// compiler emits a conditional move: a sign that flips at random makes a
// branch mispredict about every other element.
func leakyDeriv(p float64) float64 {
	bits := uint64(0x3f847ae147ae147b) // 0.01
	if p > 0 {
		bits = 0x3ff0000000000000 // 1
	}
	return math.Float64frombits(bits)
}
