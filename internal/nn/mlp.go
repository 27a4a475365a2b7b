package nn

import (
	"fmt"

	"zerotune/internal/tensor"
)

// Linear is a fully connected layer y = act(W·x + b).
type Linear struct {
	W   *tensor.Matrix // out × in
	B   tensor.Vector  // out
	Act Activation

	// Gradient accumulators, same shapes as W and B.
	GradW *tensor.Matrix
	GradB tensor.Vector
}

// NewLinear returns a layer with He initialization for rectifier activations
// and Xavier initialization otherwise.
func NewLinear(rng *tensor.RNG, in, out int, act Activation) *Linear {
	l := &Linear{
		W:     tensor.NewMatrix(out, in),
		B:     tensor.NewVector(out),
		Act:   act,
		GradW: tensor.NewMatrix(out, in),
		GradB: tensor.NewVector(out),
	}
	switch act {
	case ReLU, LeakyReLU:
		l.W.RandomizeHe(rng, in)
	default:
		l.W.RandomizeXavier(rng, in, out)
	}
	return l
}

// In returns the input width of the layer.
func (l *Linear) In() int { return l.W.Cols }

// Out returns the output width of the layer.
func (l *Linear) Out() int { return l.W.Rows }

// layerTrace caches one layer's forward pass for backprop.
type layerTrace struct {
	in  tensor.Vector // input to the layer
	pre tensor.Vector // W·x + b before activation
	out tensor.Vector // activation(pre)

	// Backward scratch, lazily sized and reused across Backward calls on the
	// same trace.
	dPre tensor.Vector
	dIn  tensor.Vector
}

// Trace records the intermediate activations of one MLP forward pass so that
// Backward can be called later, possibly after many other forward passes
// through the same (shared) MLP.
type Trace struct {
	layers []layerTrace
}

// Output returns the final activation of the traced pass.
func (t *Trace) Output() tensor.Vector {
	return t.layers[len(t.layers)-1].out
}

// MLP is a stack of Linear layers sharing one parameter set.
type MLP struct {
	Layers []*Linear
}

// NewMLP builds an MLP with the given layer widths. dims[0] is the input
// width; every hidden layer uses hiddenAct and the final layer outAct.
// len(dims) must be at least 2.
func NewMLP(rng *tensor.RNG, dims []int, hiddenAct, outAct Activation) *MLP {
	if len(dims) < 2 {
		panic(fmt.Sprintf("nn: MLP needs >=2 dims, got %v", dims))
	}
	m := &MLP{}
	for i := 0; i < len(dims)-1; i++ {
		act := hiddenAct
		if i == len(dims)-2 {
			act = outAct
		}
		m.Layers = append(m.Layers, NewLinear(rng, dims[i], dims[i+1], act))
	}
	return m
}

// InDim returns the input width of the network.
func (m *MLP) InDim() int { return m.Layers[0].In() }

// OutDim returns the output width of the network.
func (m *MLP) OutDim() int { return m.Layers[len(m.Layers)-1].Out() }

// Forward runs x through the network and returns a trace whose Output() is
// the network output. The input vector is copied into the trace, so callers
// may reuse x.
func (m *MLP) Forward(x tensor.Vector) *Trace {
	return m.ForwardInto(nil, x)
}

// ForwardInto is Forward reusing the buffers of t, a trace from an earlier
// pass through this (or an identically shaped) network. A nil or mismatched
// t allocates fresh buffers, so `t = m.ForwardInto(t, x)` in a loop amortizes
// every allocation after the first pass. The returned trace's contents —
// including Output() — are valid only until the next ForwardInto call with
// the same trace.
func (m *MLP) ForwardInto(t *Trace, x tensor.Vector) *Trace {
	if len(x) != m.InDim() {
		panic(fmt.Sprintf("nn: MLP input width %d, want %d", len(x), m.InDim()))
	}
	if !m.traceFits(t) {
		t = &Trace{layers: make([]layerTrace, len(m.Layers))}
		prev := tensor.NewVector(m.InDim())
		for i, l := range m.Layers {
			t.layers[i] = layerTrace{in: prev, pre: tensor.NewVector(l.Out()), out: tensor.NewVector(l.Out())}
			prev = t.layers[i].out
		}
	}
	copy(t.layers[0].in, x)
	for i, l := range m.Layers {
		lt := &t.layers[i]
		l.W.MulVecAddBias(lt.in, l.B, lt.pre)
		for j, p := range lt.pre {
			lt.out[j] = l.Act.Apply(p)
		}
	}
	return t
}

// traceFits reports whether t's buffers match this network's layer shapes.
func (m *MLP) traceFits(t *Trace) bool {
	if t == nil || len(t.layers) != len(m.Layers) {
		return false
	}
	if len(t.layers[0].in) != m.InDim() {
		return false
	}
	for i, l := range m.Layers {
		if len(t.layers[i].out) != l.Out() || len(t.layers[i].pre) != l.Out() {
			return false
		}
	}
	return true
}

// Predict runs a forward pass and returns only the output (no trace kept
// beyond the call).
func (m *MLP) Predict(x tensor.Vector) tensor.Vector {
	return m.Forward(x).Output()
}

// Backward propagates the gradient dOut (∂loss/∂output for the traced pass)
// back through the network, accumulating parameter gradients into GradW and
// GradB, and returns ∂loss/∂input. Call ZeroGrad before the first Backward
// of an optimization step; repeated Backward calls sum gradients, which is
// exactly what shared weights need.
//
// The returned vector aliases scratch owned by the trace: it is valid only
// until the next Backward call with the same trace. dOut is read, not
// written.
func (m *MLP) Backward(t *Trace, dOut tensor.Vector) tensor.Vector {
	if len(t.layers) != len(m.Layers) {
		panic("nn: trace does not match MLP depth")
	}
	grad := dOut
	for i := len(m.Layers) - 1; i >= 0; i-- {
		l := m.Layers[i]
		lt := &t.layers[i]
		if len(lt.dPre) != l.Out() {
			lt.dPre = tensor.NewVector(l.Out())
		}
		if len(lt.dIn) != l.In() {
			lt.dIn = tensor.NewVector(l.In())
		}
		// Through activation: dPre = grad ⊙ act'(pre)
		for j := range lt.dPre {
			lt.dPre[j] = grad[j] * l.Act.Deriv(lt.pre[j])
		}
		// Parameter grads.
		l.GradW.AddOuterInPlace(1, lt.dPre, lt.in)
		l.GradB.AddInPlace(lt.dPre)
		// Input grad.
		grad = l.W.MulVecT(lt.dPre, lt.dIn)
	}
	return grad
}

// ZeroGrad clears all gradient accumulators.
func (m *MLP) ZeroGrad() {
	for _, l := range m.Layers {
		l.GradW.Zero()
		l.GradB.Zero()
	}
}

// Params returns the parameter/gradient pairs of the network in a stable
// order for optimizers.
func (m *MLP) Params() []Param {
	var ps []Param
	for _, l := range m.Layers {
		ps = append(ps,
			Param{Value: l.W.Data, Grad: l.GradW.Data},
			Param{Value: l.B, Grad: l.GradB},
		)
	}
	return ps
}

// NumParams returns the total number of scalar parameters.
func (m *MLP) NumParams() int {
	n := 0
	for _, l := range m.Layers {
		n += len(l.W.Data) + len(l.B)
	}
	return n
}

// Param is one flat parameter tensor paired with its gradient accumulator.
type Param struct {
	Value []float64
	Grad  []float64
}
