package nn

import (
	"encoding/json"
	"math"
	"testing"

	"zerotune/internal/tensor"
)

func TestActivationValues(t *testing.T) {
	cases := []struct {
		act  Activation
		x    float64
		want float64
	}{
		{Identity, 3, 3},
		{ReLU, -2, 0},
		{ReLU, 2, 2},
		{LeakyReLU, -1, -0.01},
		{LeakyReLU, 1, 1},
		{Tanh, 0, 0},
		{Sigmoid, 0, 0.5},
	}
	for _, c := range cases {
		if got := c.act.Apply(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%v.Apply(%v) = %v, want %v", c.act, c.x, got, c.want)
		}
	}
}

// Activation derivatives must match numerical differentiation.
func TestActivationDerivs(t *testing.T) {
	const h = 1e-6
	for _, act := range []Activation{Identity, ReLU, LeakyReLU, Tanh, Sigmoid} {
		for _, x := range []float64{-2, -0.5, 0.3, 1.7} {
			num := (act.Apply(x+h) - act.Apply(x-h)) / (2 * h)
			ana := act.Deriv(x)
			if math.Abs(num-ana) > 1e-5 {
				t.Errorf("%v.Deriv(%v) = %v, numeric %v", act, x, ana, num)
			}
		}
	}
}

func TestMLPShapes(t *testing.T) {
	rng := tensor.NewRNG(1)
	m := NewMLP(rng, []int{4, 8, 8, 2}, ReLU, Identity)
	if m.InDim() != 4 || m.OutDim() != 2 {
		t.Fatalf("dims %d→%d", m.InDim(), m.OutDim())
	}
	out := m.Predict(tensor.NewVector(4).Fill(0.5))
	if len(out) != 2 {
		t.Fatalf("output length %d", len(out))
	}
	if m.NumParams() != 4*8+8+8*8+8+8*2+2 {
		t.Fatalf("NumParams = %d", m.NumParams())
	}
}

func TestMLPInputWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on bad input width")
		}
	}()
	m := NewMLP(tensor.NewRNG(1), []int{3, 2}, ReLU, Identity)
	m.Predict(tensor.NewVector(4))
}

func TestMLPDeterministicForward(t *testing.T) {
	m1 := NewMLP(tensor.NewRNG(7), []int{3, 5, 1}, Tanh, Identity)
	m2 := NewMLP(tensor.NewRNG(7), []int{3, 5, 1}, Tanh, Identity)
	x := tensor.Vector{0.1, -0.2, 0.3}
	if m1.Predict(x)[0] != m2.Predict(x)[0] {
		t.Fatal("same seed produced different networks")
	}
}

// Gradient check: analytical gradients from Backward must match central
// finite differences on every parameter of a small network. The loss is Huber
// with an infinite delta, which is the squared error ½d².
func TestMLPGradientCheck(t *testing.T) {
	rng := tensor.NewRNG(42)
	m := NewMLP(rng, []int{3, 4, 2}, Tanh, Identity)
	x := tensor.Vector{0.5, -0.3, 0.8}
	target := tensor.Vector{0.2, -0.1}

	lossOf := func() float64 {
		out := m.Predict(x)
		var l float64
		for i := range out {
			li, _ := Huber(out[i], target[i], math.Inf(1))
			l += li
		}
		return l
	}

	// Analytical gradients.
	m.ZeroGrad()
	trace := m.Forward(x)
	out := trace.Output()
	dOut := tensor.NewVector(2)
	for i := range out {
		_, g := Huber(out[i], target[i], math.Inf(1))
		dOut[i] = g
	}
	m.Backward(trace, dOut)

	const h = 1e-6
	for li, l := range m.Layers {
		for i := range l.W.Data {
			orig := l.W.Data[i]
			l.W.Data[i] = orig + h
			lp := lossOf()
			l.W.Data[i] = orig - h
			lm := lossOf()
			l.W.Data[i] = orig
			num := (lp - lm) / (2 * h)
			if math.Abs(num-l.GradW.Data[i]) > 1e-4 {
				t.Fatalf("layer %d W[%d]: analytic %v numeric %v", li, i, l.GradW.Data[i], num)
			}
		}
		for i := range l.B {
			orig := l.B[i]
			l.B[i] = orig + h
			lp := lossOf()
			l.B[i] = orig - h
			lm := lossOf()
			l.B[i] = orig
			num := (lp - lm) / (2 * h)
			if math.Abs(num-l.GradB[i]) > 1e-4 {
				t.Fatalf("layer %d B[%d]: analytic %v numeric %v", li, i, l.GradB[i], num)
			}
		}
	}
}

// Gradient check for the input gradient returned by Backward.
func TestMLPInputGradientCheck(t *testing.T) {
	rng := tensor.NewRNG(43)
	m := NewMLP(rng, []int{3, 5, 1}, LeakyReLU, Identity)
	x := tensor.Vector{0.4, 0.2, -0.7}

	m.ZeroGrad()
	trace := m.Forward(x)
	dIn := m.Backward(trace, tensor.Vector{1})

	const h = 1e-6
	for i := range x {
		orig := x[i]
		x[i] = orig + h
		fp := m.Predict(x)[0]
		x[i] = orig - h
		fm := m.Predict(x)[0]
		x[i] = orig
		num := (fp - fm) / (2 * h)
		if math.Abs(num-dIn[i]) > 1e-4 {
			t.Fatalf("input grad[%d]: analytic %v numeric %v", i, dIn[i], num)
		}
	}
}

// Weight sharing: two Backward calls must accumulate the sum of gradients.
func TestMLPGradAccumulation(t *testing.T) {
	rng := tensor.NewRNG(44)
	m := NewMLP(rng, []int{2, 3, 1}, ReLU, Identity)
	x1 := tensor.Vector{1, 0}
	x2 := tensor.Vector{0, 1}

	m.ZeroGrad()
	t1 := m.Forward(x1)
	m.Backward(t1, tensor.Vector{1})
	g1 := m.Layers[0].GradW.Clone()

	m.ZeroGrad()
	t2 := m.Forward(x2)
	m.Backward(t2, tensor.Vector{1})
	g2 := m.Layers[0].GradW.Clone()

	m.ZeroGrad()
	ta := m.Forward(x1)
	tb := m.Forward(x2)
	m.Backward(ta, tensor.Vector{1})
	m.Backward(tb, tensor.Vector{1})
	for i := range m.Layers[0].GradW.Data {
		want := g1.Data[i] + g2.Data[i]
		if math.Abs(m.Layers[0].GradW.Data[i]-want) > 1e-12 {
			t.Fatalf("grad accumulation mismatch at %d", i)
		}
	}
}

// An MLP trained with Adam must be able to fit a simple function.
func TestMLPLearnsXOR(t *testing.T) {
	rng := tensor.NewRNG(45)
	m := NewMLP(rng, []int{2, 8, 1}, Tanh, Identity)
	opt := NewAdam(0.05)
	inputs := []tensor.Vector{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	targets := []float64{0, 1, 1, 0}

	var loss float64
	for epoch := 0; epoch < 800; epoch++ {
		m.ZeroGrad()
		loss = 0
		for i, x := range inputs {
			tr := m.Forward(x)
			l, g := Huber(tr.Output()[0], targets[i], math.Inf(1))
			loss += l
			m.Backward(tr, tensor.Vector{g})
		}
		opt.Step(m.Params(), 1)
	}
	if loss > 0.01 {
		t.Fatalf("XOR not learned, final loss %v", loss)
	}
}

func TestHuberMatchesMSEInside(t *testing.T) {
	lH, gH := Huber(1.2, 1.0, 1.0)
	lM, gM := 0.5*0.2*0.2, 0.2 // ½d² and d at d = 0.2
	if math.Abs(lH-lM) > 1e-12 || math.Abs(gH-gM) > 1e-12 {
		t.Fatal("Huber != ½d² inside delta")
	}
}

func TestHuberLinearOutside(t *testing.T) {
	_, g := Huber(10, 0, 1.0)
	if g != 1.0 {
		t.Fatalf("Huber grad outside delta = %v, want 1", g)
	}
	_, g = Huber(-10, 0, 1.0)
	if g != -1.0 {
		t.Fatalf("Huber grad outside delta = %v, want -1", g)
	}
}

func TestHuberGradMatchesNumeric(t *testing.T) {
	const h = 1e-7
	for _, pred := range []float64{-3, -0.5, 0.2, 4} {
		lp, _ := Huber(pred+h, 1, 1)
		lm, _ := Huber(pred-h, 1, 1)
		num := (lp - lm) / (2 * h)
		_, g := Huber(pred, 1, 1)
		if math.Abs(num-g) > 1e-5 {
			t.Fatalf("Huber grad at %v: %v vs numeric %v", pred, g, num)
		}
	}
}

func TestClipGradNorm(t *testing.T) {
	p := []Param{{Value: []float64{0, 0}, Grad: []float64{3, 4}}}
	norm := ClipGradNorm(p, 1)
	if norm != 5 {
		t.Fatalf("pre-clip norm %v", norm)
	}
	var sumSq float64
	for _, g := range p[0].Grad {
		sumSq += g * g
	}
	if math.Abs(math.Sqrt(sumSq)-1) > 1e-9 {
		t.Fatalf("post-clip norm %v", math.Sqrt(sumSq))
	}
	// No-op when under the limit.
	p2 := []Param{{Value: []float64{0}, Grad: []float64{0.5}}}
	ClipGradNorm(p2, 1)
	if p2[0].Grad[0] != 0.5 {
		t.Fatal("clip modified gradient under the limit")
	}
}

func TestMLPSerializationRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(48)
	m := NewMLP(rng, []int{3, 4, 2}, ReLU, Identity)
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var m2 MLP
	if err := json.Unmarshal(data, &m2); err != nil {
		t.Fatal(err)
	}
	x := tensor.Vector{0.3, -0.6, 0.9}
	a, b := m.Predict(x), m2.Predict(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round trip changed predictions: %v vs %v", a, b)
		}
	}
}

func TestMLPUnmarshalRejectsCorrupt(t *testing.T) {
	var m MLP
	if err := json.Unmarshal([]byte(`{"layers":[]}`), &m); err == nil {
		t.Fatal("accepted empty layer list")
	}
	if err := json.Unmarshal([]byte(`{"layers":[{"in":2,"out":1,"act":0,"w":[1],"b":[0]}]}`), &m); err == nil {
		t.Fatal("accepted wrong weight size")
	}
	if err := json.Unmarshal([]byte(`{"layers":[{"in":2,"out":1,"act":0,"w":[1,2],"b":[]}]}`), &m); err == nil {
		t.Fatal("accepted wrong bias size")
	}
	bad := `{"layers":[{"in":1,"out":2,"act":0,"w":[1,2],"b":[0,0]},{"in":3,"out":1,"act":0,"w":[1,2,3],"b":[0]}]}`
	if err := json.Unmarshal([]byte(bad), &m); err == nil {
		t.Fatal("accepted mismatched layer chain")
	}
}
