// Package nn implements the small neural-network toolkit used by the
// ZeroTune cost models: linear layers, multi-layer perceptrons with
// trace-based backpropagation, loss functions, and the Adam optimizer.
//
// MLPs here are designed for *weight sharing*: the same MLP instance is
// applied to many graph nodes within one forward pass (ZeroTune shares one
// encoder per node type across all operators of that type). Forward
// therefore returns an explicit Trace of intermediate activations, and
// Backward consumes a trace and accumulates gradients — calling Backward
// once per trace sums the gradient contributions exactly as weight sharing
// requires. A BatchTrace does the same for a stack of samples at once, with
// the bits of the per-sample calls: one GEMM per layer forward and backward,
// and one sum over the samples, in order, per parameter tensor.
package nn

import (
	"fmt"
	"math"
)

// Activation is an element-wise non-linearity.
type Activation int

const (
	// Identity applies no non-linearity (used for output layers).
	Identity Activation = iota
	// ReLU is max(0, x).
	ReLU
	// LeakyReLU is x for x>0 and 0.01·x otherwise.
	LeakyReLU
	// Tanh is the hyperbolic tangent.
	Tanh
	// Sigmoid is 1/(1+e^-x).
	Sigmoid
)

// String implements fmt.Stringer.
func (a Activation) String() string {
	switch a {
	case Identity:
		return "identity"
	case ReLU:
		return "relu"
	case LeakyReLU:
		return "leaky_relu"
	case Tanh:
		return "tanh"
	case Sigmoid:
		return "sigmoid"
	default:
		return fmt.Sprintf("activation(%d)", int(a))
	}
}

// Apply computes the activation of x.
func (a Activation) Apply(x float64) float64 {
	switch a {
	case Identity:
		return x
	case ReLU:
		if x > 0 {
			return x
		}
		return 0
	case LeakyReLU:
		if x > 0 {
			return x
		}
		return 0.01 * x
	case Tanh:
		return math.Tanh(x)
	case Sigmoid:
		return 1 / (1 + math.Exp(-x))
	default:
		panic("nn: unknown activation " + a.String())
	}
}

// Deriv computes dy/dx given the pre-activation input x.
func (a Activation) Deriv(x float64) float64 {
	switch a {
	case Identity:
		return 1
	case ReLU:
		if x > 0 {
			return 1
		}
		return 0
	case LeakyReLU:
		if x > 0 {
			return 1
		}
		return 0.01
	case Tanh:
		t := math.Tanh(x)
		return 1 - float64(t*t)
	case Sigmoid:
		s := 1 / (1 + math.Exp(-x))
		return s * (1 - s)
	default:
		panic("nn: unknown activation " + a.String())
	}
}
