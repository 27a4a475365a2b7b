package nn

import (
	"fmt"
	"math"

	"zerotune/internal/parallel"
	"zerotune/internal/tensor"
)

// Adam is the Adam optimizer (Kingma & Ba) with decoupled weight decay
// (AdamW-style: decay is applied directly to weights, not folded into the
// gradient moments).
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	t int
	m [][]float64
	v [][]float64
}

// NewAdam returns an Adam optimizer with standard betas (0.9, 0.999).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one update to every parameter using its gradient, updating
// the parameter tensors on up to workers goroutines (workers <= 1 runs
// inline). The update is element-wise, so the result is the same for every
// worker count.
func (a *Adam) Step(params []Param, workers int) {
	if a.m == nil {
		a.m = make([][]float64, len(params))
		a.v = make([][]float64, len(params))
		for i, p := range params {
			a.m[i] = make([]float64, len(p.Value))
			a.v[i] = make([]float64, len(p.Value))
		}
	}
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	c := tensor.AdamCoeffs{
		Beta1: a.Beta1, Beta2: a.Beta2, BC1: bc1, BC2: bc2,
		LR: a.LR, Eps: a.Eps, WD: a.WeightDecay,
	}
	parallel.For(len(params), workers, func(i int) {
		tensor.AdamInPlace(params[i].Value, params[i].Grad, a.m[i], a.v[i], &c)
	})
}

// AdamState is the optimizer's serializable internal state: the step count
// and both moment estimates. Together with the parameter values it is
// everything needed to resume an interrupted training run bit-identically —
// restarting Adam from scratch would reset the bias-correction schedule and
// the moment history, diverging from the uninterrupted run on the first
// step.
type AdamState struct {
	T int         `json:"t"`
	M [][]float64 `json:"m"`
	V [][]float64 `json:"v"`
}

// State deep-copies the optimizer's moments for checkpointing. Before the
// first Step the moments are nil and the state resumes as a fresh optimizer.
func (a *Adam) State() AdamState {
	s := AdamState{T: a.t}
	if a.m != nil {
		s.M = make([][]float64, len(a.m))
		s.V = make([][]float64, len(a.v))
		for i := range a.m {
			s.M[i] = append([]float64(nil), a.m[i]...)
			s.V[i] = append([]float64(nil), a.v[i]...)
		}
	}
	return s
}

// SetState restores a checkpointed state, deep-copying so the checkpoint
// stays immutable. It returns an error when the moment shapes cannot belong
// to the same parameter set the optimizer will step.
func (a *Adam) SetState(s AdamState) error {
	if len(s.M) != len(s.V) {
		return fmt.Errorf("nn: adam state has %d first moments but %d second moments", len(s.M), len(s.V))
	}
	for i := range s.M {
		if len(s.M[i]) != len(s.V[i]) {
			return fmt.Errorf("nn: adam moment %d: m has %d values, v has %d", i, len(s.M[i]), len(s.V[i]))
		}
	}
	a.t = s.T
	if s.M == nil {
		a.m, a.v = nil, nil
		return nil
	}
	a.m = make([][]float64, len(s.M))
	a.v = make([][]float64, len(s.V))
	for i := range s.M {
		a.m[i] = append([]float64(nil), s.M[i]...)
		a.v[i] = append([]float64(nil), s.V[i]...)
	}
	return nil
}

// ClipGradNorm rescales all gradients so the global L2 norm does not exceed
// maxNorm, and returns the pre-clip norm. A non-positive maxNorm is a no-op.
func ClipGradNorm(params []Param, maxNorm float64) float64 {
	var sumSq float64
	for _, p := range params {
		for _, g := range p.Grad {
			sumSq += float64(g * g)
		}
	}
	norm := math.Sqrt(sumSq)
	if maxNorm <= 0 || norm <= maxNorm || norm == 0 {
		return norm
	}
	scale := maxNorm / norm
	for _, p := range params {
		for j := range p.Grad {
			p.Grad[j] *= scale
		}
	}
	return norm
}
