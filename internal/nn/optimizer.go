package nn

import (
	"fmt"
	"math"
	"sort"

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

	t     int
	m     [][]float64
	v     [][]float64
	order []int // parameter indices, largest tensor first (StepScaled)
}

// NewAdam returns an Adam optimizer with standard betas (0.9, 0.999).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one update to every parameter using its gradient, updating
// the parameter tensors on up to workers workers (workers <= 1 runs inline):
// StepScaled on a team of its own, gradients read as they are.
func (a *Adam) Step(params []Param, workers int) {
	team := parallel.NewTeam(parallel.Clamp(workers, len(params)))
	defer team.Close()
	a.StepScaled(team, params, 1)
}

// StepScaled applies one update to every parameter, reading each gradient
// element g as float64(g·gradScale) (tensor.AdamInPlace): the bits of
// ClipGradNorm's in-place rescale followed by Step, without the pass that
// writes the rescaled gradients, which are left as they were. The parameter
// tensors are handed to team's workers largest first, so the last one a
// worker picks up is short. The update is element-wise, so the result is the
// same for every team size.
func (a *Adam) StepScaled(team *parallel.Team, params []Param, gradScale float64) {
	if a.m == nil {
		a.m = make([][]float64, len(params))
		a.v = make([][]float64, len(params))
		for i, p := range params {
			a.m[i] = make([]float64, len(p.Value))
			a.v[i] = make([]float64, len(p.Value))
		}
	}
	if len(a.order) != len(params) {
		a.order = make([]int, len(params))
		for i := range a.order {
			a.order[i] = i
		}
		sort.SliceStable(a.order, func(i, j int) bool { return len(params[a.order[i]].Value) > len(params[a.order[j]].Value) })
	}
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	c := tensor.AdamCoeffs{
		Beta1: a.Beta1, Beta2: a.Beta2, BC1: bc1, BC2: bc2,
		LR: a.LR, Eps: a.Eps, WD: a.WeightDecay,
	}
	team.For(len(params), func(k int) {
		i := a.order[k]
		tensor.AdamInPlace(params[i].Value, params[i].Grad, a.m[i], a.v[i], gradScale, &c)
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
// The norm is one sum of float64(g·g) over the parameters in order, each
// tensor in element order; the rescale multiplies every gradient by
// GradScale(norm, maxNorm). gnn.Train computes the same sum beside its
// gradient sums and hands the scale to Adam.StepScaled instead.
func ClipGradNorm(params []Param, maxNorm float64) float64 {
	var sumSq float64
	for _, p := range params {
		sumSq = SumSquares(sumSq, p.Grad)
	}
	norm := math.Sqrt(sumSq)
	scale := GradScale(norm, maxNorm)
	if scale == 1 {
		return norm
	}
	for _, p := range params {
		for j := range p.Grad {
			p.Grad[j] *= scale
		}
	}
	return norm
}

// SumSquares extends a running sum of squares over g in element order.
func SumSquares(sumSq float64, g []float64) float64 {
	for _, x := range g {
		sumSq += float64(x * x)
	}
	return sumSq
}

// GradScale is the factor a global-norm clip multiplies every gradient by:
// maxNorm/norm when norm exceeds a positive maxNorm, else exactly 1.
func GradScale(norm, maxNorm float64) float64 {
	if maxNorm <= 0 || norm <= maxNorm || norm == 0 {
		return 1
	}
	return maxNorm / norm
}
