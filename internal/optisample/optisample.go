// Package optisample implements the paper's OptiSample training-data
// enumeration strategy (Algorithm 1, Defs. 3–8) and the Random baseline.
//
// OptiSample walks the operator graph bottom-up: it estimates each
// operator's input rate from the source event rate and the *estimated*
// selectivities of upstream operators (deliberately imperfect — the paper
// keeps estimation error in, so the model also sees inefficient plans), and
// assigns each operator a parallelism degree proportional to its estimated
// input rate (P = sf · In_ER, Defs. 7–8), clamped to the cluster's cores.
package optisample

import (
	"math"

	"zerotune/internal/cluster"
	"zerotune/internal/queryplan"
	"zerotune/internal/tensor"
)

// Strategy assigns parallelism degrees to every operator of a plan.
type Strategy interface {
	// Assign sets p's parallelism degrees in place. rng drives any
	// stochastic choices of the strategy.
	Assign(p *queryplan.PQP, c *cluster.Cluster, rng *tensor.RNG) error
	// Name identifies the strategy in experiment output.
	Name() string
}

// instanceCapacity is the empirical per-instance processing capacity
// (events/second) by operator type — the paper's scaling factor sf is the
// reciprocal of these, "determined by empirically analysing when the given
// streaming operators are backpressured" (footnote 3).
func instanceCapacity(t queryplan.OpType) float64 {
	switch t {
	case queryplan.OpSource:
		return 450_000
	case queryplan.OpFilter:
		return 320_000
	case queryplan.OpAggregate:
		return 140_000
	case queryplan.OpJoin:
		return 90_000
	case queryplan.OpSink:
		return 400_000
	default:
		return 200_000
	}
}

// OptiSample is Algorithm 1.
type OptiSample struct {
	// Headroom over-provisions the analytical degree to keep plans off the
	// backpressure cliff (1.2 = 20% slack).
	Headroom float64
	// SelectivityNoise is the σ of the log-normal error applied to the
	// estimated selectivities; 0 uses the declared values exactly.
	SelectivityNoise float64
	// ExploreFactors, when non-empty, multiplies each assigned degree by a
	// factor sampled from this set — the exploration component that lets
	// the model observe under- and over-provisioned plans.
	ExploreFactors []float64
	// MaxDegree caps any single degree (0 = cluster total cores).
	MaxDegree int
}

// Default returns the OptiSample configuration used for training-data
// generation: analytical degrees with mild estimation error and
// ×{¼,½,1,1,2,4} exploration. The exploration range deliberately covers
// the candidate multipliers the optimizer later prices, so the model sees
// both heavily under-provisioned (backpressured) and over-provisioned
// plans during training.
func Default() *OptiSample {
	return &OptiSample{
		Headroom:         1.2,
		SelectivityNoise: 0.3,
		ExploreFactors:   []float64{0.25, 0.5, 1, 1, 2, 4},
	}
}

// Exact returns an OptiSample without estimation error or exploration — the
// deterministic analytical assignment the optimizer seeds its search with.
func Exact() *OptiSample {
	return &OptiSample{Headroom: 1.2}
}

// Name implements Strategy.
func (o *OptiSample) Name() string { return "optisample" }

// Assign implements Strategy (Algorithm 1).
func (o *OptiSample) Assign(p *queryplan.PQP, c *cluster.Cluster, rng *tensor.RNG) error {
	t, err := p.Query.Topology()
	if err != nil {
		return err
	}
	for i, d := range o.Degrees(t, c, rng, nil) {
		p.SetDegree(t.Ops[i].ID, d)
	}
	return nil
}

// Degrees is Algorithm 1 on an analysed query: the degree of every operator
// by topological position, appended to dst[:0]. Assign is
// this plus writing the degrees into a plan; callers sampling many
// assignments of one query analyse it once and call Degrees. The draws from
// rng are those of Assign, in the same order.
func (o *OptiSample) Degrees(t *queryplan.Topology, c *cluster.Cluster, rng *tensor.RNG, dst []int) []int {
	n := len(t.Ops)
	dst = dst[:0]
	maxP := o.MaxDegree
	if maxP <= 0 {
		maxP = c.TotalCores()
	}
	if maxP > c.TotalCores() {
		maxP = c.TotalCores()
	}

	// Bottom-up rate estimation with (imperfect) selectivities,
	// Defs. 3–6 / Algorithm 1 lines 3–6.
	rates := make([]float64, 2*n)
	outRate, inRate := rates[:n], rates[n:]
	for i, op := range t.Ops {
		in := 0.0
		if op.Type == queryplan.OpSource {
			in = op.EventRate // line 12: ComputeSourceER
		} else {
			for _, up := range t.In[i] {
				in += outRate[up.From]
			}
		}
		inRate[i] = in
		outRate[i] = o.estimateOutRate(op, t.In[i], outRate, in, rng)
	}

	// Degree assignment (Defs. 7–8): P = sf · In_ER with per-type scaling.
	for i, op := range t.Ops {
		analytical := o.Headroom * inRate[i] / instanceCapacity(op.Type)
		degree := int(math.Ceil(analytical))
		if len(o.ExploreFactors) > 0 && rng != nil {
			degree = int(math.Ceil(float64(degree) * tensor.Pick(rng, o.ExploreFactors)))
		}
		if degree < 1 {
			degree = 1
		}
		if degree > maxP {
			degree = maxP
		}
		dst = append(dst, degree)
	}
	return dst
}

// noisySel perturbs a declared selectivity with the configured estimation
// error (the paper keeps estimation imperfect on purpose).
func (o *OptiSample) noisySel(sel float64, rng *tensor.RNG) float64 {
	if o.SelectivityNoise > 0 && rng != nil {
		sel *= rng.LogNormal(0, o.SelectivityNoise)
	}
	if sel < 0 {
		sel = 0
	}
	return sel
}

// estimateOutRate applies Defs. 3–6: the operator's estimated output rate
// from its estimated input rates, its (noisy) declared selectivity and its
// declared window specification — exactly the stream statistics an offline
// estimator has access to. Join amplification is modelled the way
// Def. 5 implies — each arriving tuple matches sel·|W_opposite| buffered
// tuples — because under-estimating it leaves downstream operators
// hopelessly under-provisioned.
func (o *OptiSample) estimateOutRate(op *queryplan.Operator, ups []queryplan.InEdge,
	outRate []float64, in float64, rng *tensor.RNG) float64 {

	switch op.Type {
	case queryplan.OpSource, queryplan.OpSink:
		return in
	case queryplan.OpFilter:
		return in * o.noisySel(op.Selectivity, rng)
	case queryplan.OpAggregate:
		horizon, wps := op.WindowSpan(in)
		windowTuples := in * horizon
		groups := math.Max(1, math.Min(o.noisySel(op.Selectivity, rng)*windowTuples, windowTuples))
		return wps * groups
	case queryplan.OpJoin:
		if len(ups) != 2 {
			return in * o.noisySel(op.Selectivity, rng)
		}
		in1 := math.Max(outRate[ups[0].From], 1e-9)
		in2 := math.Max(outRate[ups[1].From], 1e-9)
		horizon, _ := op.WindowSpan(in)
		w1, w2 := in1*horizon, in2*horizon
		// float64(a*b): rounded on its own, never fused (arm64 would).
		return o.noisySel(op.Selectivity, rng) * (float64(in1*w2) + float64(in2*w1))
	default:
		return in
	}
}

// Random assigns uniformly random degrees in [1, MaxDegree] — the sampling
// baseline ZT-Random of Exp. 4.
type Random struct {
	// MaxDegree caps the sampled degrees (0 = cluster total cores, itself
	// capped at 128, the top of the paper's XL parallelism category).
	MaxDegree int
}

// Name implements Strategy.
func (r *Random) Name() string { return "random" }

// Assign implements Strategy.
func (r *Random) Assign(p *queryplan.PQP, c *cluster.Cluster, rng *tensor.RNG) error {
	maxP := r.MaxDegree
	if maxP <= 0 {
		maxP = c.TotalCores()
		if maxP > 128 {
			maxP = 128
		}
	}
	if maxP > c.TotalCores() {
		maxP = c.TotalCores()
	}
	for _, op := range p.Query.Ops {
		p.SetDegree(op.ID, 1+rng.Intn(maxP))
	}
	return nil
}
