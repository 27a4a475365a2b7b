// Package optimizer implements parallelism tuning (Sec. III-C3): given a
// query and a cluster, enumerate candidate parallelism configurations,
// predict their costs with a cost estimator (ZeroTune's GNN during normal
// operation; any CostEstimator in tests), and pick the configuration
// minimizing the Eq. 1 weighted cost. The package also provides the two
// baseline tuners the paper compares against: a greedy hill-climber on
// observed runtimes (Tang & Gedik) and a Dhalion-style backpressure
// controller (Floratou et al.).
package optimizer

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"zerotune/internal/cluster"
	"zerotune/internal/obs"
	"zerotune/internal/optisample"
	"zerotune/internal/queryplan"
	"zerotune/internal/tensor"
)

// Estimate is a cost prediction for one candidate plan.
type Estimate struct {
	LatencyMs     float64
	ThroughputEPS float64
}

// CostEstimator predicts the cost of executing a placed parallel query plan
// on a cluster — the what-if interface of Fig. 2.
type CostEstimator interface {
	Estimate(ctx context.Context, p *queryplan.PQP, c *cluster.Cluster) (Estimate, error)
}

// EstimatorFunc adapts a function to the CostEstimator interface.
type EstimatorFunc func(ctx context.Context, p *queryplan.PQP, c *cluster.Cluster) (Estimate, error)

// Estimate implements CostEstimator.
func (f EstimatorFunc) Estimate(ctx context.Context, p *queryplan.PQP, c *cluster.Cluster) (Estimate, error) {
	return f(ctx, p, c)
}

// BatchCostEstimator is an optional CostEstimator extension for estimators
// that can score many candidate plans at once — e.g. by fanning GNN forward
// passes across cores. Tune uses it when the estimator is not a
// SweepEstimator, which turns the what-if sweep over the candidate set into a
// single parallel batch. Implementations must return one estimate per plan,
// in order.
type BatchCostEstimator interface {
	CostEstimator
	EstimateBatch(ctx context.Context, ps []*queryplan.PQP, c *cluster.Cluster) ([]Estimate, error)
}

// SweepEstimator is an optional CostEstimator extension for estimators that
// score candidates as degree vectors, never building their plans. degs holds
// len(t.Ops) degrees per candidate, by topological position of the analysed
// query t; each candidate stands for the plan with those degrees, no NoChain
// entries, placed by cluster.PlaceWith. Tune prefers it over every other
// interface. Implementations must return one estimate per candidate, in
// order.
type SweepEstimator interface {
	CostEstimator
	EstimateSweep(ctx context.Context, t *queryplan.Topology, c *cluster.Cluster, degs []int) ([]Estimate, error)
}

// planSweep adapts an estimator that prices plans to SweepEstimator: every
// candidate becomes a placed plan, priced in one EstimateBatch call when the
// estimator has one and one Estimate call at a time otherwise.
type planSweep struct{ CostEstimator }

func (s planSweep) EstimateSweep(ctx context.Context, t *queryplan.Topology, c *cluster.Cluster, degs []int) ([]Estimate, error) {
	n := len(t.Ops)
	plans := make([]*queryplan.PQP, len(degs)/n)
	for i := range plans {
		plans[i] = t.NewPlan(degs[i*n : (i+1)*n])
		if err := cluster.PlaceWith(t, plans[i], c); err != nil {
			return nil, err
		}
	}
	if be, ok := s.CostEstimator.(BatchCostEstimator); ok {
		return be.EstimateBatch(ctx, plans, c)
	}
	estimates := make([]Estimate, len(plans))
	for i, p := range plans {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var err error
		if estimates[i], err = s.Estimate(ctx, p, c); err != nil {
			return nil, err
		}
	}
	return estimates, nil
}

// WeightedCost is Eq. 1: wt·C_L + (1−wt)·C_T with both costs min-max
// normalized into [0, 1] over the candidate set (0 best). Throughput is
// negated inside the normalization because it is maximized.
func WeightedCost(latency, throughput, latMin, latMax, tptMin, tptMax, wt float64) float64 {
	cl := normalize(latency, latMin, latMax)
	ct := 0.0
	if tptMax > tptMin {
		ct = 1 - normalize(throughput, tptMin, tptMax)
	}
	return float64(wt*cl) + float64((1-wt)*ct)
}

func normalize(x, lo, hi float64) float64 {
	if hi <= lo {
		return 0
	}
	v := (x - lo) / (hi - lo)
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// TuneOptions configures the ZeroTune optimizer.
type TuneOptions struct {
	// Weight wt of Eq. 1: 1 = latency only, 0 = throughput only.
	Weight float64
	// RandomCandidates adds this many OptiSample-explored configurations to
	// the deterministic candidate set.
	RandomCandidates int
	// Seed drives candidate exploration.
	Seed uint64
}

// DefaultTuneOptions balances latency and throughput equally and explores a
// moderate candidate set.
func DefaultTuneOptions() TuneOptions {
	return TuneOptions{Weight: 0.5, RandomCandidates: 16, Seed: 1}
}

// TuneResult reports the chosen plan and the what-if analysis behind it.
type TuneResult struct {
	Plan       *queryplan.PQP
	Estimate   Estimate
	Candidates int
	// Cost is the Eq. 1 weighted cost of the winner within the candidate
	// set (0 = dominated every candidate on both metrics).
	Cost float64
}

// InputError is the class of Tune failures the caller's input caused — an
// invalid query, a weight outside [0,1], a cluster nothing can be placed on —
// as opposed to a failing or cancelled estimator. Servers map it to "bad
// request" and everything else to "unavailable".
type InputError struct{ Err error }

func (e *InputError) Error() string { return "optimizer: " + e.Err.Error() }
func (e *InputError) Unwrap() error { return e.Err }

// Tune selects parallelism degrees for q on cluster c by enumerating
// candidate configurations around the analytical OptiSample assignment and
// choosing the one with the minimum predicted weighted cost. The candidates
// are degree vectors until one wins: a SweepEstimator prices them as such,
// any other estimator through planSweep, and only the winner is built and
// placed as TuneResult.Plan. The context cancels the what-if sweep and scopes
// its spans.
func Tune(ctx context.Context, q *queryplan.Query, c *cluster.Cluster, est CostEstimator, opts TuneOptions) (*TuneResult, error) {
	// The query is validated and analysed once; enumeration, pricing and the
	// winner's placement reuse the analysis.
	t, err := q.Analyze()
	if err != nil {
		return nil, &InputError{err}
	}
	// Written so that NaN, which fails every comparison, is refused too.
	if !(opts.Weight >= 0 && opts.Weight <= 1) {
		return nil, &InputError{fmt.Errorf("weight %v outside [0,1]", opts.Weight)}
	}
	// Every candidate degree lies in [1, TotalCores], so this is the one
	// check that makes every candidate placeable.
	if c.TotalCores() < 1 {
		return nil, &InputError{fmt.Errorf("cluster has no cores to place on")}
	}
	ctx, span := obs.StartSpan(ctx, "optimizer.tune")
	defer span.End()

	n := len(t.Ops)
	degs := enumerate(t, c, opts)
	candidates := len(degs) / n
	span.SetAttr("candidates", candidates)

	sweep, ok := est.(SweepEstimator)
	if !ok {
		sweep = planSweep{est}
	}
	sweepCtx, sweepSpan := obs.StartSpan(ctx, "optimizer.estimate")
	estimates, err := sweep.EstimateSweep(sweepCtx, t, c, degs)
	sweepSpan.End()
	if err == nil && len(estimates) != candidates {
		err = fmt.Errorf("estimator returned %d estimates for %d candidates", len(estimates), candidates)
	}
	if err != nil {
		return nil, fmt.Errorf("optimizer: estimate failed: %w", err)
	}

	latMin, latMax := math.Inf(1), math.Inf(-1)
	tptMin, tptMax := math.Inf(1), math.Inf(-1)
	for i, e := range estimates {
		// A NaN or infinite estimate would poison Eq. 1's normalization for
		// every candidate; it is the estimator's failure, not the caller's.
		if !finite(e.LatencyMs) || !finite(e.ThroughputEPS) {
			return nil, fmt.Errorf("optimizer: candidate %d has a non-finite estimate (latency %v ms, throughput %v ev/s)",
				i, e.LatencyMs, e.ThroughputEPS)
		}
		latMin = math.Min(latMin, e.LatencyMs)
		latMax = math.Max(latMax, e.LatencyMs)
		tptMin = math.Min(tptMin, e.ThroughputEPS)
		tptMax = math.Max(tptMax, e.ThroughputEPS)
	}

	best := -1
	bestCost := math.Inf(1)
	for i, e := range estimates {
		cost := WeightedCost(e.LatencyMs, e.ThroughputEPS, latMin, latMax, tptMin, tptMax, opts.Weight)
		if cost < bestCost {
			best, bestCost = i, cost
		}
	}
	plan := t.NewPlan(degs[best*n : (best+1)*n])
	if err := cluster.PlaceWith(t, plan, c); err != nil {
		return nil, &InputError{err}
	}
	return &TuneResult{
		Plan:       plan,
		Estimate:   estimates[best],
		Candidates: candidates,
		Cost:       bestCost,
	}, nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// enumerate builds the candidate set: the analytical OptiSample plan, global
// scalings of it, per-operator perturbations, and optional random
// explorations — deduplicated by degree vector. It returns the candidates as
// one slab of degree vectors by topological position, len(t.Ops) entries
// each, in enumeration order.
func enumerate(t *queryplan.Topology, c *cluster.Cluster, opts TuneOptions) []int {
	base := optisample.Exact().Degrees(t, c, nil, nil)
	maxP := c.TotalCores()

	seen := make(map[string]struct{})
	var key []byte
	// Room for every deterministic candidate and every random draw.
	out := make([]int, 0, len(base)*(1+6+2*len(base)+opts.RandomCandidates))
	add := func(deg []int) {
		key = key[:0]
		for _, d := range deg {
			key = binary.AppendUvarint(key, uint64(d))
		}
		if _, dup := seen[string(key)]; !dup {
			seen[string(key)] = struct{}{}
			out = append(out, deg...)
		}
	}
	scale := func(d int, factor float64) int {
		d = int(math.Ceil(float64(d) * factor))
		if d < 1 {
			d = 1
		}
		if d > maxP {
			d = maxP
		}
		return d
	}

	add(base)
	deg := make([]int, len(base))
	// Global multipliers around the analytical point.
	for _, f := range []float64{0.25, 0.5, 1.5, 2, 3, 4} {
		for i, d := range base {
			deg[i] = scale(d, f)
		}
		add(deg)
	}
	// Per-operator perturbations, in the query's declaration order.
	copy(deg, base)
	for _, pos := range t.Decl {
		for _, f := range []float64{0.5, 2} {
			deg[pos] = scale(base[pos], f)
			add(deg)
		}
		deg[pos] = base[pos]
	}
	// Random exploration.
	if opts.RandomCandidates > 0 {
		rng := tensor.NewRNG(opts.Seed)
		strat := optisample.Default()
		for i := 0; i < opts.RandomCandidates; i++ {
			add(strat.Degrees(t, c, rng, deg))
		}
	}
	return out
}
