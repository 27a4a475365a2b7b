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
// passes across cores. Tune uses it when available, which turns the what-if
// sweep over the candidate set into a single parallel batch. Implementations
// must return one estimate per plan, in order.
type BatchCostEstimator interface {
	CostEstimator
	EstimateBatch(ctx context.Context, ps []*queryplan.PQP, c *cluster.Cluster) ([]Estimate, error)
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
	return wt*cl + (1-wt)*ct
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
// choosing the one with the minimum predicted weighted cost. The context
// cancels the what-if sweep between estimates and scopes its spans.
func Tune(ctx context.Context, q *queryplan.Query, c *cluster.Cluster, est CostEstimator, opts TuneOptions) (*TuneResult, error) {
	// The query is validated and analysed once; enumeration and the placement
	// of every candidate reuse the analysis.
	t, err := q.Analyze()
	if err != nil {
		return nil, &InputError{err}
	}
	if opts.Weight < 0 || opts.Weight > 1 {
		return nil, &InputError{fmt.Errorf("weight %v outside [0,1]", opts.Weight)}
	}
	ctx, span := obs.StartSpan(ctx, "optimizer.tune")
	defer span.End()

	candidates := enumerate(t, c, opts)
	span.SetAttr("candidates", len(candidates))

	for _, cand := range candidates {
		if err := cluster.PlaceWith(t, cand, c); err != nil {
			return nil, &InputError{err}
		}
	}
	sweepCtx, sweep := obs.StartSpan(ctx, "optimizer.estimate")
	var estimates []Estimate
	if be, ok := est.(BatchCostEstimator); ok {
		estimates, err = be.EstimateBatch(sweepCtx, candidates, c)
		if err == nil && len(estimates) != len(candidates) {
			err = fmt.Errorf("batch estimator returned %d estimates for %d candidates",
				len(estimates), len(candidates))
		}
	} else {
		estimates = make([]Estimate, len(candidates))
		for i, cand := range candidates {
			if err = sweepCtx.Err(); err != nil {
				break
			}
			if estimates[i], err = est.Estimate(sweepCtx, cand, c); err != nil {
				break
			}
		}
	}
	sweep.End()
	if err != nil {
		return nil, fmt.Errorf("optimizer: estimate failed: %w", err)
	}

	latMin, latMax := math.Inf(1), math.Inf(-1)
	tptMin, tptMax := math.Inf(1), math.Inf(-1)
	for _, e := range estimates {
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
	return &TuneResult{
		Plan:       candidates[best],
		Estimate:   estimates[best],
		Candidates: len(candidates),
		Cost:       bestCost,
	}, nil
}

// enumerate builds the candidate set: the analytical OptiSample plan, global
// scalings of it, per-operator perturbations, and optional random
// explorations — deduplicated by degree vector. It works on degree vectors by
// topological position and materializes a plan only for a vector not seen
// before.
func enumerate(t *queryplan.Topology, c *cluster.Cluster, opts TuneOptions) []*queryplan.PQP {
	base := optisample.Exact().Degrees(t, c, nil, nil)
	maxP := c.TotalCores()

	seen := make(map[string]struct{})
	var key []byte
	var out []*queryplan.PQP
	add := func(deg []int) {
		key = key[:0]
		for _, d := range deg {
			key = binary.AppendUvarint(key, uint64(d))
		}
		if _, dup := seen[string(key)]; !dup {
			seen[string(key)] = struct{}{}
			out = append(out, t.NewPlan(deg))
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
