package optimizer

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"zerotune/internal/cluster"
	"zerotune/internal/queryplan"
	"zerotune/internal/simulator"
)

func linear(rate float64) *queryplan.Query {
	return queryplan.Linear(
		queryplan.SourceSpec{EventRate: rate, TupleWidth: 3, DataType: queryplan.TypeDouble},
		queryplan.FilterSpec{Func: queryplan.CmpLE, LiteralClass: queryplan.TypeDouble, Selectivity: 0.5},
		queryplan.AggSpec{Func: queryplan.AggAvg, Class: queryplan.TypeDouble, KeyClass: queryplan.TypeInt,
			Selectivity: 0.2, Window: queryplan.WindowSpec{Type: queryplan.WindowTumbling, Policy: queryplan.PolicyCount, Length: 50}},
	)
}

func testCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(4, cluster.SeenTypes(), 10)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// oracle estimates with the simulator itself — a perfect cost model, useful
// to test the optimizer machinery in isolation.
func oracle(_ context.Context, p *queryplan.PQP, c *cluster.Cluster) (Estimate, error) {
	res, err := simulator.Simulate(p, c, simulator.Options{DisableNoise: true})
	if err != nil {
		return Estimate{}, err
	}
	return Estimate{LatencyMs: res.LatencyMs, ThroughputEPS: res.ThroughputEPS}, nil
}

// observeOracle adapts oracle to the ctx-less Observe shape Greedy takes
// (an observation is a real deployment, not a cancellable estimate).
func observeOracle(p *queryplan.PQP, c *cluster.Cluster) (Estimate, error) {
	return oracle(context.Background(), p, c)
}

func runtimeObserve(p *queryplan.PQP, c *cluster.Cluster) (Estimate, map[int]Diagnosis, error) {
	res, err := simulator.Simulate(p, c, simulator.Options{DisableNoise: true})
	if err != nil {
		return Estimate{}, nil, err
	}
	diag := make(map[int]Diagnosis, len(res.OpStats))
	for id, st := range res.OpStats {
		diag[id] = Diagnosis{Utilization: st.Utilization}
	}
	return Estimate{LatencyMs: res.LatencyMs, ThroughputEPS: res.ThroughputEPS}, diag, nil
}

func TestWeightedCostNormalization(t *testing.T) {
	// Best latency and best throughput → cost 0.
	c := WeightedCost(10, 100, 10, 20, 50, 100, 0.5)
	if c != 0 {
		t.Fatalf("optimal candidate cost %v", c)
	}
	// Worst on both → 1.
	c = WeightedCost(20, 50, 10, 20, 50, 100, 0.5)
	if c != 1 {
		t.Fatalf("worst candidate cost %v", c)
	}
	// Degenerate range → 0 contribution.
	if WeightedCost(5, 5, 5, 5, 5, 5, 0.5) != 0 {
		t.Fatal("degenerate normalization")
	}
	// Weight extremes.
	if WeightedCost(20, 100, 10, 20, 50, 100, 1) != 1 {
		t.Fatal("latency-only weight")
	}
	if WeightedCost(20, 100, 10, 20, 50, 100, 0) != 0 {
		t.Fatal("throughput-only weight")
	}
}

func TestTuneBeatsNaiveOnHighRate(t *testing.T) {
	q := linear(600_000)
	c := testCluster(t)
	res, err := Tune(context.Background(), q, c, EstimatorFunc(oracle), DefaultTuneOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Candidates < 5 {
		t.Fatalf("only %d candidates enumerated", res.Candidates)
	}
	// Naive plan: everything at 1 — heavily backpressured at 600k ev/s.
	naive := queryplan.NewPQP(q)
	if err := cluster.Place(naive, c); err != nil {
		t.Fatal(err)
	}
	naiveEst, err := oracle(context.Background(), naive, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate.ThroughputEPS <= naiveEst.ThroughputEPS {
		t.Fatalf("tuned throughput %v not above naive %v", res.Estimate.ThroughputEPS, naiveEst.ThroughputEPS)
	}
	if res.Estimate.LatencyMs >= naiveEst.LatencyMs {
		t.Fatalf("tuned latency %v not below naive %v", res.Estimate.LatencyMs, naiveEst.LatencyMs)
	}
}

func TestTuneRespectsWeightBounds(t *testing.T) {
	q := linear(1000)
	c := testCluster(t)
	bad := DefaultTuneOptions()
	bad.Weight = 1.5
	if _, err := Tune(context.Background(), q, c, EstimatorFunc(oracle), bad); err == nil {
		t.Fatal("accepted weight > 1")
	}
}

// NaN fails both halves of "w < 0 || w > 1", so that bound once let it
// through to a sweep whose every cost was NaN. It is the caller's error.
func TestTuneRejectsNaNWeight(t *testing.T) {
	opts := DefaultTuneOptions()
	opts.Weight = math.NaN()
	_, err := Tune(context.Background(), linear(1000), testCluster(t), EstimatorFunc(oracle), opts)
	var input *InputError
	if !errors.As(err, &input) {
		t.Fatalf("NaN weight: got %v, want an InputError", err)
	}
}

// A NaN estimate compares false against every cost, which once left no
// winner and panicked indexing candidate -1. It is the estimator's failure:
// a plain error naming the candidate, not an InputError.
func TestTuneRejectsNonFiniteEstimate(t *testing.T) {
	q := linear(100_000)
	c := testCluster(t)
	for name, bad := range map[string]Estimate{
		"NaN latency":      {LatencyMs: math.NaN(), ThroughputEPS: 1000},
		"NaN throughput":   {LatencyMs: 5, ThroughputEPS: math.NaN()},
		"infinite latency": {LatencyMs: math.Inf(1), ThroughputEPS: 1000},
	} {
		calls := 0
		est := EstimatorFunc(func(ctx context.Context, p *queryplan.PQP, c *cluster.Cluster) (Estimate, error) {
			calls++
			if calls == 3 {
				return bad, nil
			}
			return oracle(ctx, p, c)
		})
		_, err := Tune(context.Background(), q, c, est, DefaultTuneOptions())
		if err == nil {
			t.Fatalf("%s: accepted", name)
		}
		var input *InputError
		if errors.As(err, &input) {
			t.Fatalf("%s: %v is an InputError", name, err)
		}
		if !strings.Contains(err.Error(), "candidate 2 ") {
			t.Fatalf("%s: %q does not name candidate 2", name, err)
		}
	}
}

func TestTuneDeterministic(t *testing.T) {
	q := linear(100_000)
	c := testCluster(t)
	r1, err := Tune(context.Background(), q, c, EstimatorFunc(oracle), DefaultTuneOptions())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Tune(context.Background(), q, c, EstimatorFunc(oracle), DefaultTuneOptions())
	if err != nil {
		t.Fatal(err)
	}
	v1, v2 := r1.Plan.DegreesVector(), r2.Plan.DegreesVector()
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("tune not deterministic: %v vs %v", v1, v2)
		}
	}
}

func TestTunePlansWithinCores(t *testing.T) {
	q := linear(4_000_000)
	c := testCluster(t)
	res, err := Tune(context.Background(), q, c, EstimatorFunc(oracle), DefaultTuneOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range q.Ops {
		if res.Plan.Degree(o.ID) > c.TotalCores() {
			t.Fatalf("degree %d exceeds cluster cores", res.Plan.Degree(o.ID))
		}
	}
}

func chainedFilters(rate float64, n int) *queryplan.Query {
	fs := make([]queryplan.FilterSpec, n)
	for i := range fs {
		fs[i] = queryplan.FilterSpec{Func: queryplan.CmpLE, LiteralClass: queryplan.TypeString, Selectivity: 0.95}
	}
	return queryplan.ChainedFilters(n, queryplan.SourceSpec{EventRate: rate, TupleWidth: 5, DataType: queryplan.TypeString}, fs)
}

// Autopipelining: on a query whose fused filter chain saturates its single
// thread, greedy must split the chain to raise throughput.
func TestGreedySplitsSaturatedChain(t *testing.T) {
	q := chainedFilters(600_000, 4)
	c := testCluster(t)
	res, err := Greedy(q, c, observeOracle, 24, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Observations < 2 || res.Observations > 24 {
		t.Fatalf("observations %d", res.Observations)
	}
	if len(res.Plan.NoChain) == 0 {
		t.Fatal("greedy never split a saturated chain")
	}
	// Degrees stay at 1: autopipelining never replicates operators.
	for _, o := range q.Ops {
		if res.Plan.Degree(o.ID) != 1 {
			t.Fatalf("greedy replicated an operator: %v", res.Plan.DegreesVector())
		}
	}
	// The split plan must out-perform the fully chained naive plan.
	naive := queryplan.NewPQP(q)
	if err := cluster.Place(naive, c); err != nil {
		t.Fatal(err)
	}
	naiveEst, err := oracle(context.Background(), naive, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate.ThroughputEPS <= naiveEst.ThroughputEPS {
		t.Fatalf("split throughput %v not above chained %v", res.Estimate.ThroughputEPS, naiveEst.ThroughputEPS)
	}
}

func TestGreedyStopsAtLocalOptimum(t *testing.T) {
	q := chainedFilters(100, 3) // trivial load: splitting only adds cost
	c := testCluster(t)
	res, err := Greedy(q, c, observeOracle, 50, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plan.NoChain) != 0 {
		t.Fatalf("greedy split chains on a trivial query: %v", res.Plan.NoChain)
	}
	if res.Observations >= 50 {
		t.Fatal("greedy burned the whole budget without improvement")
	}
}

func TestGreedyRejectsBadBudget(t *testing.T) {
	if _, err := Greedy(linear(1000), testCluster(t), observeOracle, 0, 0.5); err == nil {
		t.Fatal("accepted zero budget")
	}
}

func TestDhalionRemovesBackpressure(t *testing.T) {
	q := linear(600_000)
	c := testCluster(t)
	res, err := Dhalion(q, c, runtimeObserve, DefaultDhalionOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds == 0 {
		t.Fatal("dhalion converged without reconfiguring a backpressured query")
	}
	// Final plan must not be backpressured.
	_, diag, err := runtimeObserve(res.Plan, c)
	if err != nil {
		t.Fatal(err)
	}
	for id, d := range diag {
		if d.Utilization > 1.0 {
			t.Fatalf("operator %d still saturated (util %v) after dhalion", id, d.Utilization)
		}
	}
}

func TestDhalionStableOnIdleQuery(t *testing.T) {
	q := linear(200)
	c := testCluster(t)
	res, err := Dhalion(q, c, runtimeObserve, DefaultDhalionOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 0 {
		t.Fatalf("dhalion reconfigured an idle query %d times", res.Rounds)
	}
	for _, o := range q.Ops {
		if res.Plan.Degree(o.ID) != 1 {
			t.Fatalf("idle query scaled: %v", res.Plan.DegreesVector())
		}
	}
}

func TestDhalionOptionValidation(t *testing.T) {
	q := linear(1000)
	c := testCluster(t)
	bad := DefaultDhalionOptions()
	bad.MaxRounds = 0
	if _, err := Dhalion(q, c, runtimeObserve, bad); err == nil {
		t.Fatal("accepted zero rounds")
	}
	bad = DefaultDhalionOptions()
	bad.TargetUtil = 0
	if _, err := Dhalion(q, c, runtimeObserve, bad); err == nil {
		t.Fatal("accepted zero target utilization")
	}
}

func TestLogScoreMonotonicity(t *testing.T) {
	// Lower latency → lower (better) score at wt=1.
	a := logScore(Estimate{LatencyMs: 10, ThroughputEPS: 100}, 1)
	b := logScore(Estimate{LatencyMs: 20, ThroughputEPS: 100}, 1)
	if a >= b {
		t.Fatal("logScore not monotone in latency")
	}
	// Higher throughput → lower score at wt=0.
	a = logScore(Estimate{LatencyMs: 10, ThroughputEPS: 200}, 0)
	b = logScore(Estimate{LatencyMs: 10, ThroughputEPS: 100}, 0)
	if a >= b {
		t.Fatal("logScore not monotone in throughput")
	}
	if math.IsNaN(logScore(Estimate{}, 0.5)) {
		t.Fatal("logScore NaN on zero estimate")
	}
}

// Against a perfect cost oracle on a small search space, the tuner's pick
// must be close to the global optimum found by exhaustive enumeration.
func TestTuneNearExhaustiveOptimum(t *testing.T) {
	q := linear(300_000)
	c, err := cluster.New(2, []cluster.NodeType{{Name: "m510", Cores: 8, FreqGHz: 2.0, MemGB: 64}}, 10)
	if err != nil {
		t.Fatal(err)
	}

	// Exhaustive search over filter/aggregate degrees 1..8 (source and sink
	// fixed at 1): 64 plans, all scored on true weighted cost.
	type cand struct {
		est Estimate
		fd  int
		ad  int
	}
	var all []cand
	latMin, latMax := math.Inf(1), math.Inf(-1)
	tptMin, tptMax := math.Inf(1), math.Inf(-1)
	for fd := 1; fd <= 8; fd++ {
		for ad := 1; ad <= 8; ad++ {
			p := queryplan.NewPQP(q)
			p.SetDegree(1, fd)
			p.SetDegree(2, ad)
			if err := cluster.Place(p, c); err != nil {
				t.Fatal(err)
			}
			e, err := oracle(context.Background(), p, c)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, cand{est: e, fd: fd, ad: ad})
			latMin, latMax = math.Min(latMin, e.LatencyMs), math.Max(latMax, e.LatencyMs)
			tptMin, tptMax = math.Min(tptMin, e.ThroughputEPS), math.Max(tptMax, e.ThroughputEPS)
		}
	}
	best := math.Inf(1)
	for _, cd := range all {
		cost := WeightedCost(cd.est.LatencyMs, cd.est.ThroughputEPS, latMin, latMax, tptMin, tptMax, 0.5)
		if cost < best {
			best = cost
		}
	}

	res, err := Tune(context.Background(), q, c, EstimatorFunc(oracle), DefaultTuneOptions())
	if err != nil {
		t.Fatal(err)
	}
	tunedTrue, err := oracle(context.Background(), res.Plan, c)
	if err != nil {
		t.Fatal(err)
	}
	tunedCost := WeightedCost(tunedTrue.LatencyMs, tunedTrue.ThroughputEPS, latMin, latMax, tptMin, tptMax, 0.5)
	// The tuner explores a candidate subset, so allow a modest gap to the
	// global optimum of the full grid.
	if tunedCost > best+0.15 {
		t.Fatalf("tuned cost %.3f too far above exhaustive optimum %.3f (degrees %v)",
			tunedCost, best, res.Plan.DegreesVector())
	}
}
