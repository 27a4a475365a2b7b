package adaptive

import (
	"context"
	"errors"
	"testing"

	"zerotune/internal/cluster"
	"zerotune/internal/feedback"
	"zerotune/internal/obs"
	"zerotune/internal/optimizer"
	"zerotune/internal/queryplan"
	"zerotune/internal/simulator"
)

// oracle prices plans with the simulator — a perfect estimator, isolating
// the controller logic from model error.
func oracle(_ context.Context, p *queryplan.PQP, c *cluster.Cluster) (optimizer.Estimate, error) {
	res, err := simulator.Simulate(p, c, simulator.Options{DisableNoise: true})
	if err != nil {
		return optimizer.Estimate{}, err
	}
	return optimizer.Estimate{LatencyMs: res.LatencyMs, ThroughputEPS: res.ThroughputEPS}, nil
}

func testSetup(t *testing.T, rate float64) (*queryplan.Query, *cluster.Cluster) {
	t.Helper()
	q := queryplan.SpikeDetection(rate)
	c, err := cluster.New(4, cluster.SeenTypes(), 10)
	if err != nil {
		t.Fatal(err)
	}
	return q, c
}

func TestDeployTunesInitialPlan(t *testing.T) {
	q, c := testSetup(t, 300_000)
	ctl := New(optimizer.EstimatorFunc(oracle))
	st, err := ctl.Deploy(context.Background(), q, c)
	if err != nil {
		t.Fatal(err)
	}
	if st.Plan == nil || st.TunedRate != 300_000 {
		t.Fatalf("bad state: %+v", st)
	}
	// At 300k ev/s, the keyed aggregate must be replicated.
	if st.Plan.Degree(1) < 2 {
		t.Fatalf("aggregate degree %d at 300k ev/s", st.Plan.Degree(1))
	}
}

func TestObserveIgnoresSmallDrift(t *testing.T) {
	q, c := testSetup(t, 100_000)
	ctl := New(optimizer.EstimatorFunc(oracle))
	st, err := ctl.Deploy(context.Background(), q, c)
	if err != nil {
		t.Fatal(err)
	}
	changed, err := ctl.Observe(context.Background(), st, c, 110_000) // 10% drift < 30% threshold
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Fatal("reconfigured on small drift")
	}
	if st.Reconfigurations != 0 {
		t.Fatal("reconfiguration counted without change")
	}
}

func TestObserveRetunesOnLargeDrift(t *testing.T) {
	q, c := testSetup(t, 20_000)
	ctl := New(optimizer.EstimatorFunc(oracle))
	st, err := ctl.Deploy(context.Background(), q, c)
	if err != nil {
		t.Fatal(err)
	}
	before := st.Plan.Clone()
	// Rate explodes 20× — the old plan is hopeless.
	changed, err := ctl.Observe(context.Background(), st, c, 400_000)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("controller ignored a 20x rate explosion")
	}
	if st.Reconfigurations != 1 {
		t.Fatalf("reconfigurations %d", st.Reconfigurations)
	}
	// New plan must carry more parallelism than the old one.
	if st.Plan.TotalInstances() <= before.TotalInstances() {
		t.Fatalf("replan did not scale up: %v -> %v", before.DegreesVector(), st.Plan.DegreesVector())
	}
	// And must not be backpressured at the new rate.
	sim, err := simulator.Simulate(st.Plan.Clone(), c, simulator.Options{DisableNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Backpressured {
		t.Fatal("replanned configuration is still backpressured")
	}
}

func TestObserveSkipsMarginalImprovements(t *testing.T) {
	q, c := testSetup(t, 100_000)
	ctl := New(optimizer.EstimatorFunc(oracle))
	ctl.minImprovement = 1e9 // nothing is ever worth reconfiguring
	st, err := ctl.Deploy(context.Background(), q, c)
	if err != nil {
		t.Fatal(err)
	}
	changed, err := ctl.Observe(context.Background(), st, c, 400_000)
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Fatal("reconfigured despite prohibitive improvement threshold")
	}
	// The drift must have been absorbed as the new baseline.
	if st.TunedRate != 400_000 {
		t.Fatalf("tuned rate not updated: %v", st.TunedRate)
	}
}

func TestObserveValidatesInput(t *testing.T) {
	q, c := testSetup(t, 1000)
	ctl := New(optimizer.EstimatorFunc(oracle))
	st, err := ctl.Deploy(context.Background(), q, c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Observe(context.Background(), st, c, 0); !errors.Is(err, ErrBadRate) {
		t.Fatalf("zero rate: want ErrBadRate, got %v", err)
	}
	if _, err := ctl.Observe(context.Background(), nil, c, 100); !errors.Is(err, ErrNotDeployed) {
		t.Fatalf("nil state: want ErrNotDeployed, got %v", err)
	}
}

func TestDeployRequiresEstimator(t *testing.T) {
	q, c := testSetup(t, 1000)
	// The pre-redesign struct-literal construction must keep compiling (the
	// exported fields are the deprecation shim) and keep failing typed.
	ctl := &Controller{tuneOptions: optimizer.DefaultTuneOptions(), driftThreshold: 0.3}
	if _, err := ctl.Deploy(context.Background(), q, c); !errors.Is(err, ErrNoEstimator) {
		t.Fatalf("want ErrNoEstimator, got %v", err)
	}
}

func TestFunctionalOptions(t *testing.T) {
	ctl := New(optimizer.EstimatorFunc(oracle),
		WithDriftThreshold(0.7),
		WithMinImprovement(0.2),
		WithTuneOptions(optimizer.TuneOptions{Weight: 0.9}))
	if ctl.driftThreshold != 0.7 || ctl.minImprovement != 0.2 || ctl.tuneOptions.Weight != 0.9 {
		t.Fatalf("options not applied: %+v", ctl)
	}
}

func TestObserveMetricsRecordsFeedback(t *testing.T) {
	q, c := testSetup(t, 100_000)
	reg := obs.NewRegistry()
	store := feedback.NewStore(16, 1, nil)
	ctl := New(optimizer.EstimatorFunc(oracle),
		WithRegistry(reg),
		WithFeedback(store))
	st, err := ctl.Deploy(context.Background(), q, c)
	if err != nil {
		t.Fatal(err)
	}
	// Rate-only observation: drift bookkeeping, no feedback sample.
	if _, err := ctl.Observe(context.Background(), st, c, 105_000); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 0 {
		t.Fatalf("rate-only observation recorded a sample")
	}
	// Measured observation: one prediction-vs-observed sample lands.
	obsv := Observation{TotalRate: 105_000, LatencyMs: 42, ThroughputEPS: 99_000}
	if _, err := ctl.ObserveMetrics(context.Background(), st, c, obsv); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 1 {
		t.Fatalf("store has %d samples, want 1", store.Len())
	}
	smp := store.Snapshot()[0]
	if smp.ObservedLatencyMs != 42 || smp.ObservedThroughputEPS != 99_000 {
		t.Fatalf("observed values not threaded through: %+v", smp)
	}
	if smp.PredictedLatencyMs <= 0 || smp.PredictedThroughputEPS <= 0 {
		t.Fatalf("predicted values missing: %+v", smp)
	}
	if smp.Class != "adaptive" || smp.Plan == nil || smp.Cluster == nil {
		t.Fatalf("sample attribution incomplete: %+v", smp)
	}
	if n := reg.Counter("zerotune_adaptive_observations_total").Load(); n != 2 {
		t.Fatalf("observations counter %d, want 2", n)
	}
}

func TestRetuneCounterIncrements(t *testing.T) {
	q, c := testSetup(t, 20_000)
	reg := obs.NewRegistry()
	ctl := New(optimizer.EstimatorFunc(oracle), WithRegistry(reg))
	st, err := ctl.Deploy(context.Background(), q, c)
	if err != nil {
		t.Fatal(err)
	}
	changed, err := ctl.Observe(context.Background(), st, c, 400_000)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("expected a reconfiguration on 20x drift")
	}
	if n := reg.Counter("zerotune_adaptive_retunes_total").Load(); n != 1 {
		t.Fatalf("retunes counter %d, want 1", n)
	}
	if g := reg.Gauge("zerotune_adaptive_drift").Load(); g <= 0 {
		t.Fatalf("drift gauge not set: %v", g)
	}
}

func TestObserveHandlesRateDrop(t *testing.T) {
	q, c := testSetup(t, 400_000)
	ctl := New(optimizer.EstimatorFunc(oracle))
	st, err := ctl.Deploy(context.Background(), q, c)
	if err != nil {
		t.Fatal(err)
	}
	scaledUp := st.Plan.TotalInstances()
	// Overnight lull: rate collapses 40×.
	if _, err := ctl.Observe(context.Background(), st, c, 10_000); err != nil {
		t.Fatal(err)
	}
	if st.TunedRate != 10_000 {
		t.Fatalf("tuned rate not tracking drift: %v", st.TunedRate)
	}
	// Whether or not the controller reconfigures (the improvement may be
	// marginal), the tracked plan must stay valid and unsaturated.
	sim, err := simulator.Simulate(st.Plan.Clone(), c, simulator.Options{DisableNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Backpressured {
		t.Fatal("plan backpressured after rate drop")
	}
	_ = scaledUp
}

func TestRepeatedObservationsStable(t *testing.T) {
	q, c := testSetup(t, 100_000)
	ctl := New(optimizer.EstimatorFunc(oracle))
	st, err := ctl.Deploy(context.Background(), q, c)
	if err != nil {
		t.Fatal(err)
	}
	// A stable stream must not cause reconfiguration churn.
	for i := 0; i < 5; i++ {
		changed, err := ctl.Observe(context.Background(), st, c, 100_000*(1+0.05*float64(i%2)))
		if err != nil {
			t.Fatal(err)
		}
		if changed {
			t.Fatalf("controller churned on stable rates (iteration %d)", i)
		}
	}
	if st.Reconfigurations != 0 {
		t.Fatalf("%d reconfigurations on a stable stream", st.Reconfigurations)
	}
}
