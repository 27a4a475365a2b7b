package main

import (
	"context"
	"testing"

	"zerotune/internal/cluster"
	"zerotune/internal/optimizer"
	"zerotune/internal/queryplan"
	"zerotune/internal/simulator"
)

// oracle prices plans with the simulator — a perfect estimator, isolating
// the re-tune rule from model error.
var oracle = optimizer.EstimatorFunc(func(_ context.Context, p *queryplan.PQP, c *cluster.Cluster) (optimizer.Estimate, error) {
	res, err := simulator.Simulate(p, c, simulator.Options{DisableNoise: true})
	if err != nil {
		return optimizer.Estimate{}, err
	}
	return optimizer.Estimate{LatencyMs: res.LatencyMs, ThroughputEPS: res.ThroughputEPS}, nil
})

// deployAt tunes the spike-detection query for rate on a four-node cluster.
func deployAt(t *testing.T, rate float64) (*deployment, *cluster.Cluster) {
	t.Helper()
	c, err := cluster.New(4, cluster.SeenTypes(), 10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := optimizer.Tune(context.Background(), queryplan.SpikeDetection(rate), c, oracle, optimizer.DefaultTuneOptions())
	if err != nil {
		t.Fatal(err)
	}
	return &deployment{plan: res.Plan, rate: rate}, c
}

// observe feeds d one observed rate under the given margin.
func observe(t *testing.T, d *deployment, c *cluster.Cluster, rate, margin float64) bool {
	t.Helper()
	changed, err := d.observe(context.Background(), oracle, c, rate, margin)
	if err != nil {
		t.Fatal(err)
	}
	return changed
}

// backpressured simulates the running plan at the rate it was priced for.
func backpressured(t *testing.T, d *deployment, c *cluster.Cluster) bool {
	t.Helper()
	sim, err := simulator.Simulate(d.plan.Clone(), c, simulator.Options{DisableNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	return sim.Backpressured
}

func TestObserveIgnoresSmallDrift(t *testing.T) {
	d, c := deployAt(t, 100_000)
	if observe(t, d, c, 110_000, minImprovement) || d.reconfigurations != 0 { // 10% drift < 30% threshold
		t.Fatalf("reconfigured on small drift (%d reconfigurations)", d.reconfigurations)
	}
	// Below the threshold nothing is re-tuned, so the baseline stays put.
	if d.rate != 100_000 {
		t.Fatalf("small drift moved the baseline to %v", d.rate)
	}
}

func TestObserveRetunesOnLargeDrift(t *testing.T) {
	d, c := deployAt(t, 20_000)
	before := d.plan.Clone()
	// Rate explodes 20× — the old plan is hopeless.
	if !observe(t, d, c, 400_000, minImprovement) || d.reconfigurations != 1 {
		t.Fatalf("20x rate explosion: %d reconfigurations, want 1", d.reconfigurations)
	}
	if d.plan.TotalInstances() <= before.TotalInstances() {
		t.Fatalf("replan did not scale up: %v -> %v", before.DegreesVector(), d.plan.DegreesVector())
	}
	if backpressured(t, d, c) {
		t.Fatal("replanned configuration is still backpressured")
	}
}

func TestRetuneCounterIncrements(t *testing.T) {
	d, c := deployAt(t, 20_000)
	if !observe(t, d, c, 400_000, minImprovement) {
		t.Fatal("expected a reconfiguration on 20x drift")
	}
	if d.reconfigurations != 1 {
		t.Fatalf("reconfigurations %d after one re-tune, want 1", d.reconfigurations)
	}
	// The counter moves with each reconfiguration and with nothing else.
	want := 1
	for _, rate := range []float64{410_000, 20_000, 400_000} {
		if observe(t, d, c, rate, minImprovement) {
			want++
		}
		if d.reconfigurations != want {
			t.Fatalf("after rate %v: %d reconfigurations, want %d", rate, d.reconfigurations, want)
		}
	}
}

func TestObserveSkipsMarginalImprovements(t *testing.T) {
	d, c := deployAt(t, 100_000)
	if observe(t, d, c, 400_000, 1e9) { // nothing is worth reconfiguring
		t.Fatal("reconfigured despite prohibitive improvement threshold")
	}
	// The drift must have been absorbed as the new baseline.
	if d.rate != 400_000 {
		t.Fatalf("tuned rate not updated: %v", d.rate)
	}
}

func TestObserveHandlesRateDrop(t *testing.T) {
	d, c := deployAt(t, 400_000)
	// Overnight lull: rate collapses 40×.
	observe(t, d, c, 10_000, minImprovement)
	if d.rate != 10_000 {
		t.Fatalf("tuned rate not tracking drift: %v", d.rate)
	}
	// Whether or not it reconfigured (the improvement may be marginal), the
	// tracked plan must stay valid and unsaturated.
	if backpressured(t, d, c) {
		t.Fatal("plan backpressured after rate drop")
	}
}

func TestRepeatedObservationsStable(t *testing.T) {
	d, c := deployAt(t, 100_000)
	// A stable stream must not cause reconfiguration churn.
	for i := 0; i < 5; i++ {
		if observe(t, d, c, 100_000*(1+0.05*float64(i%2)), minImprovement) {
			t.Fatalf("churned on stable rates (iteration %d)", i)
		}
	}
	if d.reconfigurations != 0 {
		t.Fatalf("%d reconfigurations on a stable stream", d.reconfigurations)
	}
}
