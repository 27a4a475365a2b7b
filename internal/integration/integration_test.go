// Package integration_test exercises the library end-to-end across module
// boundaries: data generation → training → persistence → prediction →
// tuning → verification against the ground-truth engine — the full Fig. 2
// workflow.
package integration_test

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"zerotune/internal/cluster"
	"zerotune/internal/core"
	"zerotune/internal/metrics"
	"zerotune/internal/optimizer"
	"zerotune/internal/queryplan"
	"zerotune/internal/simulator"
	"zerotune/internal/workload"
)

var (
	trainOnce sync.Once
	shared    *core.ZeroTune
	trainErr  error
)

// trainSmall builds a small but competent model once for the package.
func trainSmall(t *testing.T) *core.ZeroTune {
	t.Helper()
	trainOnce.Do(func() {
		gen := workload.NewSeenGenerator(123)
		items, err := gen.Generate(workload.SeenRanges().Structures, 700)
		if err != nil {
			trainErr = err
			return
		}
		opts := core.DefaultTrainOptions()
		opts.Hidden, opts.EncDepth, opts.HeadHidden = 32, 1, 32
		opts.Epochs = 35
		shared, _, trainErr = core.Train(context.Background(), items, opts)
	})
	if trainErr != nil {
		t.Fatal(trainErr)
	}
	return shared
}

func TestEndToEndWorkflow(t *testing.T) {
	zt := trainSmall(t)

	// Persist and reload (the deployment path of Fig. 2: train offline,
	// ship the model).
	var buf bytes.Buffer
	if err := zt.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Predict an unseen benchmark query on unseen hardware: everything
	// about this request is outside the training data.
	c, err := cluster.New(4, cluster.UnseenTypes(), 10)
	if err != nil {
		t.Fatal(err)
	}
	q := queryplan.SpikeDetection(150_000)
	p := queryplan.NewPQP(q)
	pred, err := loaded.Predict(context.Background(), p, c)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := simulator.Simulate(p, c, simulator.Options{DisableNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	// Zero-shot on a doubly-unseen request: demand sanity, not perfection.
	if q := metrics.QError(truth.LatencyMs, pred.LatencyMs); q > 50 {
		t.Fatalf("zero-shot latency q-error %v on unseen benchmark+hardware", q)
	}
	if q := metrics.QError(truth.ThroughputEPS, pred.ThroughputEPS); q > 50 {
		t.Fatalf("zero-shot throughput q-error %v on unseen benchmark+hardware", q)
	}

	// Tune: the recommended plan must beat the naive deployment on true
	// throughput at this saturating rate.
	res, err := loaded.Tune(context.Background(), q, c, optimizer.DefaultTuneOptions())
	if err != nil {
		t.Fatal(err)
	}
	tunedTruth, err := simulator.Simulate(res.Plan, c, simulator.Options{DisableNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	naive := queryplan.NewPQP(q)
	if err := cluster.Place(naive, c); err != nil {
		t.Fatal(err)
	}
	naiveTruth, err := simulator.Simulate(naive, c, simulator.Options{DisableNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	if naiveTruth.Backpressured && tunedTruth.ThroughputEPS <= naiveTruth.ThroughputEPS {
		t.Fatalf("tuned throughput %v not above backpressured naive %v",
			tunedTruth.ThroughputEPS, naiveTruth.ThroughputEPS)
	}
}

func TestEndToEndAdaptiveLoop(t *testing.T) {
	zt := trainSmall(t)
	c, err := cluster.New(6, cluster.SeenTypes(), 10)
	if err != nil {
		t.Fatal(err)
	}
	// Re-tune after the rate jumps 20×: the model must land on a plan that
	// sustains the new rate.
	res, err := zt.Tune(context.Background(), queryplan.SpikeDetection(400_000), c, optimizer.DefaultTuneOptions())
	if err != nil {
		t.Fatal(err)
	}
	truth, err := simulator.Simulate(res.Plan.Clone(), c, simulator.Options{DisableNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	if truth.Backpressured {
		t.Fatalf("re-tuned plan is backpressured at 20x the rate: %v", res.Plan.DegreesVector())
	}
}

// All three tuners must agree on feasibility: whatever plan they pick must
// simulate without error and respect the cluster's core bound.
func TestEndToEndTunersProduceValidPlans(t *testing.T) {
	zt := trainSmall(t)
	gen := workload.NewSeenGenerator(321)
	q, c, err := gen.SampleQuery("2-way-join", 9)
	if err != nil {
		t.Fatal(err)
	}
	observe := func(p *queryplan.PQP, cl *cluster.Cluster) (optimizer.Estimate, error) {
		r, err := simulator.Simulate(p, cl, simulator.Options{DisableNoise: true})
		if err != nil {
			return optimizer.Estimate{}, err
		}
		return optimizer.Estimate{LatencyMs: r.LatencyMs, ThroughputEPS: r.ThroughputEPS}, nil
	}
	observeRT := func(p *queryplan.PQP, cl *cluster.Cluster) (optimizer.Estimate, map[int]optimizer.Diagnosis, error) {
		r, err := simulator.Simulate(p, cl, simulator.Options{DisableNoise: true})
		if err != nil {
			return optimizer.Estimate{}, nil, err
		}
		d := make(map[int]optimizer.Diagnosis)
		for id, st := range r.OpStats {
			d[id] = optimizer.Diagnosis{Utilization: st.Utilization}
		}
		return optimizer.Estimate{LatencyMs: r.LatencyMs, ThroughputEPS: r.ThroughputEPS}, d, nil
	}

	var plans []*queryplan.PQP
	tuned, err := zt.Tune(context.Background(), q, c, optimizer.DefaultTuneOptions())
	if err != nil {
		t.Fatal(err)
	}
	plans = append(plans, tuned.Plan)
	gr, err := optimizer.Greedy(q, c, observe, 16, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	plans = append(plans, gr.Plan)
	dh, err := optimizer.Dhalion(q, c, observeRT, optimizer.DefaultDhalionOptions())
	if err != nil {
		t.Fatal(err)
	}
	plans = append(plans, dh.Plan)

	for i, p := range plans {
		if err := p.Validate(); err != nil {
			t.Fatalf("tuner %d produced invalid plan: %v", i, err)
		}
		for _, o := range q.Ops {
			if p.Degree(o.ID) > c.TotalCores() {
				t.Fatalf("tuner %d exceeded cores: %v", i, p.DegreesVector())
			}
		}
		if _, err := simulator.Simulate(p.Clone(), c, simulator.Options{DisableNoise: true}); err != nil {
			t.Fatalf("tuner %d plan does not simulate: %v", i, err)
		}
	}
}
