// Adaptive: runtime re-tuning with the zero-shot model — the extension the
// paper mentions in Sec. I ("the proposed model can also be used to
// readjust parallelism degree at runtime"). The example watches the
// observed source rate of a running query; when it drifts, it re-runs the
// what-if optimizer against the new rate and reconfigures only when the
// predicted win justifies it. No trial deployments, no oscillation.
//
//	go run ./examples/adaptive
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"zerotune/internal/cluster"
	"zerotune/internal/core"
	"zerotune/internal/optimizer"
	"zerotune/internal/queryplan"
	"zerotune/internal/simulator"
	"zerotune/internal/workload"
)

// A relative drift of the observed rate past driftThreshold triggers one
// what-if optimization; its plan replaces the running one only when it wins
// by minImprovement on logScore.
const (
	driftThreshold = 0.3
	minImprovement = 0.05
)

// deployment is the running spike-detection query: its plan, the total
// source rate that plan was last priced at, and how often it was
// reconfigured.
type deployment struct {
	plan             *queryplan.PQP
	rate             float64
	reconfigurations int
}

// observe feeds the deployment one observed source rate, pricing plans with
// est on c, and reports whether it reconfigured. A new plan must win by
// margin (minImprovement in main).
func (d *deployment) observe(ctx context.Context, est optimizer.CostEstimator, c *cluster.Cluster, rate, margin float64) (bool, error) {
	if math.Abs(rate/d.rate-1) < driftThreshold {
		return false, nil
	}
	q := queryplan.SpikeDetection(rate)
	opts := optimizer.DefaultTuneOptions()
	res, err := optimizer.Tune(ctx, q, c, est, opts)
	if err != nil {
		return false, err
	}
	// The running degrees, re-priced at the observed rate.
	running := queryplan.NewPQP(q)
	for _, op := range q.Ops {
		running.SetDegree(op.ID, d.plan.Degree(op.ID))
	}
	if err := cluster.Place(running, c); err != nil {
		return false, err
	}
	cur, err := est.Estimate(ctx, running, c)
	if err != nil {
		return false, err
	}
	// Either way the drift becomes the new baseline, so a rate that settles
	// is not re-tuned at every observation.
	d.plan, d.rate = running, rate
	if logScore(cur, opts.Weight)-logScore(res.Estimate, opts.Weight) < margin {
		return false, nil
	}
	d.plan = res.Plan
	d.reconfigurations++
	return true, nil
}

// logScore is the margin rule's cost of one estimate, lower is better:
// wt·ln(latency) − (1−wt)·ln(throughput). Unlike the optimizer's Eq. 1 cost,
// which is min-max normalised over one candidate set, it compares two plans
// priced on their own.
func logScore(e optimizer.Estimate, wt float64) float64 {
	return wt*math.Log(math.Max(e.LatencyMs, 1e-9)) - (1-wt)*math.Log(math.Max(e.ThroughputEPS, 1e-9))
}

func main() {
	fmt.Println("training the cost model on 2500 synthetic queries (~1 min)...")
	gen := workload.NewSeenGenerator(31)
	items, err := gen.Generate(workload.SeenRanges().Structures, 2500)
	if err != nil {
		log.Fatal(err)
	}
	opts := core.DefaultTrainOptions()
	opts.Epochs = 50
	zt, _, err := core.Train(context.Background(), items, opts)
	if err != nil {
		log.Fatal(err)
	}

	// Deploy the spike-detection query at a calm overnight rate.
	c, err := cluster.New(6, cluster.SeenTypes(), 10)
	if err != nil {
		log.Fatal(err)
	}
	res, err := zt.Tune(context.Background(), queryplan.SpikeDetection(20_000), c, optimizer.DefaultTuneOptions())
	if err != nil {
		log.Fatal(err)
	}
	d := &deployment{plan: res.Plan, rate: 20_000}
	fmt.Printf("\ninitial deployment at 20k ev/s: degrees %v\n\n", d.plan.DegreesVector())

	// The day unfolds: rates drift upward into the morning peak and back.
	fmt.Printf("%10s %12s %-22s %14s %14s\n", "observed", "reconfig?", "degrees", "latency (ms)", "tpt (ev/s)")
	for _, rate := range []float64{22_000, 60_000, 250_000, 400_000, 120_000, 25_000} {
		changed, err := d.observe(context.Background(), zt.Estimator(), c, rate, minImprovement)
		if err != nil {
			log.Fatal(err)
		}
		// Ground truth of the currently running plan at the observed rate.
		truth, err := simulator.Simulate(d.plan.Clone(), c, simulator.Options{DisableNoise: true})
		if err != nil {
			log.Fatal(err)
		}
		mark := ""
		if changed {
			mark = "reconfigured"
		}
		fmt.Printf("%10.0f %12s %-22s %14.2f %14.0f\n",
			rate, mark, fmt.Sprint(d.plan.DegreesVector()), truth.LatencyMs, truth.ThroughputEPS)
	}
	fmt.Printf("\ntotal reconfigurations: %d (each one a single what-if optimization, zero trial runs)\n",
		d.reconfigurations)
}
