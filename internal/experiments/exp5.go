package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"zerotune/internal/cluster"
	"zerotune/internal/metrics"
	"zerotune/internal/optimizer"
	"zerotune/internal/optisample"
	"zerotune/internal/queryplan"
	"zerotune/internal/simulator"
	"zerotune/internal/workload"
)

// Exp. 5: optimizer for parallelism tuning (Fig. 10) — ZeroTune + optimizer
// against the greedy heuristic [20] and Dhalion [19], judged by the *true*
// (simulated) runtime of the plans each tuner picks.

// tuningStructures lists the query types of Fig. 10: seen and unseen.
var tuningStructures = []struct {
	Name   string
	Unseen bool
}{
	{"linear", false},
	{"2-way-join", false},
	{"3-way-join", false},
	{"2-chained-filters", true},
	{"4-way-join", true},
	{"5-way-join", true},
}

// Fig10aRow is the mean speed-up of ZeroTune-tuned plans over the greedy
// heuristic for one query type.
type Fig10aRow struct {
	Structure  string
	Unseen     bool
	LatSpeedup float64 // greedy latency / zerotune latency (mean)
	TptSpeedup float64 // zerotune throughput / greedy throughput (mean)
	N          int
}

// Fig10aResult is Fig. 10a.
type Fig10aResult struct {
	Rows []Fig10aRow
}

// String renders the speed-up table.
func (r *Fig10aResult) String() string {
	var b strings.Builder
	b.WriteString("Fig. 10a: mean speed-up of ZeroTune tuning vs greedy heuristic\n")
	fmt.Fprintf(&b, "%-20s %-7s %12s %12s\n", "structure", "scope", "lat speedup", "tpt speedup")
	for _, row := range r.Rows {
		scope := "seen"
		if row.Unseen {
			scope = "unseen"
		}
		fmt.Fprintf(&b, "%-20s %-7s %11.2fx %11.2fx\n", row.Structure, scope, row.LatSpeedup, row.TptSpeedup)
	}
	return b.String()
}

// simObserve is the ground-truth runtime the online baselines measure
// against.
func simObserve(p *queryplan.PQP, c *cluster.Cluster) (optimizer.Estimate, error) {
	res, err := simulator.Simulate(p, c, simulator.Options{DisableNoise: true})
	if err != nil {
		return optimizer.Estimate{}, err
	}
	return optimizer.Estimate{LatencyMs: res.LatencyMs, ThroughputEPS: res.ThroughputEPS}, nil
}

func simRuntimeObserve(p *queryplan.PQP, c *cluster.Cluster) (optimizer.Estimate, map[int]optimizer.Diagnosis, error) {
	res, err := simulator.Simulate(p, c, simulator.Options{DisableNoise: true})
	if err != nil {
		return optimizer.Estimate{}, nil, err
	}
	diag := make(map[int]optimizer.Diagnosis, len(res.OpStats))
	for id, st := range res.OpStats {
		diag[id] = optimizer.Diagnosis{Utilization: st.Utilization}
	}
	return optimizer.Estimate{LatencyMs: res.LatencyMs, ThroughputEPS: res.ThroughputEPS}, diag, nil
}

// tuningGenerator samples queries whose rates make parallelism matter.
func (l *Lab) tuningGenerator(seed uint64) *workload.Generator {
	gen := &workload.Generator{
		Ranges:    workload.SeenRanges(),
		Strategy:  optisample.Default(),
		Seed:      seed,
		NodeTypes: cluster.SeenTypes(),
	}
	gen.Ranges.EventRates = []float64{20_000, 50_000, 100_000, 250_000, 500_000, 1_000_000}
	gen.Ranges.Workers = []int{4, 6, 8}
	return gen
}

// RunFig10aSpeedup reproduces Fig. 10a: for each query type, tune the same
// queries with ZeroTune's optimizer (model-predicted what-if costs) and the
// greedy heuristic (real deployments), then execute both final plans and
// report the mean speed-ups.
func (l *Lab) RunFig10aSpeedup() (*Fig10aResult, error) {
	zt, err := l.ZeroTune()
	if err != nil {
		return nil, err
	}
	est := zt.Estimator()
	res := &Fig10aResult{}
	for si, s := range tuningStructures {
		gen := l.tuningGenerator(l.Cfg.Seed + 3000 + uint64(si))
		var latSp, tptSp []float64
		for i := 0; i < l.Cfg.TuneQueriesPerType; i++ {
			q, c, err := gen.SampleQuery(s.Name, uint64(i))
			if err != nil {
				return nil, err
			}
			tuned, err := optimizer.Tune(context.Background(), q, c, est, optimizer.DefaultTuneOptions())
			if err != nil {
				return nil, err
			}
			ztTrue, err := simObserve(tuned.Plan, c)
			if err != nil {
				return nil, err
			}
			greedy, err := optimizer.Greedy(q, c, simObserve, 20, 0.5)
			if err != nil {
				return nil, err
			}
			grTrue, err := simObserve(greedy.Plan, c)
			if err != nil {
				return nil, err
			}
			latSp = append(latSp, metrics.Speedup(grTrue.LatencyMs, ztTrue.LatencyMs))
			tptSp = append(tptSp, ztTrue.ThroughputEPS/grTrue.ThroughputEPS)
		}
		res.Rows = append(res.Rows, Fig10aRow{
			Structure:  s.Name,
			Unseen:     s.Unseen,
			LatSpeedup: metrics.Mean(latSp),
			TptSpeedup: metrics.Mean(tptSp),
			N:          len(latSp),
		})
	}
	return res, nil
}

// tuningHorizon is the number of deployment epochs the Fig. 10b comparison
// averages over. ZeroTune runs its what-if-chosen configuration for the
// whole horizon; Dhalion spends its first epochs in the intermediate
// configurations of its convergence trajectory (starting from the all-1
// deployment), paying the oscillation cost of online tuning (paper C1).
const tuningHorizon = 12

// Fig10bRow is the mean Eq. 1 weighted cost of each tuner for one query
// type (0 best, 1 worst; normalized per query over the compared plans),
// time-averaged over the tuning horizon.
type Fig10bRow struct {
	Structure   string
	Unseen      bool
	ZeroTune    float64
	Dhalion     float64
	DhalionRnds float64 // mean reconfiguration rounds Dhalion burned
	N           int
}

// Fig10bResult is Fig. 10b.
type Fig10bResult struct {
	Rows []Fig10bRow
}

// String renders the weighted-cost comparison.
func (r *Fig10bResult) String() string {
	var b strings.Builder
	b.WriteString("Fig. 10b: mean weighted cost (Eq. 1, lower is better) — ZeroTune vs Dhalion\n")
	fmt.Fprintf(&b, "%-20s %-7s %10s %10s %14s\n", "structure", "scope", "zerotune", "dhalion", "dhalion rounds")
	for _, row := range r.Rows {
		scope := "seen"
		if row.Unseen {
			scope = "unseen"
		}
		fmt.Fprintf(&b, "%-20s %-7s %10.3f %10.3f %14.1f\n", row.Structure, scope, row.ZeroTune, row.Dhalion, row.DhalionRnds)
	}
	return b.String()
}

// RunFig10bDhalion reproduces Fig. 10b: the same tuning task against the
// Dhalion controller; both final plans are executed and scored with the
// Eq. 1 weighted cost normalized per query across the compared plans plus
// the naive (all-1) deployment.
func (l *Lab) RunFig10bDhalion() (*Fig10bResult, error) {
	zt, err := l.ZeroTune()
	if err != nil {
		return nil, err
	}
	est := zt.Estimator()
	res := &Fig10bResult{}
	for si, s := range tuningStructures {
		gen := l.tuningGenerator(l.Cfg.Seed + 4000 + uint64(si))
		var ztCosts, dhCosts, rounds []float64
		for i := 0; i < l.Cfg.TuneQueriesPerType; i++ {
			q, c, err := gen.SampleQuery(s.Name, uint64(i))
			if err != nil {
				return nil, err
			}
			tuned, err := optimizer.Tune(context.Background(), q, c, est, optimizer.DefaultTuneOptions())
			if err != nil {
				return nil, err
			}
			ztTrue, err := simObserve(tuned.Plan, c)
			if err != nil {
				return nil, err
			}
			dh, err := optimizer.Dhalion(q, c, simRuntimeObserve, optimizer.DefaultDhalionOptions())
			if err != nil {
				return nil, err
			}
			// Normalize Eq. 1 per query over every configuration either
			// tuner actually ran (ZeroTune's pick plus Dhalion's whole
			// convergence trajectory, which starts at the all-1 plan).
			all := append([]optimizer.Estimate{ztTrue}, dh.Trajectory...)
			latMin, latMax := math.Inf(1), math.Inf(-1)
			tptMin, tptMax := math.Inf(1), math.Inf(-1)
			for _, e := range all {
				latMin, latMax = math.Min(latMin, e.LatencyMs), math.Max(latMax, e.LatencyMs)
				tptMin, tptMax = math.Min(tptMin, e.ThroughputEPS), math.Max(tptMax, e.ThroughputEPS)
			}
			cost := func(e optimizer.Estimate) float64 {
				return optimizer.WeightedCost(e.LatencyMs, e.ThroughputEPS,
					latMin, latMax, tptMin, tptMax, 0.5)
			}
			// ZeroTune deploys its configuration once and keeps it.
			ztCosts = append(ztCosts, cost(ztTrue))
			// Dhalion pays for every intermediate epoch, then the converged
			// configuration for the rest of the horizon.
			var dhSum float64
			epochs := 0
			for _, e := range dh.Trajectory[:len(dh.Trajectory)-1] {
				if epochs == tuningHorizon-1 {
					break
				}
				dhSum += cost(e)
				epochs++
			}
			final := cost(dh.Trajectory[len(dh.Trajectory)-1])
			dhSum += float64(float64(tuningHorizon-epochs) * final) // never fused (arm64 would)
			dhCosts = append(dhCosts, dhSum/float64(tuningHorizon))
			rounds = append(rounds, float64(dh.Rounds))
		}
		res.Rows = append(res.Rows, Fig10bRow{
			Structure:   s.Name,
			Unseen:      s.Unseen,
			ZeroTune:    metrics.Mean(ztCosts),
			Dhalion:     metrics.Mean(dhCosts),
			DhalionRnds: metrics.Mean(rounds),
			N:           len(ztCosts),
		})
	}
	return res, nil
}
