package optimizer

import (
	"fmt"
	"math"

	"zerotune/internal/cluster"
	"zerotune/internal/queryplan"
)

// Observe executes (here: simulates) a plan and reports the measured costs —
// the expensive runtime observation the online baselines burn their budget
// on.
type Observe func(p *queryplan.PQP, c *cluster.Cluster) (Estimate, error)

// logScore is the scale-free objective used for tie-breaking and by tests:
// wt·ln(latency) − (1−wt)·ln(throughput). Lower is better.
func logScore(e Estimate, wt float64) float64 {
	return float64(wt*math.Log(math.Max(e.LatencyMs, 1e-9))) - float64((1-wt)*math.Log(math.Max(e.ThroughputEPS, 1e-9)))
}

// minTptGain is the relative throughput improvement a pipeline split must
// yield for the greedy tuner to accept it (autopipelining's convergence
// criterion: stop when further splitting no longer pays off in rate).
const minTptGain = 0.05

// GreedyResult reports the plan an online tuner converged to and how many
// runtime observations (deployments) it consumed getting there.
type GreedyResult struct {
	Plan         *queryplan.PQP
	Estimate     Estimate
	Observations int
}

// Greedy is the autopipelining baseline [Tang & Gedik, TPDS 2012]: a
// throughput-oriented optimizer that exploits *pipeline* parallelism only.
// Operators keep parallelism degree 1 — the technique never replicates an
// operator. Starting from the engine's default plan (operators fused into
// chains that share one thread each), it greedily breaks the chain at the
// operator whose split most improves the observed throughput: a split puts
// the downstream stage on its own thread (core) at the price of an extra
// serialization/buffer hand-off. It converges when no single split improves
// throughput by at least 5% or the observation budget is exhausted. Every
// candidate evaluation deploys (simulates) the query — the trial-and-error
// cost the paper's C1 describes. Like the original, it reasons about
// sustained rate only; wt merely breaks ties.
func Greedy(q *queryplan.Query, c *cluster.Cluster, observe Observe, budget int, wt float64) (*GreedyResult, error) {
	if budget < 1 {
		return nil, fmt.Errorf("optimizer: greedy budget must be positive, got %d", budget)
	}
	// The query is analysed once; every round reads chain groups and
	// upstreams from the analysis, and every candidate is placed with it.
	t, err := q.Analyze()
	if err != nil {
		return nil, fmt.Errorf("optimizer: greedy: %w", err)
	}
	cur := queryplan.NewPQP(q)
	if err := cluster.PlaceWith(t, cur, c); err != nil {
		return nil, err
	}
	curEst, err := observe(cur, c)
	if err != nil {
		return nil, err
	}
	obs := 1

	n := len(t.Ops)
	deg := t.Degrees(cur, make([]int, 0, n)) // all 1, and Greedy keeps them so
	groups := make([]int, 0, n)
	size := make([]int, n)
	for obs < budget {
		// Split candidates, in declaration order: operators currently fused
		// into a chain behind an upstream operator.
		groups = t.ChainGroups(cur, deg, groups)
		clear(size)
		for _, g := range groups {
			size[g]++
		}
		var candidates []int
		for k, o := range q.Ops {
			pos := t.Decl[k]
			if cur.NoChain[o.ID] || size[groups[pos]] < 2 {
				continue
			}
			// Head operators of a chain cannot be split away from
			// themselves; an operator is splittable when its single
			// upstream shares its group.
			if ins := t.In[pos]; len(ins) == 1 && groups[ins[0].From] == groups[pos] {
				candidates = append(candidates, o.ID)
			}
		}
		if len(candidates) == 0 {
			break
		}

		bestOp := -1
		bestTpt := curEst.ThroughputEPS * (1 + minTptGain)
		var bestPlan *queryplan.PQP
		var bestEst Estimate
		for _, opID := range candidates {
			if obs >= budget {
				break
			}
			cand := cur.Clone()
			cand.SetNoChain(opID, true)
			if err := cluster.PlaceWith(t, cand, c); err != nil {
				return nil, err
			}
			e, err := observe(cand, c)
			if err != nil {
				return nil, err
			}
			obs++
			better := e.ThroughputEPS > bestTpt
			if !better && bestOp >= 0 && e.ThroughputEPS == bestTpt {
				better = logScore(e, wt) < logScore(bestEst, wt)
			}
			if better {
				bestOp, bestTpt, bestPlan, bestEst = opID, e.ThroughputEPS, cand, e
			}
		}
		if bestOp < 0 {
			break // converged: no split pays off in throughput
		}
		cur, curEst = bestPlan, bestEst
	}
	return &GreedyResult{Plan: cur, Estimate: curEst, Observations: obs}, nil
}
