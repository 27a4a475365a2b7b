package simulator_test

import (
	"math"
	"testing"
	"testing/quick"

	"zerotune/internal/cluster"
	"zerotune/internal/optisample"
	"zerotune/internal/queryplan"
	"zerotune/internal/simulator"
	"zerotune/internal/tensor"
	"zerotune/internal/workload"
)

// Property-based tests: behaviour laws the engine must satisfy for *any*
// plan drawn from the workload space.

// randomPlan draws a random placed plan + cluster from the full seen
// workload space.
func randomPlan(t *testing.T, seed uint64) (*queryplan.PQP, *cluster.Cluster) {
	t.Helper()
	gen := &workload.Generator{
		Ranges:    workload.SeenRanges(),
		Strategy:  &optisample.Random{MaxDegree: 32},
		Seed:      seed,
		NodeTypes: cluster.SeenTypes(),
	}
	items, err := gen.Generate(workload.SeenRanges().Structures, 1)
	if err != nil {
		t.Fatal(err)
	}
	return items[0].Plan, items[0].Cluster
}

// Results must always be finite and positive, and throughput can never
// exceed the offered source rate.
func TestPropertyResultsSane(t *testing.T) {
	f := func(seed uint64) bool {
		p, c := randomPlan(t, seed)
		res, err := simulator.Simulate(p, c, simulator.Options{DisableNoise: true})
		if err != nil {
			return false
		}
		if res.LatencyMs <= 0 || math.IsNaN(res.LatencyMs) || math.IsInf(res.LatencyMs, 0) {
			return false
		}
		if res.ThroughputEPS <= 0 || math.IsNaN(res.ThroughputEPS) {
			return false
		}
		var offered float64
		for _, s := range p.Query.Sources() {
			offered += s.EventRate
		}
		return res.ThroughputEPS <= offered*1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Backpressure must be consistent: backpressured ⇔ throughput < offered.
func TestPropertyBackpressureConsistent(t *testing.T) {
	f := func(seed uint64) bool {
		p, c := randomPlan(t, seed)
		res, err := simulator.Simulate(p, c, simulator.Options{DisableNoise: true})
		if err != nil {
			return false
		}
		var offered float64
		for _, s := range p.Query.Sources() {
			offered += s.EventRate
		}
		throttled := res.ThroughputEPS < offered*0.999
		return throttled == res.Backpressured
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Determinism across the whole workload space (noise on, fixed seed).
func TestPropertyDeterministic(t *testing.T) {
	f := func(seed uint64) bool {
		p1, c1 := randomPlan(t, seed)
		p2, c2 := randomPlan(t, seed)
		r1, err1 := simulator.Simulate(p1, c1, simulator.Options{Seed: 5})
		r2, err2 := simulator.Simulate(p2, c2, simulator.Options{Seed: 5})
		if err1 != nil || err2 != nil {
			return false
		}
		return r1.LatencyMs == r2.LatencyMs && r1.ThroughputEPS == r2.ThroughputEPS
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// A result is a function of (plan, cluster, options), bit for bit: every float
// sum in the engine runs in topological-position order, instance order within
// an operator. BusyCores used to be summed over a map of operators and took
// three or more distinct values on most plans.
func TestSimulateBitDeterministic(t *testing.T) {
	plans := 0
	for _, structures := range [][]string{workload.SeenRanges().Structures, workload.BenchmarkStructures()} {
		items, err := workload.NewSeenGenerator(9).Generate(structures, 18)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range items {
			plans++
			opts := simulator.Options{Seed: 5}
			want, err := simulator.Simulate(it.Plan, it.Cluster, opts)
			if err != nil {
				t.Fatal(err)
			}
			for run := 1; run < 200; run++ {
				got, err := simulator.Simulate(it.Plan, it.Cluster, opts)
				if err != nil {
					t.Fatal(err)
				}
				for name, pair := range map[string][2]float64{
					"LatencyMs":     {got.LatencyMs, want.LatencyMs},
					"ThroughputEPS": {got.ThroughputEPS, want.ThroughputEPS},
					"CapacityEPS":   {got.CapacityEPS, want.CapacityEPS},
					"BusyCores":     {got.BusyCores, want.BusyCores},
				} {
					if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
						t.Fatalf("%s run %d: %s = %v (%#x), first run %v (%#x)", it.Plan, run, name,
							pair[0], math.Float64bits(pair[0]), pair[1], math.Float64bits(pair[1]))
					}
				}
				// OpStat holds floats and a flag only, and none is NaN, so ==
				// compares every field by value.
				for id, st := range want.OpStats {
					if got.OpStats[id] != st {
						t.Fatalf("%s run %d: operator %d stats %+v, first run %+v", it.Plan, run, id, got.OpStats[id], st)
					}
				}
			}
		}
	}
	if plans < 32 {
		t.Fatalf("only %d plans", plans)
	}
}

// Raising every node's clock frequency must never reduce capacity.
func TestPropertyFrequencyMonotone(t *testing.T) {
	rng := tensor.NewRNG(77)
	for i := 0; i < 20; i++ {
		p, c := randomPlan(t, rng.Uint64())
		slow, err := simulator.Simulate(p.Clone(), c, simulator.Options{DisableNoise: true})
		if err != nil {
			t.Fatal(err)
		}
		// Same cluster, 2× clock everywhere.
		fast := &cluster.Cluster{LinkGbps: c.LinkGbps}
		for _, n := range c.Nodes {
			nt := n.Type
			nt.FreqGHz *= 2
			fast.Nodes = append(fast.Nodes, cluster.Node{Name: n.Name, Type: nt})
		}
		fres, err := simulator.Simulate(p.Clone(), fast, simulator.Options{DisableNoise: true})
		if err != nil {
			t.Fatal(err)
		}
		if fres.CapacityEPS < slow.CapacityEPS*0.999 {
			t.Fatalf("capacity dropped with faster clocks: %v -> %v (plan %v)",
				slow.CapacityEPS, fres.CapacityEPS, p)
		}
	}
}

// Operator stats must conserve flow: every non-source operator's observed
// input rate equals the sum of its upstream output rates.
func TestPropertyFlowConservation(t *testing.T) {
	rng := tensor.NewRNG(88)
	for i := 0; i < 20; i++ {
		p, c := randomPlan(t, rng.Uint64())
		res, err := simulator.Simulate(p, c, simulator.Options{DisableNoise: true})
		if err != nil {
			t.Fatal(err)
		}
		topo, err := p.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		for pos, o := range topo.Ops {
			if o.Type == queryplan.OpSource {
				continue
			}
			var upSum float64
			for _, in := range topo.In[pos] {
				upSum += res.OpStats[topo.Ops[in.From].ID].OutRate
			}
			in := res.OpStats[o.ID].InRate
			if math.Abs(in-upSum) > 1e-6*(1+upSum) {
				t.Fatalf("flow not conserved at op %d: in %v, upstream out %v", o.ID, in, upSum)
			}
		}
	}
}

// Utilizations observed by the monitor must stay below saturation (the
// engine throttles, it does not run instances above capacity).
func TestPropertyObservedUtilizationBounded(t *testing.T) {
	rng := tensor.NewRNG(99)
	for i := 0; i < 20; i++ {
		p, c := randomPlan(t, rng.Uint64())
		res, err := simulator.Simulate(p, c, simulator.Options{DisableNoise: true})
		if err != nil {
			t.Fatal(err)
		}
		for id, st := range res.OpStats {
			if st.Utilization > 1.02 {
				t.Fatalf("op %d observed utilization %v above saturation", id, st.Utilization)
			}
		}
	}
}
