package desim_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"zerotune/internal/core"
	"zerotune/internal/desim"
	"zerotune/internal/gateway"
	"zerotune/internal/loadgen"
	"zerotune/internal/serve"
)

// liveTier starts an in-process gateway over replicas serve instances of zt,
// each configured by opts, closed when the test ends. It returns the gateway
// and the first replica.
func liveTier(t *testing.T, zt *core.ZeroTune, replicas int, opts serve.Options) (*gateway.Gateway, *serve.Server) {
	t.Helper()
	backends := make([]serve.Backend, replicas)
	var first *serve.Server
	for i := range backends {
		s := serve.New(opts)
		t.Cleanup(s.Close)
		s.Registry().Install(zt, "knee", "")
		backends[i] = serve.NewInProcessBackend(fmt.Sprintf("replica-%d", i), s)
		if first == nil {
			first = s
		}
	}
	g, err := gateway.New(backends, gateway.Options{RequestTimeout: opts.RequestTimeout})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	t.Cleanup(g.Close)
	return g, first
}

// priceLikePlan reads the simulator's cost table the way `zerotune plan
// -model` does: the spec's CalibrationSpec through a stock gateway over one
// stock replica, the per-request terms off the two /metrics pages that run
// filled, the forward line fitted on the engine.
func priceLikePlan(t *testing.T, zt *core.ZeroTune, spec loadgen.Spec) desim.ServiceModel {
	t.Helper()
	g, replica := liveTier(t, zt, 1, serve.Options{RequestTimeout: 30 * time.Second})
	spec = desim.CalibrationSpec(spec)
	sched, err := spec.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	results, err := loadgen.Run(context.Background(), sched, loadgen.RunOptions{Target: loadgen.HandlerTarget{Handler: g}})
	if err != nil {
		t.Fatal(err)
	}
	if st := loadgen.BuildStep(spec.Rate, spec.Duration, results); st.OK != st.Requests {
		t.Fatalf("%d of %d pricing requests failed", st.Requests-st.OK, st.Requests)
	}
	samples, err := g.Metrics().Samples()
	if err != nil {
		t.Fatal(err)
	}
	replicaSamples, err := replica.Metrics().Samples()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := desim.ServiceModelFromStages(append(samples, replicaSamples...))
	if err != nil {
		t.Fatal(err)
	}
	_, plans, clu := calibrationCorpus(t, spec.Seed, 4)
	if svc.ForwardBaseNs, svc.ForwardPerItemNs, err = desim.FitForward(context.Background(), zt, plans, clu); err != nil {
		t.Fatal(err)
	}
	return svc
}

// kneeGap bounds how far the simulated knee may sit above the live one, per
// replica count: the smallest factor that held over -count=20 on a shared
// 2-core box, rounded up to the next 0.5 — alone the worst run read 74.1 and
// 103.6, beside a second test binary 144.2 and 191.1, and tier-1 runs
// packages side by side. It is the starting gap of ROADMAP item 7, not a
// tolerance anyone chose: the simulator serializes only the forward pass and
// charges the rest of a miss (EncodeNs, ≈0.1 ms of CPU) as a delay, so it sees
// no CPU ceiling, while the live tier shares two cores with its own load
// generator. Three replicas widen it: the simulator's capacity scales with
// them and the cores do not.
var kneeGap = map[int]float64{1: 144.5, 3: 191.5}

// liveSearches is how many live capacity searches TestKneeLiveVsSim runs at
// most per replica count.
const liveSearches = 3

// TestKneeLiveVsSim (ROADMAP item 7) asks loadgen.Search one question twice —
// the highest rate an in-process gateway over 1 and over 3 replicas sustains
// inside a p99 bound — once of the live tier and once of the simulator priced
// the way `plan -model` prices it, with the same options, the same seeded
// spec and the same tier configuration. Every replica runs with one cache
// entry and batches of one on both sides, so each request is a miss and each
// forward pass its own: the work the cost table prices, with no hit rate to
// tell the two apart. The simulated knee may not sit more than 1.5× below the
// live one, nor more than kneeGap above it. Other test binaries on the same
// cores can only lower a live knee, so the live side is the best of up to
// liveSearches searches, stopping at the first that lands within the bounds.
func TestKneeLiveVsSim(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a live tier to saturation")
	}
	zt := calibrationModel(t)
	bodies, _, _ := calibrationCorpus(t, 37, 64)
	spec := loadgen.Spec{Seed: 37, Arrival: loadgen.ArrivalPoisson, Bodies: bodies}
	svc := priceLikePlan(t, zt, spec)

	opts := loadgen.SearchOptions{P99: 20 * time.Millisecond, MinRPS: 250, MaxRPS: 4e6, StepDuration: 100 * time.Millisecond}
	spec.Duration = opts.StepDuration
	tier := serve.Options{MaxBatch: 1, CacheSize: 1, RequestTimeout: 30 * time.Second}
	for _, n := range []int{1, 3} {
		sim, err := loadgen.Search(opts, desim.Oracle(spec, desim.Scenario{Name: "sim", Config: desim.ServeConfig{
			Replicas: n, MaxBatch: tier.MaxBatch, CacheEntries: tier.CacheSize, Service: svc, Seed: spec.Seed,
		}}, nil))
		if err != nil {
			t.Fatal(err)
		}
		within := func(live loadgen.Capacity) bool {
			return sim.MaxRPS*1.5 >= live.MaxRPS && sim.MaxRPS <= kneeGap[n]*live.MaxRPS
		}
		g, _ := liveTier(t, zt, n, tier)
		var live loadgen.Capacity
		for i := 0; i < liveSearches; i++ {
			got, err := loadgen.Search(opts, loadgen.Oracle(context.Background(), spec, loadgen.RunOptions{Target: loadgen.HandlerTarget{Handler: g}}))
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 || got.MaxRPS > live.MaxRPS {
				live = got
			}
			if within(live) {
				break
			}
		}
		t.Logf("replicas=%d: live knee (%.0f, %.0f] in %d probes, sim knee (%.0f, %.0f] in %d probes, sim/live %.2f (encode=%s gateway=%s base=%s peritem=%s)",
			n, live.MaxRPS, live.FailRPS, len(live.Probes), sim.MaxRPS, sim.FailRPS, len(sim.Probes), sim.MaxRPS/live.MaxRPS,
			time.Duration(svc.EncodeNs), time.Duration(svc.GatewayNs), time.Duration(svc.ForwardBaseNs), time.Duration(svc.ForwardPerItemNs))
		if live.MaxRPS <= 0 || live.FailRPS <= 0 || sim.MaxRPS <= 0 || sim.FailRPS <= 0 {
			t.Fatalf("replicas=%d: a knee outside [%g, %g]: live (%g, %g], sim (%g, %g]",
				n, opts.MinRPS, opts.MaxRPS, live.MaxRPS, live.FailRPS, sim.MaxRPS, sim.FailRPS)
		}
		if !within(live) {
			t.Errorf("replicas=%d: sim knee %.0f is not within [1/1.5, %.1f] × the live knee %.0f",
				n, sim.MaxRPS, kneeGap[n], live.MaxRPS)
		}
	}
}
