package desim

import (
	"bytes"
	"testing"
	"time"

	"zerotune/internal/gateway"
	"zerotune/internal/loadgen"
)

func plannerSpec() loadgen.Spec {
	return loadgen.Spec{
		Seed:    41,
		Arrival: loadgen.ArrivalPoisson,
		Bodies:  [][]byte{[]byte("p0"), []byte("p1"), []byte("p2"), []byte("p3")},
	}
}

// unbatchedConfig: one request per forward pass and no cache, so capacity
// scales with replica count and saturation is sharp — the regime where the
// search has something to find.
func unbatchedConfig(replicas int) ServeConfig {
	return ServeConfig{
		Replicas:     replicas,
		BatchWindow:  -1,
		MaxBatch:     1,
		QueueDepth:   256,
		CacheEntries: -1,
		Route:        gateway.RouteRoundRobin,
		Service:      mdService(), // deterministic 100µs service
	}
}

// searchScenario runs the capacity search over one simulated scenario, each
// probe spec's workload over opts.StepDuration.
func searchScenario(t *testing.T, name string, cfg ServeConfig, opts loadgen.SearchOptions) loadgen.Capacity {
	t.Helper()
	spec := plannerSpec()
	spec.Duration = opts.StepDuration
	c, err := loadgen.Search(opts, Oracle(spec, Scenario{Name: name, Config: cfg}, nil))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSearchMaxRPSBrackets: the search must return a coherent capacity
// interval — every sustained probe at or below MaxRPS, every failed one at or
// above FailRPS, and the two bracketing a plausible knee for a known
// 100µs/request server (theoretical ceiling 10,000 rps).
func TestSearchMaxRPSBrackets(t *testing.T) {
	res := searchScenario(t, "one", unbatchedConfig(1), loadgen.SearchOptions{
		P99:          5 * time.Millisecond,
		MinRPS:       500,
		MaxRPS:       40_000,
		StepDuration: 2 * time.Second,
	})
	if res.MaxRPS <= 0 || res.FailRPS <= res.MaxRPS {
		t.Fatalf("capacity interval (%g, %g] is not a bracket", res.MaxRPS, res.FailRPS)
	}
	if res.MaxRPS > 10_000 {
		t.Fatalf("MaxRPS %g exceeds the 10k theoretical ceiling of a 100µs server", res.MaxRPS)
	}
	if res.MaxRPS < 5_000 {
		t.Fatalf("MaxRPS %g is implausibly low for a 100µs server under a 5ms p99", res.MaxRPS)
	}
	for _, p := range res.Probes {
		if p.Sustained && p.RPS > res.MaxRPS {
			t.Fatalf("rate %g sustained but above reported MaxRPS %g", p.RPS, res.MaxRPS)
		}
		if !p.Sustained && p.RPS < res.FailRPS {
			t.Fatalf("rate %g failed but below reported FailRPS %g", p.RPS, res.FailRPS)
		}
	}
	if res.Best().Requests == 0 {
		t.Fatal("Best() found no step for the sustained rate")
	}
}

// TestSearchMaxRPSReplicaScaling: three replicas must sustain at least what
// one does — and, for an unbatched uncached tier, close to 3×.
func TestSearchMaxRPSReplicaScaling(t *testing.T) {
	opts := loadgen.SearchOptions{
		P99:          5 * time.Millisecond,
		MinRPS:       500,
		MaxRPS:       60_000,
		StepDuration: 2 * time.Second,
	}
	one := searchScenario(t, "one", unbatchedConfig(1), opts)
	three := searchScenario(t, "three", unbatchedConfig(3), opts)
	if three.MaxRPS < one.MaxRPS {
		t.Fatalf("3 replicas sustain %g rps < 1 replica's %g", three.MaxRPS, one.MaxRPS)
	}
	if three.MaxRPS < 2*one.MaxRPS {
		t.Fatalf("3 replicas sustain only %g rps vs %g for 1 — scaling is broken", three.MaxRPS, one.MaxRPS)
	}
}

// TestSearchUnbracketedEnds: a floor that already fails reports MaxRPS 0;
// a ceiling that still sustains reports FailRPS 0.
func TestSearchUnbracketedEnds(t *testing.T) {
	opts := loadgen.SearchOptions{P99: 5 * time.Millisecond, StepDuration: time.Second}

	opts.MinRPS, opts.MaxRPS = 20_000, 40_000 // both past the 10k ceiling
	res := searchScenario(t, "over", unbatchedConfig(1), opts)
	if res.MaxRPS != 0 || res.FailRPS != 20_000 {
		t.Fatalf("over-capacity bracket: max=%g fail=%g, want 0 / 20000", res.MaxRPS, res.FailRPS)
	}

	opts.MinRPS, opts.MaxRPS = 100, 1_000 // both comfortably sustained
	res = searchScenario(t, "under", unbatchedConfig(1), opts)
	if res.MaxRPS != 1_000 || res.FailRPS != 0 {
		t.Fatalf("under-capacity bracket: max=%g fail=%g, want 1000 / 0", res.MaxRPS, res.FailRPS)
	}
}

// TestCompareSharedSchedule: Compare's counterfactual runs share one
// schedule, report through loadgen's step machinery, and a deliberately
// starved configuration shows strictly worse goodput than a healthy one.
func TestCompareSharedSchedule(t *testing.T) {
	spec := plannerSpec()
	spec.Rate = 3000
	spec.Duration = 2 * time.Second
	var trace bytes.Buffer
	results, err := Compare(spec, []Scenario{
		{Name: "healthy", Config: unbatchedConfig(3)},
		{Name: "starved", Config: func() ServeConfig {
			c := unbatchedConfig(3)
			c.Classes = []gateway.ClassConfig{{Name: gateway.DefaultClassName, Rate: 500, Burst: 10}}
			return c
		}()},
	}, &trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	healthy, starved := results[0], results[1]
	if healthy.Step.Requests != starved.Step.Requests {
		t.Fatalf("scenarios saw different schedules: %d vs %d requests",
			healthy.Step.Requests, starved.Step.Requests)
	}
	if starved.Step.GoodputRPS >= healthy.Step.GoodputRPS {
		t.Fatalf("starved goodput %g not below healthy %g",
			starved.Step.GoodputRPS, healthy.Step.GoodputRPS)
	}
	if starved.Stats.AdmissionRejected == 0 {
		t.Fatal("starved scenario admission-rejected nothing")
	}
	if got := bytes.Count(trace.Bytes(), []byte("# eval scenario=")); got != 2 {
		t.Fatalf("trace has %d eval headers, want 2", got)
	}
}
