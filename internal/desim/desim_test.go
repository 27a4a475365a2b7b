package desim

import (
	"math"
	"reflect"
	"testing"

	"zerotune/internal/cluster"
	"zerotune/internal/queryplan"
	"zerotune/internal/simulator"
)

// validationCost is the analytical cost model desim mirrors: buffering and
// noise off (desim has no output-buffer batching and is deterministic).
func validationCost() *simulator.CostModel {
	cm := simulator.DefaultCostModel()
	cm.NoiseSigma = 0
	cm.BufferFlushMs = 0
	cm.SyncPerInstanceMs = 0 // coordination overhead is not a DES mechanic
	return &cm
}

func analytical(t *testing.T, p *queryplan.PQP, c *cluster.Cluster) *simulator.Result {
	t.Helper()
	res, err := simulator.Simulate(p.Clone(), c, simulator.Options{Cost: validationCost(), DisableNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func discrete(t *testing.T, p *queryplan.PQP, c *cluster.Cluster) *Metrics {
	t.Helper()
	m, err := Run(p.Clone(), c, Options{Cost: validationCost(), DurationMs: 5000, WarmupMs: 1000})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func oneNodeCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(1, []cluster.NodeType{{Name: "m510", Cores: 8, FreqGHz: 2.0, MemGB: 64}}, 10)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func filterChain(rate float64, n int) *queryplan.PQP {
	fs := make([]queryplan.FilterSpec, n)
	for i := range fs {
		fs[i] = queryplan.FilterSpec{Func: queryplan.CmpLT, LiteralClass: queryplan.TypeInt, Selectivity: 0.8}
	}
	q := queryplan.ChainedFilters(n, queryplan.SourceSpec{EventRate: rate, TupleWidth: 3, DataType: queryplan.TypeInt}, fs)
	return queryplan.NewPQP(q)
}

func countWindowLinear(rate float64, length float64) *queryplan.PQP {
	q := queryplan.Linear(
		queryplan.SourceSpec{EventRate: rate, TupleWidth: 3, DataType: queryplan.TypeDouble},
		queryplan.FilterSpec{Func: queryplan.CmpLE, LiteralClass: queryplan.TypeDouble, Selectivity: 0.5},
		queryplan.AggSpec{Func: queryplan.AggAvg, Class: queryplan.TypeDouble, KeyClass: queryplan.TypeNone,
			Selectivity: 0.02,
			Window:      queryplan.WindowSpec{Type: queryplan.WindowTumbling, Policy: queryplan.PolicyCount, Length: length}},
	)
	return queryplan.NewPQP(q)
}

func timeWindowLinear(rate float64, lengthMs float64) *queryplan.PQP {
	q := queryplan.Linear(
		queryplan.SourceSpec{EventRate: rate, TupleWidth: 3, DataType: queryplan.TypeDouble},
		queryplan.FilterSpec{Func: queryplan.CmpLE, LiteralClass: queryplan.TypeDouble, Selectivity: 0.5},
		queryplan.AggSpec{Func: queryplan.AggAvg, Class: queryplan.TypeDouble, KeyClass: queryplan.TypeNone,
			Selectivity: 0.02,
			Window:      queryplan.WindowSpec{Type: queryplan.WindowTumbling, Policy: queryplan.PolicyTime, Length: lengthMs}},
	)
	return queryplan.NewPQP(q)
}

// ratio asserts a/b within [lo, hi].
func assertRatio(t *testing.T, name string, a, b, lo, hi float64) {
	t.Helper()
	if b == 0 {
		t.Fatalf("%s: zero reference", name)
	}
	r := a / b
	if r < lo || r > hi {
		t.Fatalf("%s: discrete %v vs analytical %v (ratio %.3f outside [%v, %v])", name, a, b, r, lo, hi)
	}
}

// A stable filter chain: throughput equals the offered rate in both engines
// and latency agrees within a small factor.
func TestValidateFilterChainStable(t *testing.T) {
	p := filterChain(2000, 3)
	c := oneNodeCluster(t)
	ana := analytical(t, p, c)
	dis := discrete(t, p, c)
	if dis.Saturated || ana.Backpressured {
		t.Fatalf("stable config flagged saturated: desim=%v ana=%v", dis.Saturated, ana.Backpressured)
	}
	assertRatio(t, "throughput", dis.IngestedEPS, ana.ThroughputEPS, 0.95, 1.05)
	assertRatio(t, "latency", dis.AvgLatencyMs, ana.LatencyMs, 0.2, 5)
	if dis.SinkDeliveries == 0 {
		t.Fatal("no deliveries")
	}
}

// Count-window linear query: the dominant latency term is the window wait
// L/(2·rate); the engines must agree within a factor of two.
func TestValidateCountWindowLatency(t *testing.T) {
	p := countWindowLinear(2000, 100)
	c := oneNodeCluster(t)
	ana := analytical(t, p, c)
	dis := discrete(t, p, c)
	assertRatio(t, "latency", dis.AvgLatencyMs, ana.LatencyMs, 0.5, 2)
	if dis.SinkDeliveries == 0 {
		t.Fatal("no deliveries")
	}
}

// Time-window linear query: wait is half the window duration.
func TestValidateTimeWindowLatency(t *testing.T) {
	p := timeWindowLinear(2000, 1000)
	c := oneNodeCluster(t)
	ana := analytical(t, p, c)
	dis := discrete(t, p, c)
	assertRatio(t, "latency", dis.AvgLatencyMs, ana.LatencyMs, 0.5, 2)
}

// Saturation agreement: a rate far above single-instance capacity must be
// flagged by both engines.
func TestValidateSaturationAgreement(t *testing.T) {
	p := filterChain(2_000_000, 3)
	c := oneNodeCluster(t)
	ana := analytical(t, p, c)
	if !ana.Backpressured {
		t.Fatal("analytical engine missed saturation")
	}
	m, err := Run(p.Clone(), c, Options{Cost: validationCost(), DurationMs: 300, WarmupMs: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Saturated {
		t.Fatalf("discrete engine missed saturation (max queue %d)", m.MaxQueueLen)
	}
}

// Parallelism agreement: raising degrees must keep a previously saturated
// configuration stable in both engines.
func TestValidateParallelismRelief(t *testing.T) {
	c, err := cluster.New(2, []cluster.NodeType{{Name: "m510", Cores: 8, FreqGHz: 2.0, MemGB: 64}}, 10)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(par int) *queryplan.PQP {
		p := filterChain(600_000, 2)
		for _, o := range p.Query.Ops {
			if o.Type == queryplan.OpFilter {
				p.SetDegree(o.ID, par)
			}
		}
		// Break the chain so filters scale independently of the source.
		return p
	}
	ana := analytical(t, mk(4), c)
	if ana.Backpressured {
		t.Skip("analytical engine saturated at this calibration; relief case not comparable")
	}
	m, err := Run(mk(4), c, Options{Cost: validationCost(), DurationMs: 1000, WarmupMs: 200})
	if err != nil {
		t.Fatal(err)
	}
	if m.Saturated {
		t.Fatalf("discrete engine saturated where analytical is stable (max queue %d)", m.MaxQueueLen)
	}
	assertRatio(t, "throughput", m.IngestedEPS, ana.ThroughputEPS, 0.9, 1.1)
}

// Join validation: a stable 2-way join delivers matches at the analytical
// output rate within tolerance.
func TestValidateJoinRates(t *testing.T) {
	srcs := []queryplan.SourceSpec{
		{EventRate: 500, TupleWidth: 3, DataType: queryplan.TypeInt},
		{EventRate: 500, TupleWidth: 3, DataType: queryplan.TypeInt},
	}
	filts := []queryplan.FilterSpec{
		{Func: queryplan.CmpGT, LiteralClass: queryplan.TypeInt, Selectivity: 1.0},
		{Func: queryplan.CmpGT, LiteralClass: queryplan.TypeInt, Selectivity: 1.0},
	}
	joins := []queryplan.JoinSpec{{KeyClass: queryplan.TypeInt, Selectivity: 0.002,
		Window: queryplan.WindowSpec{Type: queryplan.WindowTumbling, Policy: queryplan.PolicyTime, Length: 1000}}}
	agg := queryplan.AggSpec{Func: queryplan.AggSum, Class: queryplan.TypeInt, KeyClass: queryplan.TypeNone,
		Selectivity: 0.01, Window: queryplan.WindowSpec{Type: queryplan.WindowTumbling, Policy: queryplan.PolicyCount, Length: 50}}
	q := queryplan.NWayJoin(2, srcs, filts, joins, agg)
	p := queryplan.NewPQP(q)
	c := oneNodeCluster(t)

	ana := analytical(t, p, c)
	dis := discrete(t, p, c)
	if dis.Saturated {
		t.Fatal("join config saturated in desim")
	}
	assertRatio(t, "ingest", dis.IngestedEPS, ana.ThroughputEPS, 0.9, 1.1)
	// Join output rate: compare deliveries at sink? The sink receives agg
	// emissions; just require deliveries to flow and latency within an
	// order of magnitude (joins compound the most approximations).
	if dis.SinkDeliveries == 0 {
		t.Fatal("no join deliveries")
	}
	assertRatio(t, "latency", dis.AvgLatencyMs, ana.LatencyMs, 0.1, 10)
}

func TestRunValidatesInput(t *testing.T) {
	c := oneNodeCluster(t)
	bad := queryplan.NewPQP(&queryplan.Query{Name: "empty"})
	if _, err := Run(bad, c, DefaultOptions()); err == nil {
		t.Fatal("accepted invalid plan")
	}
}

func TestDeterministicRuns(t *testing.T) {
	c := oneNodeCluster(t)
	a := discrete(t, countWindowLinear(1000, 50), c)
	b := discrete(t, countWindowLinear(1000, 50), c)
	if a.AvgLatencyMs != b.AvgLatencyMs || a.SinkDeliveries != b.SinkDeliveries {
		t.Fatal("desim not deterministic")
	}
	if math.IsNaN(a.AvgLatencyMs) {
		t.Fatal("NaN latency")
	}
}

// Spike detection exercises the mid-chain window path: the 2 s sliding
// aggregate heads a chain whose emissions must resume through the spike
// filter into the sink on the same thread.
func TestValidateSpikeDetectionPipeline(t *testing.T) {
	p := queryplan.NewPQP(queryplan.SpikeDetection(2000))
	c := oneNodeCluster(t)
	ana := analytical(t, p, c)
	dis := discrete(t, p, c)
	if dis.Saturated {
		t.Fatal("spike detection saturated at 2k ev/s")
	}
	if dis.SinkDeliveries == 0 {
		t.Fatal("window emissions never reached the sink through the chain")
	}
	// The sliding window dominates latency: 2 s window, 1 s slide → waits
	// around half a second to a second in both engines.
	assertRatio(t, "latency", dis.AvgLatencyMs, ana.LatencyMs, 0.3, 3)
	assertRatio(t, "throughput", dis.IngestedEPS, ana.ThroughputEPS, 0.95, 1.05)
}

// Sliding count windows: emissions every slide tuples, window covering the
// last L.
func TestValidateSlidingCountWindow(t *testing.T) {
	q := queryplan.Linear(
		queryplan.SourceSpec{EventRate: 2000, TupleWidth: 3, DataType: queryplan.TypeDouble},
		queryplan.FilterSpec{Func: queryplan.CmpLE, LiteralClass: queryplan.TypeDouble, Selectivity: 1.0},
		queryplan.AggSpec{Func: queryplan.AggAvg, Class: queryplan.TypeDouble, KeyClass: queryplan.TypeNone,
			Selectivity: 0.0,
			Window:      queryplan.WindowSpec{Type: queryplan.WindowSliding, Policy: queryplan.PolicyCount, Length: 100, Slide: 50}},
	)
	p := queryplan.NewPQP(q)
	c := oneNodeCluster(t)
	dis := discrete(t, p, c)
	// 2000 ev/s with a slide of 50 → ~40 emissions/s reaching the sink;
	// over the 5 s measurement horizon that is ~200 deliveries.
	if dis.SinkDeliveries < 150 || dis.SinkDeliveries > 250 {
		t.Fatalf("sliding count window deliveries %d, want ≈200", dis.SinkDeliveries)
	}
}

// TestTimelineOrdering: the virtual clock pops events in (time, insertion)
// order and never moves backwards; scheduling into the past panics. It runs
// twice in one process, as the subtests first and second, so state one run
// left behind would show in the other.
func TestTimelineOrdering(t *testing.T) {
	for _, run := range []string{"first", "second"} {
		t.Run(run, testTimelineOrdering)
	}
}

func testTimelineOrdering(t *testing.T) {
	var tl timeline
	times := []float64{5, 1, 3, 1, 4, 2, 5, 0}
	for i, at := range times {
		tl.Schedule(at, i)
	}
	var prevAt float64
	var order []int
	for tl.Len() > 0 {
		at, payload, ok := tl.Pop()
		if !ok {
			t.Fatal("Pop reported empty with events queued")
		}
		if at < prevAt {
			t.Fatalf("clock moved backwards: %g after %g", at, prevAt)
		}
		if at != tl.Now() {
			t.Fatalf("Now() = %g after popping %g", tl.Now(), at)
		}
		prevAt = at
		order = append(order, payload.(int))
	}
	// Equal times break ties by insertion order: payload 1 before 3 (both
	// t=1), 0 before 6 (both t=5).
	want := []int{7, 1, 3, 5, 2, 4, 0, 6}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("pop order %v, want %v", order, want)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("scheduling into the past must panic")
		}
	}()
	tl.Schedule(tl.Now()-1, "late")
}
