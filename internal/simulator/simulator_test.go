package simulator

import (
	"math"
	"testing"

	"zerotune/internal/cluster"
	"zerotune/internal/queryplan"
)

func linearQuery(rate float64) *queryplan.Query {
	return queryplan.Linear(
		queryplan.SourceSpec{EventRate: rate, TupleWidth: 3, DataType: queryplan.TypeDouble},
		queryplan.FilterSpec{Func: queryplan.CmpLE, LiteralClass: queryplan.TypeDouble, Selectivity: 0.5},
		queryplan.AggSpec{Func: queryplan.AggAvg, Class: queryplan.TypeDouble, KeyClass: queryplan.TypeInt,
			Selectivity: 0.2,
			Window:      queryplan.WindowSpec{Type: queryplan.WindowTumbling, Policy: queryplan.PolicyCount, Length: 50}},
	)
}

func twoWayJoin(rate float64) *queryplan.Query {
	srcs := []queryplan.SourceSpec{
		{EventRate: rate, TupleWidth: 3, DataType: queryplan.TypeInt},
		{EventRate: rate, TupleWidth: 3, DataType: queryplan.TypeInt},
	}
	filts := []queryplan.FilterSpec{
		{Func: queryplan.CmpGT, LiteralClass: queryplan.TypeInt, Selectivity: 0.8},
		{Func: queryplan.CmpGT, LiteralClass: queryplan.TypeInt, Selectivity: 0.8},
	}
	joins := []queryplan.JoinSpec{
		{KeyClass: queryplan.TypeInt, Selectivity: 0.001,
			Window: queryplan.WindowSpec{Type: queryplan.WindowTumbling, Policy: queryplan.PolicyTime, Length: 1000}},
	}
	agg := queryplan.AggSpec{Func: queryplan.AggSum, Class: queryplan.TypeInt, KeyClass: queryplan.TypeInt,
		Selectivity: 0.3,
		Window:      queryplan.WindowSpec{Type: queryplan.WindowTumbling, Policy: queryplan.PolicyCount, Length: 25}}
	return queryplan.NWayJoin(2, srcs, filts, joins, agg)
}

func seenCluster(t *testing.T, n int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(n, cluster.SeenTypes(), 10)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func simulate(t *testing.T, q *queryplan.Query, degrees map[int]int, c *cluster.Cluster) *Result {
	t.Helper()
	p := queryplan.NewPQP(q)
	for id, d := range degrees {
		p.SetDegree(id, d)
	}
	res, err := Simulate(p, c, Options{DisableNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSimulateBasicSanity(t *testing.T) {
	res := simulate(t, linearQuery(1000), nil, seenCluster(t, 2))
	if res.LatencyMs <= 0 || math.IsNaN(res.LatencyMs) || math.IsInf(res.LatencyMs, 0) {
		t.Fatalf("latency %v", res.LatencyMs)
	}
	if res.ThroughputEPS <= 0 {
		t.Fatalf("throughput %v", res.ThroughputEPS)
	}
	if len(res.OpStats) != 4 {
		t.Fatalf("op stats %d", len(res.OpStats))
	}
	if res.Backpressured {
		t.Fatal("1k ev/s linear query should not be backpressured on 2 nodes")
	}
	// Without backpressure, throughput equals the offered source rate.
	if math.Abs(res.ThroughputEPS-1000) > 1 {
		t.Fatalf("throughput %v, want ≈1000", res.ThroughputEPS)
	}
}

func TestSimulateDeterministicWithNoise(t *testing.T) {
	q := linearQuery(5000)
	c := seenCluster(t, 2)
	run := func() *Result {
		p := queryplan.NewPQP(q)
		res, err := Simulate(p, c, Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.LatencyMs != b.LatencyMs || a.ThroughputEPS != b.ThroughputEPS {
		t.Fatal("simulation not deterministic for equal seeds")
	}
}

func TestSimulateNoiseSeedChangesResult(t *testing.T) {
	q := linearQuery(5000)
	c := seenCluster(t, 2)
	p1 := queryplan.NewPQP(q)
	r1, err := Simulate(p1, c, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p2 := queryplan.NewPQP(q)
	r2, err := Simulate(p2, c, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r1.LatencyMs == r2.LatencyMs {
		t.Fatal("noise did not vary with seed")
	}
}

// Backpressure: a very high event rate on parallelism 1 must exceed capacity,
// cap throughput and inflate latency. A time window keeps the window wait
// constant so the latency comparison isolates the backpressure effect
// (count windows fill faster at higher rates, reducing the wait component).
func TestSimulateBackpressure(t *testing.T) {
	c := seenCluster(t, 2)
	mk := func(rate float64) *queryplan.Query {
		return queryplan.Linear(
			queryplan.SourceSpec{EventRate: rate, TupleWidth: 3, DataType: queryplan.TypeDouble},
			queryplan.FilterSpec{Func: queryplan.CmpLE, LiteralClass: queryplan.TypeDouble, Selectivity: 0.5},
			queryplan.AggSpec{Func: queryplan.AggAvg, Class: queryplan.TypeDouble, KeyClass: queryplan.TypeInt,
				Selectivity: 0.2,
				Window:      queryplan.WindowSpec{Type: queryplan.WindowTumbling, Policy: queryplan.PolicyTime, Length: 1000}},
		)
	}
	low := simulate(t, mk(1000), nil, c)
	high := simulate(t, mk(2_000_000), nil, c)
	if !high.Backpressured {
		t.Fatal("2M ev/s at parallelism 1 should be backpressured")
	}
	if high.ThroughputEPS >= 2_000_000 {
		t.Fatalf("backpressured throughput %v not capped", high.ThroughputEPS)
	}
	if high.LatencyMs <= low.LatencyMs {
		t.Fatalf("backpressured latency %v not above normal %v", high.LatencyMs, low.LatencyMs)
	}
	if high.ThroughputEPS > high.CapacityEPS*1.001 {
		t.Fatalf("throughput %v above capacity %v", high.ThroughputEPS, high.CapacityEPS)
	}
}

// Fig. 3 shape: raising parallelism of the hot operators must increase
// capacity (throughput at saturating rates) monotonically until saturation.
func TestParallelismIncreasesCapacity(t *testing.T) {
	q := linearQuery(500_000)
	c := seenCluster(t, 4)
	var prev, first float64
	for _, par := range []int{1, 2, 4, 8} {
		res := simulate(t, q, map[int]int{1: par, 2: par}, c)
		if par == 1 {
			first = res.CapacityEPS
		} else if res.CapacityEPS < prev*0.95 {
			t.Fatalf("capacity dropped from %v to %v at parallelism %d", prev, res.CapacityEPS, par)
		}
		prev = res.CapacityEPS
	}
	// At P=16 the 4 small nodes oversubscribe their cores; contention may
	// dent capacity, but it must stay well above the P=1 level.
	res16 := simulate(t, q, map[int]int{1: 16, 2: 16}, c)
	if res16.CapacityEPS < first {
		t.Fatalf("capacity at P=16 (%v) below P=1 (%v)", res16.CapacityEPS, first)
	}
}

// Fig. 3 shape: at a load that saturates parallelism 1, higher degrees must
// reduce latency (queueing relief dominates sync overhead at these scales).
func TestParallelismReducesLatencyUnderLoad(t *testing.T) {
	q := linearQuery(400_000)
	c := seenCluster(t, 4)
	r1 := simulate(t, q, map[int]int{1: 1, 2: 1}, c)
	r8 := simulate(t, q, map[int]int{1: 8, 2: 8}, c)
	if r8.LatencyMs >= r1.LatencyMs {
		t.Fatalf("latency at P=8 (%v) not below P=1 (%v)", r8.LatencyMs, r1.LatencyMs)
	}
}

// Excessive parallelism must cost latency (coordination overhead), giving
// the optimizer a non-trivial landscape.
func TestExcessiveParallelismHurtsLatency(t *testing.T) {
	q := linearQuery(200) // trivial load
	c := seenCluster(t, 4)
	lean := simulate(t, q, map[int]int{1: 1, 2: 1}, c)
	fat := simulate(t, q, map[int]int{1: 32, 2: 32}, c)
	if fat.LatencyMs <= lean.LatencyMs {
		t.Fatalf("over-parallelized latency %v not above lean %v", fat.LatencyMs, lean.LatencyMs)
	}
}

// Chaining: disabling chaining must increase latency (extra serde/hops).
func TestChainingReducesLatency(t *testing.T) {
	q := linearQuery(10_000)
	c := seenCluster(t, 2)
	p1 := queryplan.NewPQP(q)
	chained, err := Simulate(p1, c, Options{DisableNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	p2 := queryplan.NewPQP(q)
	unchained, err := Simulate(p2, c, Options{DisableNoise: true, DisableChaining: true})
	if err != nil {
		t.Fatal(err)
	}
	if unchained.LatencyMs <= chained.LatencyMs {
		t.Fatalf("unchained latency %v not above chained %v", unchained.LatencyMs, chained.LatencyMs)
	}
}

// Faster hardware must yield lower latency and higher capacity.
func TestFasterHardwareWins(t *testing.T) {
	q := linearQuery(100_000)
	slow, err := cluster.New(2, []cluster.NodeType{{Name: "m510", Cores: 8, FreqGHz: 2.0}}, 10)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := cluster.New(2, []cluster.NodeType{{Name: "rs6525", Cores: 64, FreqGHz: 2.8}}, 10)
	if err != nil {
		t.Fatal(err)
	}
	rSlow := simulate(t, q, map[int]int{1: 4, 2: 4}, slow)
	rFast := simulate(t, q, map[int]int{1: 4, 2: 4}, fast)
	if rFast.CapacityEPS <= rSlow.CapacityEPS {
		t.Fatalf("fast capacity %v not above slow %v", rFast.CapacityEPS, rSlow.CapacityEPS)
	}
	if rFast.LatencyMs >= rSlow.LatencyMs {
		t.Fatalf("fast latency %v not below slow %v", rFast.LatencyMs, rSlow.LatencyMs)
	}
}

// Wider tuples must cost capacity.
func TestTupleWidthCostsCapacity(t *testing.T) {
	c := seenCluster(t, 2)
	narrowQ := queryplan.Linear(
		queryplan.SourceSpec{EventRate: 100_000, TupleWidth: 1, DataType: queryplan.TypeInt},
		queryplan.FilterSpec{Func: queryplan.CmpLT, LiteralClass: queryplan.TypeInt, Selectivity: 0.5},
		queryplan.AggSpec{Func: queryplan.AggSum, Class: queryplan.TypeInt, KeyClass: queryplan.TypeInt,
			Selectivity: 0.2, Window: queryplan.WindowSpec{Type: queryplan.WindowTumbling, Policy: queryplan.PolicyCount, Length: 50}},
	)
	wideQ := queryplan.Linear(
		queryplan.SourceSpec{EventRate: 100_000, TupleWidth: 15, DataType: queryplan.TypeInt},
		queryplan.FilterSpec{Func: queryplan.CmpLT, LiteralClass: queryplan.TypeInt, Selectivity: 0.5},
		queryplan.AggSpec{Func: queryplan.AggSum, Class: queryplan.TypeInt, KeyClass: queryplan.TypeInt,
			Selectivity: 0.2, Window: queryplan.WindowSpec{Type: queryplan.WindowTumbling, Policy: queryplan.PolicyCount, Length: 50}},
	)
	rn := simulate(t, narrowQ, nil, c)
	rw := simulate(t, wideQ, nil, c)
	if rw.CapacityEPS >= rn.CapacityEPS {
		t.Fatalf("wide capacity %v not below narrow %v", rw.CapacityEPS, rn.CapacityEPS)
	}
}

// Longer windows must increase latency (window wait time).
func TestWindowLengthIncreasesLatency(t *testing.T) {
	c := seenCluster(t, 2)
	mk := func(lengthMs float64) *queryplan.Query {
		return queryplan.Linear(
			queryplan.SourceSpec{EventRate: 10_000, TupleWidth: 3, DataType: queryplan.TypeDouble},
			queryplan.FilterSpec{Func: queryplan.CmpLE, LiteralClass: queryplan.TypeDouble, Selectivity: 0.5},
			queryplan.AggSpec{Func: queryplan.AggAvg, Class: queryplan.TypeDouble, KeyClass: queryplan.TypeInt,
				Selectivity: 0.2, Window: queryplan.WindowSpec{Type: queryplan.WindowTumbling, Policy: queryplan.PolicyTime, Length: lengthMs}},
		)
	}
	short := simulate(t, mk(250), nil, c)
	long := simulate(t, mk(5000), nil, c)
	if long.LatencyMs <= short.LatencyMs {
		t.Fatalf("long-window latency %v not above short %v", long.LatencyMs, short.LatencyMs)
	}
}

func TestJoinQuerySimulates(t *testing.T) {
	res := simulate(t, twoWayJoin(5000), nil, seenCluster(t, 4))
	if res.LatencyMs <= 0 || res.ThroughputEPS <= 0 {
		t.Fatalf("bad join result: %+v", res)
	}
	// Join input must be the sum of both filtered streams.
	var joinID int
	q := twoWayJoin(5000)
	for _, o := range q.Ops {
		if o.Type == queryplan.OpJoin {
			joinID = o.ID
		}
	}
	st := res.OpStats[joinID]
	want := 2 * 5000 * 0.8
	if math.Abs(st.InRate-want) > want*0.01 {
		t.Fatalf("join in-rate %v, want ≈%v", st.InRate, want)
	}
}

func TestBottleneckFlagged(t *testing.T) {
	res := simulate(t, linearQuery(500_000), nil, seenCluster(t, 2))
	found := false
	for _, st := range res.OpStats {
		if st.Bottleneck {
			found = true
		}
	}
	if !found {
		t.Fatal("no bottleneck operator flagged")
	}
}

func TestDegreeExceedingCoresRejected(t *testing.T) {
	q := linearQuery(1000)
	c := seenCluster(t, 1) // m510: 8 cores
	p := queryplan.NewPQP(q)
	p.SetDegree(1, 10_000)
	if _, err := Simulate(p, c, Options{}); err == nil {
		t.Fatal("absurd degree accepted")
	}
}

func TestHigherEventRateRaisesUtilization(t *testing.T) {
	c := seenCluster(t, 2)
	lowRes := simulate(t, linearQuery(1000), nil, c)
	highRes := simulate(t, linearQuery(50_000), nil, c)
	lowU, highU := 0.0, 0.0
	for _, st := range lowRes.OpStats {
		if st.Utilization > lowU {
			lowU = st.Utilization
		}
	}
	for _, st := range highRes.OpStats {
		if st.Utilization > highU {
			highU = st.Utilization
		}
	}
	if highU <= lowU {
		t.Fatalf("utilization did not rise with event rate: %v vs %v", lowU, highU)
	}
}

func TestWindowSpan(t *testing.T) {
	op := &queryplan.Operator{WindowPolicy: queryplan.PolicyTime, WindowType: queryplan.WindowTumbling, WindowLength: 2000}
	h, w := op.WindowSpan(1000)
	if h != 2 || w != 0.5 {
		t.Fatalf("time tumbling: horizon %v windows/s %v", h, w)
	}
	op = &queryplan.Operator{WindowPolicy: queryplan.PolicyTime, WindowType: queryplan.WindowSliding, WindowLength: 2000, SlidingLength: 500}
	h, w = op.WindowSpan(1000)
	if h != 2 || w != 2 {
		t.Fatalf("time sliding: horizon %v windows/s %v", h, w)
	}
	op = &queryplan.Operator{WindowPolicy: queryplan.PolicyCount, WindowType: queryplan.WindowTumbling, WindowLength: 100}
	h, w = op.WindowSpan(1000)
	if math.Abs(h-0.1) > 1e-9 || math.Abs(w-10) > 1e-9 {
		t.Fatalf("count tumbling: horizon %v windows/s %v", h, w)
	}
}

func TestMaxShareProperties(t *testing.T) {
	cm := DefaultCostModel()
	if cm.maxShare(queryplan.PartHash, 1) != 1 {
		t.Fatal("share at degree 1 must be 1")
	}
	for _, p := range []int{2, 4, 16, 64} {
		even := cm.maxShare(queryplan.PartRebalance, p)
		skewed := cm.maxShare(queryplan.PartHash, p)
		if math.Abs(even-1/float64(p)) > 1e-12 {
			t.Fatalf("rebalance share at P=%d: %v", p, even)
		}
		if skewed <= even {
			t.Fatalf("hash share %v not above even %v at P=%d", skewed, even, p)
		}
		if skewed > 1 {
			t.Fatalf("share %v > 1", skewed)
		}
	}
}

func TestCountWindowSelectivityReducesRate(t *testing.T) {
	// A tumbling count window of length 10 with one group per window cuts
	// the rate to ~10% (the paper's example in Exp. 3).
	c := seenCluster(t, 2)
	q := queryplan.Linear(
		queryplan.SourceSpec{EventRate: 10_000, TupleWidth: 3, DataType: queryplan.TypeInt},
		queryplan.FilterSpec{Func: queryplan.CmpLT, LiteralClass: queryplan.TypeInt, Selectivity: 1.0},
		queryplan.AggSpec{Func: queryplan.AggSum, Class: queryplan.TypeInt, KeyClass: queryplan.TypeNone,
			Selectivity: 0.0, // global: one group per window
			Window:      queryplan.WindowSpec{Type: queryplan.WindowTumbling, Policy: queryplan.PolicyCount, Length: 10}},
	)
	res := simulate(t, q, nil, c)
	agg := res.OpStats[2]
	if math.Abs(agg.OutRate-1000) > 50 {
		t.Fatalf("count-10 window out rate %v, want ≈1000", agg.OutRate)
	}
}

func TestStragglersReduceCapacity(t *testing.T) {
	q := linearQuery(100_000)
	c := seenCluster(t, 2)
	p1 := queryplan.NewPQP(q)
	healthy, err := Simulate(p1, c, Options{DisableNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	p2 := queryplan.NewPQP(q)
	slow := map[string]float64{}
	for _, n := range c.Nodes {
		slow[n.Name] = 4 // every node runs 4x slower
	}
	degraded, err := Simulate(p2, c, Options{DisableNoise: true, Stragglers: slow})
	if err != nil {
		t.Fatal(err)
	}
	if degraded.CapacityEPS >= healthy.CapacityEPS*0.5 {
		t.Fatalf("stragglers barely reduced capacity: %v -> %v", healthy.CapacityEPS, degraded.CapacityEPS)
	}
	if degraded.LatencyMs <= healthy.LatencyMs {
		t.Fatalf("stragglers did not raise latency: %v -> %v", healthy.LatencyMs, degraded.LatencyMs)
	}
}

func TestBusyCoresScalesWithLoad(t *testing.T) {
	c := seenCluster(t, 2)
	low := simulate(t, linearQuery(1_000), nil, c)
	high := simulate(t, linearQuery(100_000), nil, c)
	if low.BusyCores <= 0 || high.BusyCores <= low.BusyCores {
		t.Fatalf("busy cores did not scale with load: %v -> %v", low.BusyCores, high.BusyCores)
	}
	// Busy cores cannot exceed instances (each capped at one core).
	p := queryplan.NewPQP(linearQuery(100_000))
	if high.BusyCores > float64(p.TotalInstances())+1 {
		t.Fatalf("busy cores %v exceeds instance count", high.BusyCores)
	}
}

func TestLatencyBreakdownConsistent(t *testing.T) {
	res := simulate(t, linearQuery(50_000), nil, seenCluster(t, 2))
	var sum float64
	for _, st := range res.OpStats {
		bd := st.Breakdown
		if bd.ServiceMs < 0 || bd.QueueMs < 0 || bd.WindowWaitMs < 0 || bd.SyncMs < 0 || bd.NetworkMs < 0 {
			t.Fatalf("negative breakdown component: %+v", bd)
		}
		sum += bd.TotalMs()
	}
	// The critical path is at most the sum over all operators, and latency
	// must be positive and bounded by that sum (no backpressure here).
	if res.LatencyMs <= 0 || res.LatencyMs > sum*1.01 {
		t.Fatalf("latency %v inconsistent with breakdown total %v", res.LatencyMs, sum)
	}
	// The aggregate's window wait must dominate its own breakdown at this
	// moderate load.
	agg := res.OpStats[2].Breakdown
	if agg.WindowWaitMs == 0 {
		t.Fatal("window wait missing from aggregate breakdown")
	}
}
