package integration_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"zerotune/internal/cluster"
	"zerotune/internal/desim"
	"zerotune/internal/features"
	"zerotune/internal/optimizer"
	"zerotune/internal/queryplan"
	"zerotune/internal/simulator"
	"zerotune/internal/tensor"
	"zerotune/internal/workload"
)

var updateGroundTruth = flag.Bool("update", false, "rewrite testdata/ground_truth_golden.json from the code under test")

// The "same answers" pin for the ground-truth half of the repo: everything
// that labels a corpus or stands in for a deployment. The file was recorded at
// the commit before the engines moved from operator-ID walks to
// queryplan.Topology positions and must reproduce bit for bit: generated
// items (degrees, placement, labels, encoded graph), simulator.Simulate with
// noise, with chaining disabled, with stragglers and with NoChain marks,
// desim.Run on the configurations its own tests use, and the Greedy and
// Dhalion baselines.
//
// Every builder in queryplan numbers operators in topological order, so on
// built queries an operator's ID, its declaration index and its topological
// position coincide and a mix-up between them would go unseen. Each section
// therefore also runs on a permuted copy of its queries: IDs renumbered,
// declaration and edge order shuffled.
//
// Result.BusyCores is absent on purpose: at the recording commit it was
// summed in map order and had no single value (TestSimulateBitDeterministic
// pins it from here on).

type groundTruthGolden struct {
	Corpus   []corpusCase   `json:"corpus"`
	Simulate []simulateCase `json:"simulate"`
	Desim    []desimCase    `json:"desim"`
	Tuners   []tunerCase    `json:"tuners"`
}

type corpusCase struct {
	Set   string       `json:"set"`
	Seed  uint64       `json:"seed"`
	Items []corpusItem `json:"items"`
}

type corpusItem struct {
	Template string `json:"template"`
	LatBits  uint64 `json:"latency_bits"`
	TptBits  uint64 `json:"throughput_bits"`
	// Plan digests the degrees and the placement; Graph the encoded graph.
	Plan  string `json:"plan_sha256"`
	Graph string `json:"graph_sha256"`
}

type simulateCase struct {
	Name    string `json:"name"`
	Variant string `json:"variant"`
	LatBits uint64 `json:"latency_bits"`
	TptBits uint64 `json:"throughput_bits"`
	// Result digests capacity, the backpressure flag, the placement Simulate
	// left on the plan and every OpStat field, by ascending operator ID.
	Result string `json:"result_sha256"`
}

type desimCase struct {
	Name           string `json:"name"`
	AvgLatencyBits uint64 `json:"avg_latency_bits"`
	P95LatencyBits uint64 `json:"p95_latency_bits"`
	SinkDeliveries int    `json:"sink_deliveries"`
	IngestedBits   uint64 `json:"ingested_bits"`
	MaxQueueLen    int    `json:"max_queue_len"`
	Saturated      bool   `json:"saturated"`
	BudgetAbort    bool   `json:"budget_abort"`
}

type tunerCase struct {
	Name    string `json:"name"`
	Tuner   string `json:"tuner"`
	Degrees []int  `json:"degrees"`
	NoChain []int  `json:"no_chain"`
	Steps   int    `json:"steps"` // Greedy observations or Dhalion rounds
	LatBits uint64 `json:"latency_bits"`
	TptBits uint64 `json:"throughput_bits"`
	// Plan digests the placement; Trajectory Dhalion's estimates in order.
	Plan       string `json:"plan_sha256"`
	Trajectory string `json:"trajectory_sha256,omitempty"`
}

// digest is a sha256 over little-endian words, floats by their bits.
type digest struct{ h hash.Hash }

func newDigest() digest { return digest{sha256.New()} }

func (d digest) u64(x uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], x)
	d.h.Write(buf[:])
}
func (d digest) f64(x float64) { d.u64(math.Float64bits(x)) }
func (d digest) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}
func (d digest) flag(b bool) {
	if b {
		d.u64(1)
	} else {
		d.u64(0)
	}
}
func (d digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

func sortedIDs(q *queryplan.Query) []int {
	ids := make([]int, len(q.Ops))
	for i, o := range q.Ops {
		ids[i] = o.ID
	}
	sort.Ints(ids)
	return ids
}

// digestPlan hashes degrees, NoChain marks and placement by ascending ID.
func digestPlan(d digest, p *queryplan.PQP) {
	for _, id := range sortedIDs(p.Query) {
		d.u64(uint64(id))
		d.u64(uint64(p.Degree(id)))
		d.flag(p.NoChain[id])
		d.u64(uint64(len(p.Placement[id])))
		for _, n := range p.Placement[id] {
			d.str(n)
		}
	}
}

func digestGraph(d digest, g *features.Graph) {
	vec := func(v tensor.Vector) {
		d.u64(uint64(len(v)))
		for _, x := range v {
			d.f64(x)
		}
	}
	d.u64(uint64(len(g.OpNodes)))
	for _, n := range g.OpNodes {
		d.u64(uint64(n.OpID))
		d.u64(uint64(n.Type))
		vec(n.Feat)
	}
	d.u64(uint64(len(g.ResNodes)))
	for _, n := range g.ResNodes {
		d.str(n.Name)
		vec(n.Feat)
	}
	d.u64(uint64(len(g.DataEdges)))
	for _, e := range g.DataEdges {
		d.u64(uint64(e[0]))
		d.u64(uint64(e[1]))
	}
	d.u64(uint64(len(g.Mapping)))
	for _, e := range g.Mapping {
		d.u64(uint64(e.OpIdx))
		d.u64(uint64(e.ResIdx))
		d.u64(uint64(e.Instances))
	}
	d.u64(uint64(g.SinkIdx))
	d.f64(g.LatencyMs)
	d.f64(g.ThroughputEPS)
	d.str(g.Template)
	d.f64(g.AvgDegree)
}

func digestResult(d digest, p *queryplan.PQP, res *simulator.Result) {
	d.f64(res.CapacityEPS)
	d.flag(res.Backpressured)
	digestPlan(d, p)
	d.u64(uint64(len(res.OpStats)))
	for _, id := range sortedIDs(p.Query) {
		st, ok := res.OpStats[id]
		d.flag(ok)
		d.f64(st.InRate)
		d.f64(st.OutRate)
		d.f64(st.ServiceUs)
		d.f64(st.Utilization)
		d.f64(st.MaxShare)
		d.flag(st.Bottleneck)
		d.f64(st.Breakdown.ServiceMs)
		d.f64(st.Breakdown.QueueMs)
		d.f64(st.Breakdown.WindowWaitMs)
		d.f64(st.Breakdown.SyncMs)
		d.f64(st.Breakdown.NetworkMs)
	}
}

// permuted returns q with operator IDs renumbered and the declaration and
// edge orders shuffled (so ID order, declaration order and topological order
// all differ), and the old-ID → new-ID map.
func permuted(q *queryplan.Query, seed uint64) (*queryplan.Query, map[int]int) {
	rng := tensor.NewRNG(seed)
	shuffle := func(n int) []int {
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		for i := n - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		return perm
	}
	n := len(q.Ops)
	rank := shuffle(n)
	ids := make(map[int]int, n)
	for k, o := range q.Ops {
		ids[o.ID] = 10 + 3*rank[k]
	}
	out := &queryplan.Query{Name: q.Name + " (permuted)", Template: q.Template}
	for _, k := range shuffle(n) {
		o := *q.Ops[k]
		o.ID = ids[o.ID]
		out.Ops = append(out.Ops, &o)
	}
	for _, k := range shuffle(len(q.Edges)) {
		e := q.Edges[k]
		out.Edges = append(out.Edges, queryplan.Edge{From: ids[e.From], To: ids[e.To], Partitioning: e.Partitioning})
	}
	return out, ids
}

// permutedPlan carries p's degrees and NoChain marks (not its placement) over
// to a permuted copy of its query.
func permutedPlan(p *queryplan.PQP, seed uint64) *queryplan.PQP {
	q, ids := permuted(p.Query, seed)
	out := queryplan.NewPQP(q)
	for _, o := range p.Query.Ops {
		out.SetDegree(ids[o.ID], p.Degree(o.ID))
		if p.NoChain[o.ID] {
			out.SetNoChain(ids[o.ID], true)
		}
	}
	return out
}

func goldenCorpus(t *testing.T) []corpusCase {
	t.Helper()
	var out []corpusCase
	for _, seed := range []uint64{1, 2, 3} {
		sets := []struct {
			name       string
			gen        *workload.Generator
			structures []string
		}{
			{"seen", workload.NewSeenGenerator(seed), workload.SeenRanges().Structures},
			{"unseen", workload.NewUnseenGenerator(seed), workload.UnseenRanges().Structures},
			{"benchmark", workload.NewSeenGenerator(seed), workload.BenchmarkStructures()},
		}
		for _, s := range sets {
			items, err := s.gen.Generate(s.structures, 16)
			if err != nil {
				t.Fatal(err)
			}
			c := corpusCase{Set: s.name, Seed: seed}
			for _, it := range items {
				if it.Graph.LatencyMs != it.LatencyMs || it.Graph.ThroughputEPS != it.ThroughputEPS {
					t.Fatalf("%s/%d: graph labels differ from the item's", s.name, seed)
				}
				pd, gd := newDigest(), newDigest()
				digestPlan(pd, it.Plan)
				digestGraph(gd, it.Graph)
				c.Items = append(c.Items, corpusItem{
					Template: it.Plan.Query.Template,
					LatBits:  math.Float64bits(it.LatencyMs),
					TptBits:  math.Float64bits(it.ThroughputEPS),
					Plan:     pd.sum(),
					Graph:    gd.sum(),
				})
			}
			out = append(out, c)
		}
	}
	return out
}

func goldenSimulate(t *testing.T) []simulateCase {
	t.Helper()
	var out []simulateCase
	run := func(name, variant string, p *queryplan.PQP, c *cluster.Cluster, opts simulator.Options) {
		res, err := simulator.Simulate(p, c, opts)
		if err != nil {
			t.Fatalf("%s %s: %v", name, variant, err)
		}
		d := newDigest()
		digestResult(d, p, res)
		out = append(out, simulateCase{Name: name, Variant: variant,
			LatBits: math.Float64bits(res.LatencyMs), TptBits: math.Float64bits(res.ThroughputEPS), Result: d.sum()})
	}
	sets := []struct {
		name       string
		gen        *workload.Generator
		structures []string
	}{
		{"seen", workload.NewSeenGenerator(21), workload.SeenRanges().Structures},
		{"unseen", workload.NewUnseenGenerator(22), workload.UnseenRanges().Structures},
		{"benchmark", workload.NewSeenGenerator(23), workload.BenchmarkStructures()},
	}
	for _, s := range sets {
		items, err := s.gen.Generate(s.structures, 8)
		if err != nil {
			t.Fatal(err)
		}
		for i, it := range items {
			c := it.Cluster
			stragglers := map[string]float64{c.Nodes[0].Name: 2.5, c.Nodes[len(c.Nodes)-1].Name: 1.7, "no-such-node": 9}
			for _, v := range []struct {
				tag  string
				plan *queryplan.PQP
			}{
				{"", it.Plan},
				{"/permuted", permutedPlan(it.Plan, uint64(100+i))},
			} {
				name := fmt.Sprintf("%s/%d/%s%s", s.name, i, it.Plan.Query.Template, v.tag)
				run(name, "placed+noise", v.plan.Clone(), c, simulator.Options{Seed: 7})
				unplaced := v.plan.Clone()
				unplaced.Placement = nil
				run(name, "unplaced", unplaced, c, simulator.Options{DisableNoise: true})
				run(name, "no-chaining", v.plan.Clone(), c, simulator.Options{DisableNoise: true, DisableChaining: true})
				run(name, "stragglers", v.plan.Clone(), c, simulator.Options{DisableNoise: true, Stragglers: stragglers})
				// Chaining disabled on every third operator (by declaration),
				// on a plan whose degrees are all 2 so that chains exist.
				marked := queryplan.NewPQP(v.plan.Query)
				for k, o := range v.plan.Query.Ops {
					marked.SetDegree(o.ID, 2)
					if k%3 == 1 {
						marked.SetNoChain(o.ID, true)
					}
				}
				run(name, "uniform-2+nochain", marked, c, simulator.Options{DisableNoise: true})
			}
		}
	}
	return out
}

func desimCost() *simulator.CostModel {
	cm := simulator.DefaultCostModel()
	cm.NoiseSigma = 0
	cm.BufferFlushMs = 0
	cm.SyncPerInstanceMs = 0
	return &cm
}

func goldenDesim(t *testing.T) []desimCase {
	t.Helper()
	m510 := []cluster.NodeType{{Name: "m510", Cores: 8, FreqGHz: 2.0, MemGB: 64}}
	one, err := cluster.New(1, m510, 10)
	if err != nil {
		t.Fatal(err)
	}
	two, err := cluster.New(2, m510, 10)
	if err != nil {
		t.Fatal(err)
	}
	hetero, err := cluster.New(3, cluster.SeenTypes(), 1)
	if err != nil {
		t.Fatal(err)
	}

	filterChain := func(rate float64, n int) *queryplan.PQP {
		fs := make([]queryplan.FilterSpec, n)
		for i := range fs {
			fs[i] = queryplan.FilterSpec{Func: queryplan.CmpLT, LiteralClass: queryplan.TypeInt, Selectivity: 0.8}
		}
		return queryplan.NewPQP(queryplan.ChainedFilters(n,
			queryplan.SourceSpec{EventRate: rate, TupleWidth: 3, DataType: queryplan.TypeInt}, fs))
	}
	windowLinear := func(rate, filterSel, aggSel float64, w queryplan.WindowSpec) *queryplan.PQP {
		return queryplan.NewPQP(queryplan.Linear(
			queryplan.SourceSpec{EventRate: rate, TupleWidth: 3, DataType: queryplan.TypeDouble},
			queryplan.FilterSpec{Func: queryplan.CmpLE, LiteralClass: queryplan.TypeDouble, Selectivity: filterSel},
			queryplan.AggSpec{Func: queryplan.AggAvg, Class: queryplan.TypeDouble, KeyClass: queryplan.TypeNone,
				Selectivity: aggSel, Window: w}))
	}
	countWindow := func(l float64) queryplan.WindowSpec {
		return queryplan.WindowSpec{Type: queryplan.WindowTumbling, Policy: queryplan.PolicyCount, Length: l}
	}
	nWayJoin := func(n int, rate float64, join queryplan.WindowSpec) *queryplan.PQP {
		srcs := make([]queryplan.SourceSpec, n)
		filts := make([]queryplan.FilterSpec, n)
		for i := range srcs {
			srcs[i] = queryplan.SourceSpec{EventRate: rate, TupleWidth: 3, DataType: queryplan.TypeInt}
			filts[i] = queryplan.FilterSpec{Func: queryplan.CmpGT, LiteralClass: queryplan.TypeInt, Selectivity: 1.0}
		}
		joins := make([]queryplan.JoinSpec, n-1)
		for i := range joins {
			joins[i] = queryplan.JoinSpec{KeyClass: queryplan.TypeInt, Selectivity: 0.002, Window: join}
		}
		agg := queryplan.AggSpec{Func: queryplan.AggSum, Class: queryplan.TypeInt, KeyClass: queryplan.TypeNone,
			Selectivity: 0.01, Window: countWindow(50)}
		return queryplan.NewPQP(queryplan.NWayJoin(n, srcs, filts, joins, agg))
	}
	relief := filterChain(600_000, 2)
	for _, o := range relief.Query.Ops {
		if o.Type == queryplan.OpFilter {
			relief.SetDegree(o.ID, 4)
		}
	}
	// Parallel plans: every non-source, non-sink operator at degree 2 or 3.
	parallel := func(p *queryplan.PQP) *queryplan.PQP {
		for k, o := range p.Query.Ops {
			if o.Type != queryplan.OpSource && o.Type != queryplan.OpSink {
				p.SetDegree(o.ID, 2+k%2)
			}
		}
		return p
	}
	timeTumbling := queryplan.WindowSpec{Type: queryplan.WindowTumbling, Policy: queryplan.PolicyTime, Length: 1000}
	timeSliding := queryplan.WindowSpec{Type: queryplan.WindowSliding, Policy: queryplan.PolicyTime, Length: 400, Slide: 200}
	countSliding := queryplan.WindowSpec{Type: queryplan.WindowSliding, Policy: queryplan.PolicyCount, Length: 40, Slide: 20}

	long := desim.Options{Cost: desimCost(), DurationMs: 5000, WarmupMs: 1000}
	short := desim.Options{Cost: desimCost(), DurationMs: 1000, WarmupMs: 200}
	cases := []struct {
		name string
		plan *queryplan.PQP
		c    *cluster.Cluster
		opts desim.Options
	}{
		// The configurations of desim_test.go.
		{"filter-chain-stable", filterChain(2000, 3), one, long},
		{"count-window", windowLinear(2000, 0.5, 0.02, countWindow(100)), one, long},
		{"time-window", windowLinear(2000, 0.5, 0.02, timeTumbling), one, long},
		{"saturation", filterChain(2_000_000, 3), one, desim.Options{Cost: desimCost(), DurationMs: 300, WarmupMs: 50}},
		{"parallelism-relief", relief, two, short},
		{"join-rates", nWayJoin(2, 500, timeTumbling), one, long},
		{"deterministic-runs", windowLinear(1000, 0.5, 0.02, countWindow(50)), one, long},
		{"spike-detection", queryplan.NewPQP(queryplan.SpikeDetection(2000)), one, long},
		{"sliding-count-window", windowLinear(2000, 1.0, 0.0, queryplan.WindowSpec{
			Type: queryplan.WindowSliding, Policy: queryplan.PolicyCount, Length: 100, Slide: 50}), one, long},
		// Default options and cost model, and a budget abort.
		{"defaults", windowLinear(500, 0.5, 0.1, countWindow(20)), two, desim.Options{}},
		{"budget-abort", filterChain(50_000, 3), one, desim.Options{Cost: desimCost(), DurationMs: 1000, WarmupMs: 50, MaxEvents: 60_000}},
		// Parallel instances, multi-way joins, heterogeneous nodes.
		{"parallel/3-way-time-join", parallel(nWayJoin(3, 800, timeSliding)), hetero, short},
		{"parallel/3-way-count-join", parallel(nWayJoin(3, 800, countSliding)), hetero, short},
		{"parallel/smart-grid-local", parallel(queryplan.NewPQP(queryplan.SmartGridLocal(3000))), hetero, short},
		{"parallel/smart-grid-global", parallel(queryplan.NewPQP(queryplan.SmartGridGlobal(3000))), two, short},
		{"parallel/spike-detection", parallel(queryplan.NewPQP(queryplan.SpikeDetection(4000))), hetero, short},
	}
	var out []desimCase
	run := func(name string, p *queryplan.PQP, c *cluster.Cluster, opts desim.Options) {
		m, err := desim.Run(p, c, opts)
		abort := errors.Is(err, desim.ErrEventBudget)
		if err != nil && !abort {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, desimCase{
			Name:           name,
			AvgLatencyBits: math.Float64bits(m.AvgLatencyMs),
			P95LatencyBits: math.Float64bits(m.P95LatencyMs),
			SinkDeliveries: m.SinkDeliveries,
			IngestedBits:   math.Float64bits(m.IngestedEPS),
			MaxQueueLen:    m.MaxQueueLen,
			Saturated:      m.Saturated,
			BudgetAbort:    abort,
		})
	}
	for i, cs := range cases {
		run(cs.name, cs.plan.Clone(), cs.c, cs.opts)
		run(cs.name+"/permuted", permutedPlan(cs.plan, uint64(200+i)), cs.c, cs.opts)
	}
	return out
}

func goldenTuners(t *testing.T) []tunerCase {
	t.Helper()
	observe := func(p *queryplan.PQP, c *cluster.Cluster) (optimizer.Estimate, error) {
		res, err := simulator.Simulate(p, c, simulator.Options{DisableNoise: true})
		if err != nil {
			return optimizer.Estimate{}, err
		}
		return optimizer.Estimate{LatencyMs: res.LatencyMs, ThroughputEPS: res.ThroughputEPS}, nil
	}
	runtimeObserve := func(p *queryplan.PQP, c *cluster.Cluster) (optimizer.Estimate, map[int]optimizer.Diagnosis, error) {
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
	noChain := func(p *queryplan.PQP) []int {
		ids := []int{}
		for id, on := range p.NoChain {
			if on {
				ids = append(ids, id)
			}
		}
		sort.Ints(ids)
		return ids
	}

	gen := workload.NewSeenGenerator(5)
	gen.Ranges.EventRates = []float64{20_000, 50_000, 100_000, 250_000, 500_000, 1_000_000}
	gen.Ranges.Workers = []int{4, 6, 8}
	structures := append(append([]string{}, workload.SeenRanges().Structures...), workload.BenchmarkStructures()...)
	structures = append(structures, "4-chained-filters", "4-way-join")
	// Pinned rates far above one thread's capacity, so that Greedy has
	// chains worth splitting.
	hot := workload.NewSeenGenerator(6)
	hot.Ranges.EventRates = []float64{600_000}
	hot.Ranges.Workers = []int{4}
	var out []tunerCase
	for i, s := range structures {
		for seq := uint64(0); seq < 3; seq++ {
			g := gen
			if seq == 2 {
				g = hot
			}
			q, c, err := g.SampleQuery(s, seq)
			if err != nil {
				t.Fatal(err)
			}
			pq, _ := permuted(q, uint64(300+i)+seq)
			for _, v := range []struct {
				tag string
				q   *queryplan.Query
			}{{"", q}, {"/permuted", pq}} {
				name := fmt.Sprintf("%s/%d%s", s, seq, v.tag)
				g, err := optimizer.Greedy(v.q, c, observe, 20, 0.5)
				if err != nil {
					t.Fatalf("%s greedy: %v", name, err)
				}
				pd := newDigest()
				digestPlan(pd, g.Plan)
				out = append(out, tunerCase{Name: name, Tuner: "greedy", Degrees: g.Plan.DegreesVector(),
					NoChain: noChain(g.Plan), Steps: g.Observations,
					LatBits: math.Float64bits(g.Estimate.LatencyMs), TptBits: math.Float64bits(g.Estimate.ThroughputEPS),
					Plan: pd.sum()})

				dh, err := optimizer.Dhalion(v.q, c, runtimeObserve, optimizer.DefaultDhalionOptions())
				if err != nil {
					t.Fatalf("%s dhalion: %v", name, err)
				}
				pd, td := newDigest(), newDigest()
				digestPlan(pd, dh.Plan)
				for _, e := range dh.Trajectory {
					td.f64(e.LatencyMs)
					td.f64(e.ThroughputEPS)
				}
				out = append(out, tunerCase{Name: name, Tuner: "dhalion", Degrees: dh.Plan.DegreesVector(),
					NoChain: noChain(dh.Plan), Steps: dh.Rounds,
					LatBits: math.Float64bits(dh.Estimate.LatencyMs), TptBits: math.Float64bits(dh.Estimate.ThroughputEPS),
					Plan: pd.sum(), Trajectory: td.sum()})
			}
		}
	}
	return out
}

func TestGroundTruthGolden(t *testing.T) {
	got := groundTruthGolden{
		Corpus:   goldenCorpus(t),
		Simulate: goldenSimulate(t),
		Desim:    goldenDesim(t),
		Tuners:   goldenTuners(t),
	}
	path := filepath.Join("testdata", "ground_truth_golden.json")
	data, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if *updateGroundTruth {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(data, want) {
		return
	}
	// Name the first entries that moved rather than dumping two files.
	var ref groundTruthGolden
	if err := json.Unmarshal(want, &ref); err != nil {
		t.Fatal(err)
	}
	report := func(section string, n int, same func(i int) bool, name func(i int) string) {
		shown := 0
		for i := 0; i < n && shown < 5; i++ {
			if !same(i) {
				t.Errorf("%s: %s differs from the recorded answer", section, name(i))
				shown++
			}
		}
	}
	if len(got.Corpus) != len(ref.Corpus) || len(got.Simulate) != len(ref.Simulate) ||
		len(got.Desim) != len(ref.Desim) || len(got.Tuners) != len(ref.Tuners) {
		t.Fatal("golden sections changed length; the cases themselves moved")
	}
	report("corpus", len(got.Corpus),
		func(i int) bool { return fmt.Sprint(got.Corpus[i]) == fmt.Sprint(ref.Corpus[i]) },
		func(i int) string { return fmt.Sprintf("%s seed %d", got.Corpus[i].Set, got.Corpus[i].Seed) })
	report("simulate", len(got.Simulate),
		func(i int) bool { return got.Simulate[i] == ref.Simulate[i] },
		func(i int) string { return got.Simulate[i].Name + " " + got.Simulate[i].Variant })
	report("desim", len(got.Desim),
		func(i int) bool { return got.Desim[i] == ref.Desim[i] },
		func(i int) string { return got.Desim[i].Name })
	report("tuners", len(got.Tuners),
		func(i int) bool { return fmt.Sprint(got.Tuners[i]) == fmt.Sprint(ref.Tuners[i]) },
		func(i int) string { return got.Tuners[i].Tuner + " " + got.Tuners[i].Name })
	t.Fatalf("%s does not reproduce", path)
}
