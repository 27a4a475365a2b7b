package features

import (
	"math"
	"reflect"
	"testing"

	"zerotune/internal/cluster"
	"zerotune/internal/queryplan"
)

func encoded(t *testing.T, degrees map[int]int) (*Graph, *queryplan.PQP) {
	t.Helper()
	q := queryplan.Linear(
		queryplan.SourceSpec{EventRate: 10_000, TupleWidth: 3, DataType: queryplan.TypeDouble},
		queryplan.FilterSpec{Func: queryplan.CmpLE, LiteralClass: queryplan.TypeDouble, Selectivity: 0.5},
		queryplan.AggSpec{Func: queryplan.AggAvg, Class: queryplan.TypeDouble, KeyClass: queryplan.TypeInt,
			Selectivity: 0.2,
			Window:      queryplan.WindowSpec{Type: queryplan.WindowSliding, Policy: queryplan.PolicyTime, Length: 2000, Slide: 1000}},
	)
	p := queryplan.NewPQP(q)
	for id, d := range degrees {
		p.SetDegree(id, d)
	}
	c, err := cluster.New(3, cluster.SeenTypes(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Place(p, c); err != nil {
		t.Fatal(err)
	}
	g, err := Encode(p, c, MaskAll)
	if err != nil {
		t.Fatal(err)
	}
	return g, p
}

func TestEncodeShapes(t *testing.T) {
	g, _ := encoded(t, map[int]int{1: 4, 2: 2})
	if len(g.OpNodes) != 4 {
		t.Fatalf("%d op nodes", len(g.OpNodes))
	}
	if len(g.DataEdges) != 3 {
		t.Fatalf("%d data edges", len(g.DataEdges))
	}
	if len(g.ResNodes) == 0 || len(g.ResNodes) > 3 {
		t.Fatalf("%d resource nodes", len(g.ResNodes))
	}
	if len(g.Mapping) == 0 {
		t.Fatal("no mapping edges")
	}
	for _, n := range g.OpNodes {
		if len(n.Feat) != OpFeatDim {
			t.Fatalf("op feature width %d, want %d", len(n.Feat), OpFeatDim)
		}
		if n.Feat.HasNaN() {
			t.Fatalf("NaN in op features: %v", n.Feat)
		}
	}
	for _, n := range g.ResNodes {
		if len(n.Feat) != ResFeatDim {
			t.Fatalf("res feature width %d, want %d", len(n.Feat), ResFeatDim)
		}
	}
	if g.OpNodes[g.SinkIdx].Type != queryplan.OpSink {
		t.Fatal("SinkIdx does not point at the sink")
	}
}

func TestEncodeDegreesAndGrouping(t *testing.T) {
	g, p := encoded(t, map[int]int{1: 8})
	var filterNode *OpNode
	for i := range g.OpNodes {
		if g.OpNodes[i].Type == queryplan.OpFilter {
			filterNode = &g.OpNodes[i]
		}
	}
	if filterNode == nil {
		t.Fatal("no filter node")
	}
	if got := filterNode.Feat[FeatDegree]; math.Abs(got-3) > 1e-9 { // log2(8)
		t.Fatalf("degree feature %v, want 3", got)
	}
	_ = p
}

func TestEncodeOneHots(t *testing.T) {
	g, _ := encoded(t, nil)
	for _, n := range g.OpNodes {
		// Exactly one op-type flag set.
		sum := n.Feat[FeatOpTypeSource] + n.Feat[FeatOpTypeFilter] + n.Feat[FeatOpTypeAgg] +
			n.Feat[FeatOpTypeJoin] + n.Feat[FeatOpTypeSink]
		if sum != 1 {
			t.Fatalf("op-type one-hot sum %v for %v", sum, n.Type)
		}
		// Exactly one partitioning flag set.
		psum := n.Feat[FeatPartForward] + n.Feat[FeatPartRebalance] + n.Feat[FeatPartHash]
		if psum != 1 {
			t.Fatalf("partitioning one-hot sum %v", psum)
		}
	}
	// Aggregate node carries window features.
	for _, n := range g.OpNodes {
		if n.Type == queryplan.OpAggregate {
			if n.Feat[FeatWinSliding] != 1 || n.Feat[FeatPolicyTime] != 1 {
				t.Fatal("window one-hots wrong on aggregate")
			}
			if n.Feat[FeatWindowLength] == 0 || n.Feat[FeatSlidingLength] == 0 {
				t.Fatal("window lengths not encoded")
			}
			if n.Feat[FeatAggAvg] != 1 || n.Feat[FeatAggKeyInt] != 1 {
				t.Fatal("aggregation one-hots wrong")
			}
		}
		if n.Type == queryplan.OpFilter {
			if n.Feat[FeatCmpLE] != 1 || n.Feat[FeatLitDouble] != 1 {
				t.Fatal("filter one-hots wrong")
			}
		}
		if n.Type == queryplan.OpSource {
			if n.Feat[FeatEventRate] == 0 {
				t.Fatal("source event rate not encoded")
			}
		}
	}
}

func TestEncodeInputRateEstimation(t *testing.T) {
	g, _ := encoded(t, nil)
	// Filter input rate should be the source rate (10k → log10(10001)≈4).
	for _, n := range g.OpNodes {
		if n.Type == queryplan.OpFilter {
			if math.Abs(n.Feat[FeatInputRate]-4) > 0.01 {
				t.Fatalf("filter input-rate feature %v, want ≈4", n.Feat[FeatInputRate])
			}
		}
		// Aggregate gets the filtered rate: 5000 → ≈3.7.
		if n.Type == queryplan.OpAggregate {
			if math.Abs(n.Feat[FeatInputRate]-math.Log10(5001)) > 0.01 {
				t.Fatalf("agg input-rate feature %v", n.Feat[FeatInputRate])
			}
		}
	}
}

// TestEncodePlacesAsPlaceWith: a plan without a complete placement — none,
// none and a nil map as a decoded plan has, a partial one naming a node the
// cluster lacks, NoChain entries — encodes to the graph of the plan
// cluster.Place places, and is left as it was. On an empty cluster it is
// refused.
func TestEncodePlacesAsPlaceWith(t *testing.T) {
	q := queryplan.SmartGridLocal(20_000)
	c, err := cluster.New(3, cluster.SeenTypes(), 10)
	if err != nil {
		t.Fatal(err)
	}
	unplaced := queryplan.NewPQP(q)
	for _, op := range q.Ops {
		unplaced.SetDegree(op.ID, 3)
	}
	decoded := unplaced.Clone()
	decoded.Placement = nil
	partly := unplaced.Clone()
	partly.Placement[q.Ops[0].ID] = []string{"no-such-node", "no-such-node", "no-such-node"}
	noChain := unplaced.Clone()
	noChain.SetNoChain(q.Sink().ID, true)
	plans := map[string]*queryplan.PQP{"unplaced": unplaced, "decoded": decoded, "partly placed": partly, "no_chain": noChain}
	graphs := map[string]*Graph{}
	for name, p := range plans {
		before := p.Clone()
		if p.Placement == nil {
			before.Placement = nil
		}
		placed := p.Clone()
		if err := cluster.Place(placed, c); err != nil {
			t.Fatal(err)
		}
		want, err := Encode(placed, c, MaskAll)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Encode(p, c, MaskAll)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: encoded\n %+v\nwant the placed plan's\n %+v", name, got, want)
		}
		if !reflect.DeepEqual(p, before) {
			t.Fatalf("%s: Encode wrote the plan: placement %v, was %v", name, p.Placement, before.Placement)
		}
		graphs[name] = got
	}
	if reflect.DeepEqual(graphs["no_chain"], graphs["unplaced"]) {
		t.Fatal("the NoChain entry changed nothing: the check above proves nothing for it")
	}
	if _, err := Encode(unplaced, &cluster.Cluster{LinkGbps: 10}, MaskAll); err == nil {
		t.Fatal("placed a plan on an empty cluster")
	}
}

func TestEncodeRejectsUnknownNode(t *testing.T) {
	q := queryplan.SpikeDetection(1000)
	p := queryplan.NewPQP(q)
	c, _ := cluster.New(2, cluster.SeenTypes(), 10)
	if err := cluster.Place(p, c); err != nil {
		t.Fatal(err)
	}
	p.Placement[0][0] = "ghost-node"
	if _, err := Encode(p, c, MaskAll); err == nil {
		t.Fatal("accepted placement on unknown node")
	}
}

func TestMaskOperatorOnlyBlanksParallelism(t *testing.T) {
	q := queryplan.SpikeDetection(1000)
	p := queryplan.NewPQP(q)
	p.SetDegree(1, 8)
	c, _ := cluster.New(2, cluster.SeenTypes(), 10)
	if err := cluster.Place(p, c); err != nil {
		t.Fatal(err)
	}
	g, err := Encode(p, c, MaskOperatorOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g.OpNodes {
		for _, i := range parallelismFeatures {
			if n.Feat[i] != 0 {
				t.Fatalf("parallelism feature %d not blanked: %v", i, n.Feat[i])
			}
		}
	}
	for _, n := range g.ResNodes {
		if n.Feat.Sum() != 0 {
			t.Fatal("resource features not blanked under operator-only mask")
		}
	}
}

func TestMaskParallelismResourceBlanksOperator(t *testing.T) {
	g, _ := func() (*Graph, error) {
		q := queryplan.SpikeDetection(1000)
		p := queryplan.NewPQP(q)
		c, _ := cluster.New(2, cluster.SeenTypes(), 10)
		if err := cluster.Place(p, c); err != nil {
			return nil, err
		}
		return Encode(p, c, MaskParallelismResource)
	}()
	for _, n := range g.OpNodes {
		if n.Feat[FeatSelectivity] != 0 || n.Feat[FeatEventRate] != 0 || n.Feat[FeatWindowLength] != 0 {
			t.Fatal("operator/data features not blanked")
		}
		// Parallelism block must survive.
		psum := n.Feat[FeatPartForward] + n.Feat[FeatPartRebalance] + n.Feat[FeatPartHash]
		if psum != 1 {
			t.Fatal("parallelism features blanked by mistake")
		}
	}
}

func TestMaskStringer(t *testing.T) {
	if MaskAll.String() != "all" || MaskOperatorOnly.String() != "operator-only" ||
		MaskParallelismResource.String() != "parallelism+resource" {
		t.Fatal("mask stringer")
	}
	_ = Mask(9).String()
}

func TestEncodeDeterministic(t *testing.T) {
	a, _ := encoded(t, map[int]int{1: 4})
	b, _ := encoded(t, map[int]int{1: 4})
	if len(a.Mapping) != len(b.Mapping) {
		t.Fatal("mapping edge count differs")
	}
	for i := range a.Mapping {
		if a.Mapping[i] != b.Mapping[i] {
			t.Fatal("mapping edges not deterministic")
		}
	}
	for i := range a.OpNodes {
		for j := range a.OpNodes[i].Feat {
			if a.OpNodes[i].Feat[j] != b.OpNodes[i].Feat[j] {
				t.Fatal("features not deterministic")
			}
		}
	}
}

func TestMappingEdgesCoverAllInstances(t *testing.T) {
	g, p := encoded(t, map[int]int{1: 5, 2: 3})
	instances := make(map[int]int)
	for _, m := range g.Mapping {
		instances[g.OpNodes[m.OpIdx].OpID] += m.Instances
	}
	for _, o := range p.Query.Ops {
		if instances[o.ID] != p.Degree(o.ID) {
			t.Fatalf("op %d mapping covers %d instances, degree %d", o.ID, instances[o.ID], p.Degree(o.ID))
		}
	}
}

// TestEncoderReuse: one Encoder serving many plans of its query must produce
// exactly the graphs fresh one-shot Encode calls do, under every mask — also
// after a bad plan made it return an error, and for a hand-written placement
// that scatters one operator's instances unevenly. The same holds when the
// graphs come out of an Arena: equal to Encode's across a whole sweep, still
// equal on a second sweep after Reset, and never sharing storage with a graph
// of another arena that is still held.
func TestEncoderReuse(t *testing.T) {
	q := queryplan.SmartGridLocal(20_000)
	c, err := cluster.New(5, cluster.SeenTypes(), 10)
	if err != nil {
		t.Fatal(err)
	}
	plan := func(seed int) *queryplan.PQP {
		p := queryplan.NewPQP(q)
		for _, op := range q.Ops {
			p.SetDegree(op.ID, 1+(seed*(op.ID+2)+op.ID)%9)
		}
		if err := cluster.Place(p, c); err != nil {
			t.Fatal(err)
		}
		return p
	}
	var plans []*queryplan.PQP
	for seed := 0; seed < 12; seed++ {
		plans = append(plans, plan(seed))
	}
	scattered := plan(3)
	first := q.Ops[0].ID
	scattered.SetDegree(first, 4)
	scattered.Placement[first] = []string{c.Nodes[4].Name, c.Nodes[1].Name, c.Nodes[4].Name, c.Nodes[4].Name}
	plans = append(plans, scattered)

	// Placed as cluster.Place would place them: none of it, or the first
	// operator alone.
	plans = append(plans, queryplan.NewPQP(q))
	partly := plan(5)
	partly.Placement = map[int][]string{first: partly.Placement[first]}
	plans = append(plans, partly)

	badDegree := plan(1)
	badDegree.Parallelism[first] = 0
	strayNode := plan(2)
	strayNode.Placement[first][0] = "no-such-node"
	other := queryplan.NewPQP(queryplan.SmartGridLocal(20_000))
	if err := cluster.Place(other, c); err != nil {
		t.Fatal(err)
	}
	bad := map[string]*queryplan.PQP{
		"degree 0": badDegree, "unknown node": strayNode, "another query": other,
	}

	for _, mask := range []Mask{MaskAll, MaskOperatorOnly, MaskParallelismResource} {
		topo, err := q.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		enc := NewEncoder(topo, c, mask)
		want := make([]*Graph, len(plans))
		for i, p := range plans {
			if want[i], err = Encode(p, c, mask); err != nil {
				t.Fatal(err)
			}
		}
		// sweep encodes every plan into a (nil: graphs of their own, from
		// Encode), bad plans in between, and returns the graphs.
		sweep := func(a *Arena) []*Graph {
			encode := func(p *queryplan.PQP) (*Graph, error) {
				if a == nil {
					return enc.Encode(p)
				}
				return enc.EncodeIn(a, p, nil)
			}
			got := make([]*Graph, len(plans))
			for i, p := range plans {
				for name, b := range bad {
					if _, err := encode(b); err == nil {
						t.Fatalf("mask %v: encoder accepted the %s plan", mask, name)
					}
				}
				var err error
				if got[i], err = encode(p); err != nil {
					t.Fatal(err)
				}
			}
			return got
		}
		check := func(what string, got []*Graph) {
			t.Helper()
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("mask %v, plan %d: %s\n got %+v\nwant %+v", mask, i, what, got[i], want[i])
				}
			}
		}
		check("reused encoder", sweep(nil))

		var held, recycled Arena
		heldGraphs := sweep(&held)
		check("arena, first sweep", heldGraphs)
		for round := 0; round < 3; round++ {
			// Later rounds reuse slabs the earlier ones grew and, below,
			// dirtied: what EncodeIn leaves unwritten (every resource feature
			// under MaskOperatorOnly) must read zero again after Reset.
			got := sweep(&recycled)
			check("arena, sweep after reset", got)
			for _, g := range got {
				for i := range g.OpNodes {
					for j := range g.OpNodes[i].Feat {
						g.OpNodes[i].Feat[j] = -1
					}
				}
				for i := range g.ResNodes {
					for j := range g.ResNodes[i].Feat {
						g.ResNodes[i].Feat[j] = -1
					}
					g.ResNodes[i].Name = "scribble"
				}
				for i := range g.Mapping {
					g.Mapping[i] = MapEdge{-1, -1, -1}
				}
				*g = Graph{Template: "scribble"}
			}
			recycled.Reset()
		}
		check("graphs of an arena another one was recycled beside", heldGraphs)
	}
}

// TestEncodeDegrees: a degree vector encodes to the graph of the plan it
// stands for — NewPlan, placed by PlaceWith — also when both share one arena
// with plans encoded by name in between, and a vector no plan could stand
// for is refused.
func TestEncodeDegrees(t *testing.T) {
	q := queryplan.SmartGridLocal(20_000)
	c, err := cluster.New(5, cluster.SeenTypes(), 10)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := q.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	n := len(topo.Ops)
	for _, mask := range []Mask{MaskAll, MaskOperatorOnly, MaskParallelismResource} {
		enc := NewEncoder(topo, c, mask)
		var a Arena
		for seed := 0; seed < 12; seed++ {
			deg := make([]int, n)
			for i := range deg {
				deg[i] = 1 + (seed*(i+2)+i)%9
			}
			p := topo.NewPlan(deg)
			if err := cluster.PlaceWith(topo, p, c); err != nil {
				t.Fatal(err)
			}
			want, err := enc.EncodeIn(&a, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := enc.EncodeDegrees(&a, deg)
			if err != nil {
				t.Fatal(err)
			}
			// The unplaced plan itself, its degree vector already checked.
			unplaced, err := enc.EncodeIn(&a, topo.NewPlan(deg), deg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(unplaced, want) {
				t.Fatalf("mask %v, degrees %v:\n got %+v\n and %+v\nwant %+v", mask, deg, got, unplaced, want)
			}
		}
	}

	enc := NewEncoder(topo, c, MaskAll)
	ones := make([]int, n)
	for i := range ones {
		ones[i] = 1
	}
	zero := append([]int(nil), ones...)
	zero[n-1] = 0
	empty := NewEncoder(topo, &cluster.Cluster{LinkGbps: 10}, MaskAll)
	for name, encode := range map[string]func() (*Graph, error){
		"short vector":  func() (*Graph, error) { return enc.EncodeDegrees(&Arena{}, ones[:n-1]) },
		"degree 0":      func() (*Graph, error) { return enc.EncodeDegrees(&Arena{}, zero) },
		"empty cluster": func() (*Graph, error) { return empty.EncodeDegrees(&Arena{}, ones) },
	} {
		if _, err := encode(); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
}

// TestEncoderReset: one encoder reset over queries, clusters larger and
// smaller in turn and masks encodes, by name and from degrees, what a new
// encoder encodes; where two nodes share a name, both ways resolve it to the
// first of them, as Cluster.Node does.
func TestEncoderReset(t *testing.T) {
	dup, err := cluster.New(5, cluster.SeenTypes(), 10)
	if err != nil {
		t.Fatal(err)
	}
	dup.Nodes[4].Name = dup.Nodes[1].Name // an m510 answering to rs620-1's name
	big, err := cluster.New(9, cluster.Catalog(), 1)
	if err != nil {
		t.Fatal(err)
	}
	small, err := cluster.New(2, cluster.UnseenTypes(), 10)
	if err != nil {
		t.Fatal(err)
	}
	queries := []*queryplan.Query{
		queryplan.SmartGridGlobal(30_000), queryplan.SpikeDetection(5_000), queryplan.SmartGridLocal(20_000),
	}
	var reused Encoder
	var a Arena
	round, shared := 0, 0
	for _, q := range queries {
		topo, err := q.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []*cluster.Cluster{big, dup, small} {
			for _, mask := range []Mask{MaskAll, MaskOperatorOnly, MaskParallelismResource} {
				round++
				deg := make([]int, len(topo.Ops))
				for i := range deg {
					deg[i] = 1 + (round+i)%4
				}
				p := topo.NewPlan(deg)
				if err := cluster.PlaceWith(topo, p, c); err != nil {
					t.Fatal(err)
				}
				want, err := NewEncoder(topo, c, mask).Encode(p)
				if err != nil {
					t.Fatal(err)
				}
				reused.Reset(topo, c, mask)
				a.Reset()
				byName, err := reused.EncodeIn(&a, p, nil)
				if err != nil {
					t.Fatal(err)
				}
				byDegrees, err := reused.EncodeDegrees(&a, deg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(byName, want) || !reflect.DeepEqual(byDegrees, want) {
					t.Fatalf("%s, %d nodes, mask %v: reset encoder\n got %+v\n and %+v\nwant %+v",
						q.Name, len(c.Nodes), mask, byName, byDegrees, want)
				}
				if c != dup || mask == MaskOperatorOnly {
					continue
				}
				for _, r := range want.ResNodes {
					if r.Name != dup.Nodes[1].Name {
						continue
					}
					shared++
					if r.Feat[ResFeatCores] != log2p(float64(dup.Nodes[1].Type.Cores)) {
						t.Fatalf("%s: the shared name resolved to a node other than the first", q.Name)
					}
				}
			}
		}
	}
	if shared == 0 {
		t.Fatal("no plan ran on the node whose name is shared")
	}
}
