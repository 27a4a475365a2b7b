package queryplan

import (
	"strings"
	"testing"
)

func testLinear() *Query {
	return Linear(
		SourceSpec{EventRate: 1000, TupleWidth: 3, DataType: TypeDouble},
		FilterSpec{Func: CmpLE, LiteralClass: TypeDouble, Selectivity: 0.5},
		AggSpec{Func: AggAvg, Class: TypeDouble, KeyClass: TypeInt, Selectivity: 0.2,
			Window: WindowSpec{Type: WindowTumbling, Policy: PolicyCount, Length: 50}},
	)
}

func test3Way() *Query {
	srcs := make([]SourceSpec, 3)
	filts := make([]FilterSpec, 3)
	for i := range srcs {
		srcs[i] = SourceSpec{EventRate: 500, TupleWidth: 4, DataType: TypeInt}
		filts[i] = FilterSpec{Func: CmpGT, LiteralClass: TypeInt, Selectivity: 0.7}
	}
	joins := []JoinSpec{
		{KeyClass: TypeInt, Selectivity: 0.05, Window: WindowSpec{Type: WindowTumbling, Policy: PolicyTime, Length: 1000}},
		{KeyClass: TypeInt, Selectivity: 0.05, Window: WindowSpec{Type: WindowTumbling, Policy: PolicyTime, Length: 1000}},
	}
	agg := AggSpec{Func: AggSum, Class: TypeInt, KeyClass: TypeInt, Selectivity: 0.3,
		Window: WindowSpec{Type: WindowTumbling, Policy: PolicyCount, Length: 25}}
	return NWayJoin(3, srcs, filts, joins, agg)
}

func TestLinearQueryValid(t *testing.T) {
	q := testLinear()
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(q.Ops) != 4 {
		t.Fatalf("linear query has %d ops", len(q.Ops))
	}
	if q.Sink() == nil || len(q.Sources()) != 1 {
		t.Fatal("bad sources/sink")
	}
}

func TestChainedFiltersValid(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4} {
		fs := make([]FilterSpec, n)
		for i := range fs {
			fs[i] = FilterSpec{Func: CmpLT, LiteralClass: TypeInt, Selectivity: 0.8}
		}
		q := ChainedFilters(n, SourceSpec{EventRate: 100, TupleWidth: 2, DataType: TypeInt}, fs)
		if err := q.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got := len(q.Ops); got != n+2 {
			t.Fatalf("n=%d: %d ops", n, got)
		}
	}
}

func TestChainedFiltersPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	ChainedFilters(2, SourceSpec{EventRate: 1, TupleWidth: 1, DataType: TypeInt}, []FilterSpec{})
}

func TestNWayJoinStructure(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 6} {
		srcs := make([]SourceSpec, n)
		filts := make([]FilterSpec, n)
		for i := range srcs {
			srcs[i] = SourceSpec{EventRate: 200, TupleWidth: 3, DataType: TypeDouble}
			filts[i] = FilterSpec{Func: CmpGE, LiteralClass: TypeDouble, Selectivity: 0.6}
		}
		joins := make([]JoinSpec, n-1)
		for i := range joins {
			joins[i] = JoinSpec{KeyClass: TypeInt, Selectivity: 0.1,
				Window: WindowSpec{Type: WindowSliding, Policy: PolicyTime, Length: 2000, Slide: 1000}}
		}
		agg := AggSpec{Func: AggMax, Class: TypeDouble, KeyClass: TypeInt, Selectivity: 0.4,
			Window: WindowSpec{Type: WindowTumbling, Policy: PolicyCount, Length: 10}}
		q := NWayJoin(n, srcs, filts, joins, agg)
		if err := q.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// n sources + n filters + (n−1) joins + agg + sink
		want := n + n + (n - 1) + 2
		if len(q.Ops) != want {
			t.Fatalf("n=%d: %d ops, want %d", n, len(q.Ops), want)
		}
		joinCount := 0
		for _, o := range q.Ops {
			if o.Type == OpJoin {
				joinCount++
			}
		}
		if joinCount != n-1 {
			t.Fatalf("n=%d: %d joins", n, joinCount)
		}
	}
}

func TestBenchmarkQueriesValid(t *testing.T) {
	for _, q := range []*Query{SpikeDetection(1000), SmartGridLocal(2000), SmartGridGlobal(2000)} {
		if err := q.Validate(); err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
	}
}

func TestTopoOrderLinear(t *testing.T) {
	q := testLinear()
	topo, err := q.Topology()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[int]int)
	for i, o := range topo.Ops {
		pos[o.ID] = i
	}
	for k, e := range q.Edges {
		if pos[e.From] >= pos[e.To] {
			t.Fatalf("edge %d→%d violates the topological order", e.From, e.To)
		}
		if topo.Edges[k] != [2]int{pos[e.From], pos[e.To]} {
			t.Fatalf("edge %d→%d analysed as %v", e.From, e.To, topo.Edges[k])
		}
	}
}

func TestTopoOrderDeterministic(t *testing.T) {
	q := test3Way()
	a, err := q.Topology()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := q.Topology()
	for i := range a.Ops {
		if a.Ops[i] != b.Ops[i] {
			t.Fatal("topo order not deterministic")
		}
	}
}

func TestTopoOrderDetectsCycle(t *testing.T) {
	q := testLinear()
	q.Edges = append(q.Edges, Edge{From: 2, To: 1})
	if _, err := q.Topology(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestValidateRejectsBadQueries(t *testing.T) {
	// No sink.
	q := testLinear()
	q.Ops = q.Ops[:3]
	q.Edges = q.Edges[:2]
	if err := q.Validate(); err == nil {
		t.Fatal("accepted query without sink")
	}
	// Duplicate ID.
	q = testLinear()
	q.Ops[1].ID = 0
	if err := q.Validate(); err == nil {
		t.Fatal("accepted duplicate ID")
	}
	// Join with one input.
	q = testLinear()
	q.Ops[1].Type = OpJoin
	q.Ops[1].WindowType = WindowTumbling
	q.Ops[1].WindowPolicy = PolicyTime
	q.Ops[1].WindowLength = 100
	q.Ops[1].JoinKeyClass = TypeInt
	if err := q.Validate(); err == nil {
		t.Fatal("accepted join with one input")
	}
	// Empty query.
	if err := (&Query{Name: "empty"}).Validate(); err == nil {
		t.Fatal("accepted empty query")
	}
}

func TestOperatorValidate(t *testing.T) {
	bad := []*Operator{
		{ID: 0, Type: OpSource, EventRate: 0, TupleWidthOut: 3},       // no rate
		{ID: 0, Type: OpSource, EventRate: 10, TupleWidthOut: 0},      // no width
		{ID: 1, Type: OpFilter, Selectivity: 0.5},                     // no func
		{ID: 1, Type: OpFilter, FilterFunc: CmpLT, Selectivity: 1.5},  // sel > 1
		{ID: 2, Type: OpAggregate, AggFunc: AggAvg},                   // no window
		{ID: 3, Type: OpJoin, WindowType: WindowTumbling},             // incomplete window
		{ID: 4, Type: OpFilter, FilterFunc: CmpLT, Selectivity: -0.1}, // negative sel
		{ID: 5, Type: OpType(99)},                                     // unknown type
		{ID: 6, Type: OpAggregate, WindowType: WindowSliding, // slide > window
			WindowPolicy: PolicyCount, WindowLength: 10, SlidingLength: 20, AggFunc: AggAvg},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: invalid operator accepted: %+v", i, o)
		}
	}
	good := &Operator{ID: 0, Type: OpSource, EventRate: 100, TupleWidthOut: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("valid source rejected: %v", err)
	}
}

func TestUpstreamDownstream(t *testing.T) {
	q := test3Way()
	topo, err := q.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	for pos, o := range topo.Ops {
		if o.Type == OpJoin {
			if got := len(topo.In[pos]); got != 2 {
				t.Fatalf("join upstream count %d", got)
			}
			break
		}
	}
	if topo.Ops[topo.Sink] != q.Sink() {
		t.Fatalf("sink analysed at position %d", topo.Sink)
	}
	for _, e := range topo.Edges {
		if e[0] == topo.Sink {
			t.Fatalf("sink has a downstream: %v", e)
		}
	}
}

func TestDOTOutput(t *testing.T) {
	dot := testLinear().DOT()
	for _, want := range []string{"digraph", "source", "filter", "aggregate", "sink", "->"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestStringers(t *testing.T) {
	if OpFilter.String() != "filter" || CmpLE.String() != "<=" ||
		WindowSliding.String() != "sliding" || PolicyTime.String() != "time" ||
		AggAvg.String() != "avg" || PartHash.String() != "hash" ||
		TypeDouble.String() != "double" {
		t.Fatal("Stringer mismatch")
	}
	// Unknown values must not panic.
	_ = OpType(42).String()
	_ = DataType(42).String()
	_ = CmpFunc(42).String()
	_ = WindowType(42).String()
	_ = WindowPolicy(42).String()
	_ = AggFunc(42).String()
	_ = PartitionStrategy(42).String()
}
