package queryplan

import (
	"encoding/json"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewPQPDefaults(t *testing.T) {
	p := NewPQP(testLinear())
	for _, o := range p.Query.Ops {
		if p.Degree(o.ID) != 1 {
			t.Fatalf("default degree for %d is %d", o.ID, p.Degree(o.ID))
		}
	}
	if p.TotalInstances() != 4 {
		t.Fatalf("TotalInstances %d", p.TotalInstances())
	}
	if p.AvgDegree() != 1 {
		t.Fatalf("AvgDegree %v", p.AvgDegree())
	}
}

func TestSetDegreeClampsAndInvalidatesPlacement(t *testing.T) {
	p := NewPQP(testLinear())
	p.Placement[1] = []string{"n1"}
	p.SetDegree(1, -3)
	if p.Degree(1) != 1 {
		t.Fatalf("degree not clamped: %d", p.Degree(1))
	}
	if _, ok := p.Placement[1]; ok {
		t.Fatal("placement not invalidated")
	}
	p.SetDegree(1, 8)
	if p.Degree(1) != 8 {
		t.Fatalf("degree = %d", p.Degree(1))
	}
}

func TestPQPCloneIndependence(t *testing.T) {
	p := NewPQP(testLinear())
	p.SetDegree(1, 4)
	p.Placement[2] = []string{"n1"}
	c := p.Clone()
	c.SetDegree(1, 9)
	c.Placement[2][0] = "n2"
	if p.Degree(1) != 4 || p.Placement[2][0] != "n1" {
		t.Fatal("Clone shares state")
	}
}

func TestPQPValidate(t *testing.T) {
	p := NewPQP(testLinear())
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.Parallelism[99] = 2
	if err := p.Validate(); err == nil {
		t.Fatal("accepted parallelism for unknown op")
	}
	delete(p.Parallelism, 99)
	p.Placement[1] = []string{"a", "b"} // degree 1, two nodes
	if err := p.Validate(); err == nil {
		t.Fatal("accepted placement size mismatch")
	}
	p.Placement[1] = []string{""}
	if err := p.Validate(); err == nil {
		t.Fatal("accepted empty node name")
	}
}

// chainGroups analyses p and returns Topology.ChainGroups keyed by operator
// ID, which is how these tests name operators.
func chainGroups(t *testing.T, p *PQP) map[int]int {
	t.Helper()
	topo, err := p.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[int]int, len(topo.Ops))
	for pos, g := range topo.ChainGroups(p, topo.Degrees(p, nil), nil) {
		byID[topo.Ops[pos].ID] = g
	}
	return byID
}

func TestChainGroupsLinear(t *testing.T) {
	// linear: source -(rebalance)-> filter -(hash)-> agg -(forward)-> sink
	p := NewPQP(testLinear())
	g := chainGroups(t, p)
	// With all degrees 1: filter not chained to source (rebalance); agg not
	// chained to filter (hash); sink chained to agg (forward, equal degree).
	if g[2] != g[3] {
		t.Fatalf("sink not chained to agg: %v", g)
	}
	if g[0] == g[1] || g[1] == g[2] {
		t.Fatalf("unexpected chaining: %v", g)
	}
}

func TestChainGroupsDegreeBreaksChain(t *testing.T) {
	p := NewPQP(testLinear())
	p.SetDegree(3, 2) // sink degree ≠ agg degree → chain broken
	g := chainGroups(t, p)
	if g[2] == g[3] {
		t.Fatalf("chain should break on degree mismatch: %v", g)
	}
}

func TestChainGroupsChainedFilters(t *testing.T) {
	fs := []FilterSpec{
		{Func: CmpLT, LiteralClass: TypeInt, Selectivity: 0.9},
		{Func: CmpGT, LiteralClass: TypeInt, Selectivity: 0.9},
		{Func: CmpEQ, LiteralClass: TypeInt, Selectivity: 0.9},
	}
	q := ChainedFilters(3, SourceSpec{EventRate: 100, TupleWidth: 2, DataType: TypeInt}, fs)
	p := NewPQP(q)
	for _, o := range q.Ops {
		p.SetDegree(o.ID, 4)
	}
	g := chainGroups(t, p)
	// All three filters + sink share forward edges and equal degree → one chain.
	if g[1] != g[2] || g[2] != g[3] || g[3] != g[4] {
		t.Fatalf("filters+sink should chain: %v", g)
	}
	// The grouping number of Table I is the size of an operator's chain
	// group: filter1's holds filter1..3 + sink.
	size := 0
	for _, group := range g {
		if group == g[1] {
			size++
		}
	}
	if size != 4 {
		t.Fatalf("grouping number %d, groups %v", size, g)
	}
}

func TestChainGroupsJoinStartsNewChain(t *testing.T) {
	p := NewPQP(test3Way())
	topo, err := p.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	g := topo.ChainGroups(p, topo.Degrees(p, nil), nil)
	joins := 0
	for pos, o := range topo.Ops {
		if o.Type != OpJoin {
			continue
		}
		joins++
		for _, in := range topo.In[pos] {
			if g[pos] == g[in.From] {
				t.Fatalf("join %d chained to upstream %d", o.ID, topo.Ops[in.From].ID)
			}
		}
	}
	if joins != 2 {
		t.Fatalf("3-way join has %d joins", joins)
	}
}

func TestDegreesVectorOrder(t *testing.T) {
	p := NewPQP(testLinear())
	p.SetDegree(0, 1)
	p.SetDegree(1, 2)
	p.SetDegree(2, 3)
	p.SetDegree(3, 4)
	v := p.DegreesVector()
	for i, want := range []int{1, 2, 3, 4} {
		if v[i] != want {
			t.Fatalf("DegreesVector %v", v)
		}
	}
}

// Property: for any degree assignment, every chain group's members share a
// single parallelism degree.
func TestChainGroupsUniformDegree(t *testing.T) {
	q := test3Way()
	f := func(seed uint64) bool {
		rngDegrees := seed
		p := NewPQP(q)
		for _, o := range q.Ops {
			rngDegrees = rngDegrees*6364136223846793005 + 1442695040888963407
			p.SetDegree(o.ID, 1+int(rngDegrees%16))
		}
		groups := chainGroups(t, p)
		degreeOf := map[int]int{}
		for id, g := range groups {
			d := p.Degree(id)
			if prev, ok := degreeOf[g]; ok && prev != d {
				return false
			}
			degreeOf[g] = d
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCloneIsDeepEqual: a clone of a decoded plan is reflect.DeepEqual to it,
// whichever of placement, parallelism and no_chain the body named.
func TestCloneIsDeepEqual(t *testing.T) {
	q, err := json.Marshal(testLinear())
	if err != nil {
		t.Fatal(err)
	}
	fields := []string{`"parallelism":{"1":2,"2":3}`, `"placement":{"0":["n0"],"1":["n0","n1"]}`, `"no_chain":[2]`}
	for mask := 0; mask < 1<<len(fields); mask++ {
		body := `{"query":` + string(q)
		for i, f := range fields {
			if mask&(1<<i) != 0 {
				body += "," + f
			}
		}
		body += "}"
		var p PQP
		if err := p.UnmarshalJSON([]byte(body)); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if c := p.Clone(); !reflect.DeepEqual(c, &p) {
			t.Errorf("%s: clone %+v differs from %+v", body, c, &p)
		}
	}
}
