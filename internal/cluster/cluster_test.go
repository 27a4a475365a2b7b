package cluster

import (
	"strings"
	"testing"

	"zerotune/internal/queryplan"
	"zerotune/internal/tensor"
)

func linearQuery() *queryplan.Query {
	return queryplan.Linear(
		queryplan.SourceSpec{EventRate: 1000, TupleWidth: 3, DataType: queryplan.TypeDouble},
		queryplan.FilterSpec{Func: queryplan.CmpLE, LiteralClass: queryplan.TypeDouble, Selectivity: 0.5},
		queryplan.AggSpec{Func: queryplan.AggAvg, Class: queryplan.TypeDouble, KeyClass: queryplan.TypeInt,
			Selectivity: 0.2,
			Window:      queryplan.WindowSpec{Type: queryplan.WindowTumbling, Policy: queryplan.PolicyCount, Length: 50}},
	)
}

func TestCatalogMatchesTable2(t *testing.T) {
	cat := Catalog()
	if len(cat) != 8 {
		t.Fatalf("catalog has %d types, want 8", len(cat))
	}
	want := map[string]struct {
		cores int
		ghz   float64
		seen  bool
	}{
		"m510":    {8, 2.0, true},
		"c6420":   {32, 2.6, false},
		"rs620":   {10, 2.2, true},
		"c8220x":  {20, 2.2, false},
		"c8220":   {20, 2.2, false},
		"dss7500": {12, 2.4, false},
		"c6320":   {28, 2.0, false},
		"rs6525":  {64, 2.8, false},
	}
	for _, nt := range cat {
		w, ok := want[nt.Name]
		if !ok {
			t.Fatalf("unexpected type %q", nt.Name)
		}
		if nt.Cores != w.cores || nt.FreqGHz != w.ghz || nt.Seen != w.seen {
			t.Fatalf("%s: got cores=%d ghz=%v seen=%v, want %+v", nt.Name, nt.Cores, nt.FreqGHz, nt.Seen, w)
		}
	}
}

func TestSeenUnseenSplit(t *testing.T) {
	if got := len(SeenTypes()); got != 2 {
		t.Fatalf("%d seen types, want 2 (m510, rs620)", got)
	}
	if got := len(UnseenTypes()); got != 6 {
		t.Fatalf("%d unseen types, want 6", got)
	}
}

// TestTypeListsAreFresh: callers may modify what Catalog, SeenTypes and
// UnseenTypes return (a wire cluster spec reuses the seen list for its own
// types), so each call must hand out a copy of the one table.
func TestTypeListsAreFresh(t *testing.T) {
	for name, list := range map[string]func() []NodeType{"Catalog": Catalog, "SeenTypes": SeenTypes, "UnseenTypes": UnseenTypes} {
		first := list()
		want := first[0].Name
		first[0].Name = "scribbled"
		_ = append(first[:0], NodeType{Name: "appended"})
		if got := list()[0].Name; got != want {
			t.Errorf("%s: a caller's write shows through: first entry %q, want %q", name, got, want)
		}
	}
	if nt, err := TypeByName("m510"); err != nil || nt.Name != "m510" {
		t.Errorf("TypeByName after the writes: %+v, %v", nt, err)
	}
}

// TestNodeNames: workers are named "<type>-<index>", the names placements
// and request bodies refer to.
func TestNodeNames(t *testing.T) {
	c, err := New(3, SeenTypes(), 10)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRandom(tensor.NewRNG(1), 12, []NodeType{{Name: "c6420", Cores: 32}}, 10)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, n := range append(c.Nodes, r.Nodes[10:]...) {
		got = append(got, n.Name)
	}
	if want := "m510-0 rs620-1 m510-2 c6420-10 c6420-11"; strings.Join(got, " ") != want {
		t.Errorf("node names %q, want %q", strings.Join(got, " "), want)
	}
}

func TestTypeByName(t *testing.T) {
	nt, err := TypeByName("rs6525")
	if err != nil || nt.Cores != 64 {
		t.Fatalf("TypeByName: %v %v", nt, err)
	}
	if _, err := TypeByName("nope"); err == nil {
		t.Fatal("unknown type accepted")
	}
}

func TestNewHomogeneous(t *testing.T) {
	c, err := New(4, []NodeType{{Name: "m510", Cores: 8, FreqGHz: 2.0}}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes) != 4 || c.IsHeterogeneous() {
		t.Fatalf("bad cluster: %+v", c)
	}
	if c.TotalCores() != 32 || c.MaxNodeCores() != 8 {
		t.Fatalf("core counts: total=%d max=%d", c.TotalCores(), c.MaxNodeCores())
	}
}

func TestNewHeterogeneousRoundRobin(t *testing.T) {
	types := []NodeType{{Name: "a", Cores: 4}, {Name: "b", Cores: 8}}
	c, err := New(5, types, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !c.IsHeterogeneous() {
		t.Fatal("expected heterogeneous")
	}
	// a,b,a,b,a → 3×4 + 2×8 = 28
	if c.TotalCores() != 28 {
		t.Fatalf("TotalCores %d", c.TotalCores())
	}
}

func TestNewRejectsBadArgs(t *testing.T) {
	if _, err := New(0, Catalog(), 1); err == nil {
		t.Fatal("accepted 0 workers")
	}
	if _, err := New(2, nil, 1); err == nil {
		t.Fatal("accepted empty types")
	}
	if _, err := New(2, Catalog(), 0); err == nil {
		t.Fatal("accepted zero link speed")
	}
	if _, err := NewRandom(tensor.NewRNG(1), 0, Catalog(), 1); err == nil {
		t.Fatal("NewRandom accepted 0 workers")
	}
}

func TestNewRandomDeterministic(t *testing.T) {
	a, _ := NewRandom(tensor.NewRNG(5), 6, Catalog(), 10)
	b, _ := NewRandom(tensor.NewRNG(5), 6, Catalog(), 10)
	for i := range a.Nodes {
		if a.Nodes[i].Type.Name != b.Nodes[i].Type.Name {
			t.Fatal("NewRandom not deterministic for equal seeds")
		}
	}
}

func TestNodeLookup(t *testing.T) {
	c, _ := New(2, SeenTypes(), 10)
	if c.Node(c.Nodes[1].Name) == nil {
		t.Fatal("existing node not found")
	}
	if c.Node("missing") != nil {
		t.Fatal("missing node found")
	}
}

func TestPlaceFillsAllOperators(t *testing.T) {
	q := linearQuery()
	built := queryplan.NewPQP(q)
	built.SetDegree(1, 3)
	built.SetDegree(2, 2)
	// What decoding a plan that names no placement yields: a nil map.
	decoded := &queryplan.PQP{Query: q, Parallelism: map[int]int{1: 3, 2: 2}}
	c, _ := New(2, SeenTypes(), 10)
	for _, p := range []*queryplan.PQP{built, decoded} {
		if err := Place(p, c); err != nil {
			t.Fatal(err)
		}
		for _, o := range q.Ops {
			nodes := p.Placement[o.ID]
			if len(nodes) != p.Degree(o.ID) {
				t.Fatalf("op %d placed on %d nodes, degree %d", o.ID, len(nodes), p.Degree(o.ID))
			}
			for _, n := range nodes {
				if c.Node(n) == nil {
					t.Fatalf("op %d placed on unknown node %q", o.ID, n)
				}
			}
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPlaceCoLocatesChains(t *testing.T) {
	q := linearQuery()
	p := queryplan.NewPQP(q)
	// agg (2) and sink (3) are chained (forward edge, equal degree).
	p.SetDegree(2, 2)
	p.SetDegree(3, 2)
	c, _ := New(3, SeenTypes(), 10)
	if err := Place(p, c); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if p.Placement[2][i] != p.Placement[3][i] {
			t.Fatalf("chained instances not co-located: %v vs %v", p.Placement[2], p.Placement[3])
		}
	}
}

func TestPlaceOnEmptyClusterFails(t *testing.T) {
	p := queryplan.NewPQP(linearQuery())
	if err := Place(p, &Cluster{}); err == nil {
		t.Fatal("placement on empty cluster accepted")
	}
}

func TestPlaceDeterministic(t *testing.T) {
	q := linearQuery()
	c, _ := New(3, SeenTypes(), 10)
	p1 := queryplan.NewPQP(q)
	p1.SetDegree(1, 4)
	p2 := queryplan.NewPQP(q)
	p2.SetDegree(1, 4)
	if err := Place(p1, c); err != nil {
		t.Fatal(err)
	}
	if err := Place(p2, c); err != nil {
		t.Fatal(err)
	}
	for _, o := range q.Ops {
		for i := range p1.Placement[o.ID] {
			if p1.Placement[o.ID][i] != p2.Placement[o.ID][i] {
				t.Fatal("placement not deterministic")
			}
		}
	}
}

// slotLoad counts task slots per node the way every consumer does: the
// placement of each chain group's slot owner, from one analysis of the plan.
func slotLoad(t *testing.T, p *queryplan.PQP) map[string]int {
	t.Helper()
	topo, err := p.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	groups := topo.ChainGroups(p, topo.Degrees(p, nil), nil)
	load := make(map[string]int)
	for _, pos := range SlotOwners(topo, groups, nil) {
		for _, n := range p.Placement[topo.Ops[pos].ID] {
			load[n]++
		}
	}
	return load
}

func TestSlotLoadCountsChainsOnce(t *testing.T) {
	q := linearQuery()
	p := queryplan.NewPQP(q)
	c, _ := New(1, SeenTypes(), 10)
	if err := Place(p, c); err != nil {
		t.Fatal(err)
	}
	load := slotLoad(t, p)
	total := 0
	for _, v := range load {
		total += v
	}
	// source, filter, agg+sink(chained) → 3 slots on the single node
	if total != 3 {
		t.Fatalf("slot total %d, want 3 (load=%v)", total, load)
	}
}

func TestSlotLoadSpreads(t *testing.T) {
	q := linearQuery()
	p := queryplan.NewPQP(q)
	p.SetDegree(1, 4)
	c, _ := New(4, SeenTypes(), 10)
	if err := Place(p, c); err != nil {
		t.Fatal(err)
	}
	load := slotLoad(t, p)
	if len(load) < 2 {
		t.Fatalf("load concentrated: %v", load)
	}
}
