package queryplan

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestQueryJSONRoundTrip(t *testing.T) {
	q := test3Way()
	data, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	var q2 Query
	if err := json.Unmarshal(data, &q2); err != nil {
		t.Fatal(err)
	}
	if len(q2.Ops) != len(q.Ops) || len(q2.Edges) != len(q.Edges) || q2.Template != q.Template {
		t.Fatalf("round trip lost structure: %d ops %d edges", len(q2.Ops), len(q2.Edges))
	}
	if err := q2.Validate(); err != nil {
		t.Fatal(err)
	}
	// Operator parameters must survive.
	for i := range q.Ops {
		if q2.Ops[i].Selectivity != q.Ops[i].Selectivity || q2.Ops[i].Type != q.Ops[i].Type {
			t.Fatal("operator parameters lost")
		}
	}
}

// Decoding does not validate; Validate on the decoded value is what rejects.
func TestQueryJSONRejectsInvalid(t *testing.T) {
	var q Query
	if err := json.Unmarshal([]byte(`{"name":"x","ops":[],"edges":[]}`), &q); err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(); err == nil {
		t.Fatal("accepted empty query")
	}
	if err := json.Unmarshal([]byte(`{bad`), &q); err == nil {
		t.Fatal("accepted malformed JSON")
	}
	// A null operator is an invalid query for both analyses, not a panic.
	if err := json.Unmarshal([]byte(`{"name":"x","ops":[null],"edges":[]}`), &q); err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(); err == nil {
		t.Fatal("Validate accepted a null operator")
	}
	if _, err := q.Topology(); err == nil {
		t.Fatal("Topology accepted a null operator")
	}
}

func TestPQPJSONRoundTrip(t *testing.T) {
	p := NewPQP(testLinear())
	p.SetDegree(1, 4)
	p.SetDegree(2, 2)
	p.SetNoChain(3, true)
	p.Placement[0] = []string{"n0"}
	p.Placement[1] = []string{"n0", "n1", "n0", "n1"}
	p.Placement[2] = []string{"n0", "n1"}
	p.Placement[3] = []string{"n1"}

	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var p2 PQP
	if err := json.Unmarshal(data, &p2); err != nil {
		t.Fatal(err)
	}
	if p2.Degree(1) != 4 || p2.Degree(2) != 2 {
		t.Fatalf("degrees lost: %v", p2.DegreesVector())
	}
	if !p2.NoChain[3] {
		t.Fatal("NoChain lost")
	}
	if p2.Placement[1][3] != "n1" {
		t.Fatal("placement lost")
	}
	// Chain groups must match after the round trip.
	g1, g2 := chainGroups(t, p), chainGroups(t, &p2)
	for id := range g1 {
		if (g1[id] == g1[3]) != (g2[id] == g2[3]) {
			t.Fatal("chain structure changed")
		}
	}
}

func TestPQPJSONRejectsInvalid(t *testing.T) {
	var p PQP
	if err := json.Unmarshal([]byte(`{"parallelism":{}}`), &p); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err == nil {
		t.Fatal("accepted plan without query")
	}
	// Degree below 1.
	q := testLinear()
	good := NewPQP(q)
	data, _ := json.Marshal(good)
	var tweaked map[string]any
	if err := json.Unmarshal(data, &tweaked); err != nil {
		t.Fatal(err)
	}
	tweaked["parallelism"] = map[string]int{"1": 0}
	bad, _ := json.Marshal(tweaked)
	var p2 PQP
	if err := json.Unmarshal(bad, &p2); err != nil {
		t.Fatal(err)
	}
	if err := p2.Validate(); err == nil {
		t.Fatal("accepted degree 0")
	}
}

// TestNoChainWireForm: the set is a sorted, duplicate-free list on the wire,
// so a plan with several chain-disabled operators has one spelling.
func TestNoChainWireForm(t *testing.T) {
	p := NewPQP(testLinear())
	for _, id := range []int{3, 1, 2} {
		p.SetNoChain(id, true)
	}
	first, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(first, []byte(`"no_chain":[1,2,3]`)) {
		t.Fatalf("no_chain is not the sorted member list: %s", first)
	}
	for i := 0; i < 100; i++ {
		again, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, first) {
			t.Fatalf("marshal %d differs:\n%s\n%s", i, again, first)
		}
	}
	var s OpSet
	if err := json.Unmarshal([]byte(`[7,3,3]`), &s); err != nil {
		t.Fatal(err)
	}
	if len(s) != 2 || !s[3] || !s[7] {
		t.Fatalf("[7,3,3] decoded to %v, want {3,7}", s)
	}
	if out, _ := json.Marshal(s); string(out) != `[3,7]` {
		t.Fatalf("{3,7} marshalled to %s", out)
	}
}

// TestDecodedPlanBehavesAsBuilt: a plan file that names only its query
// decodes with nil maps; reads default and writers allocate, so it is used
// like NewPQP's.
func TestDecodedPlanBehavesAsBuilt(t *testing.T) {
	qdata, err := json.Marshal(testLinear())
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{
		`{"query":` + string(qdata) + `}`,
		`{"query":` + string(qdata) + `,"parallelism":null,"placement":null,"no_chain":null}`,
	} {
		var p PQP
		if err := json.Unmarshal([]byte(body), &p); err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		if p.Degree(1) != 1 || p.NoChain[1] || len(p.Clone().Placement) != 0 {
			t.Fatalf("absent maps do not read as defaults: %+v", p)
		}
		p.SetDegree(1, 3)
		p.SetNoChain(2, true)
		if p.Degree(1) != 3 || !p.NoChain[2] {
			t.Fatalf("writes on a decoded plan were lost: %+v", p)
		}
	}
}
