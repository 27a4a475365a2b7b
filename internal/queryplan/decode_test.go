package queryplan

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"zerotune/internal/jsonscan"
)

// TestDecodeTablesMatchTags: the decoders switch on positions in the field
// tables, so each table must be its struct's json tags in declaration order —
// a field added to Operator without a case in its decoder fails here, not as
// a value silently dropped from every request.
func TestDecodeTablesMatchTags(t *testing.T) {
	for _, tc := range []struct {
		table []string
		typ   reflect.Type
	}{
		{pqpFields, reflect.TypeOf(PQP{})},
		{queryFields, reflect.TypeOf(Query{})},
		{edgeFields, reflect.TypeOf(Edge{})},
		{opFields, reflect.TypeOf(Operator{})},
	} {
		var tags []string
		for i := 0; i < tc.typ.NumField(); i++ {
			name, _, _ := strings.Cut(tc.typ.Field(i).Tag.Get("json"), ",")
			tags = append(tags, name)
		}
		if !reflect.DeepEqual(tags, tc.table) {
			t.Errorf("%v has json tags %q, its decoder's table %q", tc.typ, tags, tc.table)
		}
	}
}

// TestEveryOperatorFieldDecodes: an operator with every field set to a value
// of its own survives the round trip, so no case of the decoder's switch
// stores into the wrong field. (internal/serve's differential fuzz target
// holds the decoders to encoding/json on arbitrary input.)
func TestEveryOperatorFieldDecodes(t *testing.T) {
	var op Operator
	v := reflect.ValueOf(&op).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int:
			f.SetInt(int64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i) + 1.5)
		default:
			t.Fatalf("field %s: no decoder case for kind %s", v.Type().Field(i).Name, f.Kind())
		}
	}
	q := &Query{Name: "n", Template: "t", Ops: []*Operator{&op, nil}, Edges: []Edge{{From: 1, To: 2, Partitioning: PartHash}}}
	data, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	var got Query
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, q) {
		t.Fatalf("decoded %s as\n %+v %+v", data, got, got.Ops[0])
	}
}

// TestRepeatedPlanKeys: a field of the plan, the query, an operator or an edge
// given twice is refused; the keys of the plan's maps are data and may repeat.
func TestRepeatedPlanKeys(t *testing.T) {
	for body, dup := range map[string]bool{
		`{"query":null,"query":null}`:                                    true,
		`{"parallelism":{},"Parallelism":{}}`:                            true,
		`{"query":{"ops":[],"ops":[]}}`:                                  true,
		`{"query":{"ops":[{"type":1,"type":1}]}}`:                        true,
		`{"query":{"edges":[{"from":1,"from":1}]}}`:                      true,
		`{"parallelism":{"1":1,"1":2},"placement":{"2":[],"2":["n"]}}`:   false,
		`{"query":{"ops":[{"x":1,"x":2}],"y":0,"y":0},"no_chain":[3,3]}`: false,
	} {
		var p PQP
		if err := p.UnmarshalJSON([]byte(body)); errors.Is(err, jsonscan.ErrDuplicateKey) != dup || !dup && err != nil {
			t.Errorf("%s: %v, want duplicate=%v", body, err, dup)
		}
	}
}
