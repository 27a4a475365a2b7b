package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"zerotune/internal/cluster"
	"zerotune/internal/jsonscan"
	"zerotune/internal/queryplan"
)

// The reference decoder: the wire structs with their methods stripped, so
// encoding/json decodes them by reflection as it did before the types decoded
// themselves. Only tests use it. A defined type keeps its source's fields and
// tags and drops its methods; PQP and the two requests are spelled out because
// their fields must point at the stripped types.
type (
	refQuery   queryplan.Query
	refCluster ClusterSpec
	refOpSet   map[int]bool
	refPQP     struct {
		Query       *refQuery        `json:"query"`
		Parallelism map[int]int      `json:"parallelism"`
		Placement   map[int][]string `json:"placement,omitempty"`
		NoChain     refOpSet         `json:"no_chain,omitempty"`
	}
	refPredictRequest struct {
		Plan    *refPQP    `json:"plan"`
		Cluster refCluster `json:"cluster"`
	}
	refTuneRequest struct {
		Query            *refQuery  `json:"query"`
		Cluster          refCluster `json:"cluster"`
		Weight           *float64   `json:"weight,omitempty"`
		RandomCandidates *int       `json:"random_candidates,omitempty"`
		Seed             uint64     `json:"seed,omitempty"`
	}
)

// UnmarshalJSON is OpSet's as it was while it decoded by reflection.
func (s *refOpSet) UnmarshalJSON(data []byte) error {
	var ids []int
	if err := json.Unmarshal(data, &ids); err != nil {
		return err
	}
	*s = make(refOpSet, len(ids))
	for _, id := range ids {
		(*s)[id] = true
	}
	return nil
}

func (r refPredictRequest) wire() PredictRequest {
	out := PredictRequest{Cluster: ClusterSpec(r.Cluster)}
	if p := r.Plan; p != nil {
		out.Plan = &queryplan.PQP{Query: (*queryplan.Query)(p.Query), Parallelism: p.Parallelism,
			Placement: p.Placement, NoChain: queryplan.OpSet(p.NoChain)}
	}
	return out
}

func (r refTuneRequest) wire() TuneRequest {
	return TuneRequest{Query: (*queryplan.Query)(r.Query), Cluster: ClusterSpec(r.Cluster),
		Weight: r.Weight, RandomCandidates: r.RandomCandidates, Seed: r.Seed}
}

// jsonNames lists a struct's wire names in declaration order: the json tag's
// name, or the Go field name where there is none.
func jsonNames(t reflect.Type) []string {
	var names []string
	for i := 0; i < t.NumField(); i++ {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		if name == "" {
			name = t.Field(i).Name
		}
		names = append(names, name)
	}
	return names
}

// TestDecodeTablesMatchTags: the decoders switch on positions in these tables,
// so a field added to a wire struct without a line in its decoder fails here
// and not as a silently dropped value; and the reference structs above mirror
// the real ones.
func TestDecodeTablesMatchTags(t *testing.T) {
	for _, tc := range []struct {
		table []string
		typ   any
	}{
		{predictFields, PredictRequest{}},
		{tuneFields, TuneRequest{}},
		{clusterFields, ClusterSpec{}},
		{nodeFields, cluster.Node{}},
		{nodeTypeFields, cluster.NodeType{}},
		{predictFields, refPredictRequest{}},
		{tuneFields, refTuneRequest{}},
		{jsonNames(reflect.TypeOf(queryplan.PQP{})), refPQP{}},
	} {
		if got := jsonNames(reflect.TypeOf(tc.typ)); !reflect.DeepEqual(got, tc.table) {
			t.Errorf("%T has wire fields %q, its table %q", tc.typ, got, tc.table)
		}
	}
}

// wireSeeds is the differential target's seed corpus: every body
// FuzzDecodePredictRequest seeds or has ever kept, the wire goldens, and one
// input for each rule of the contract.
func wireSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	marshal := func(v any) []byte {
		data, err := json.Marshal(v)
		if err != nil {
			tb.Fatal(err)
		}
		return data
	}
	valid := marshal(PredictRequest{
		Plan:    queryplan.NewPQP(queryplan.SpikeDetection(10_000)),
		Cluster: ClusterSpec{Workers: 4, LinkGbps: 10},
	})
	query := string(marshal(queryplan.SpikeDetection(10_000)))
	nodes, err := cluster.New(3, cluster.SeenTypes(), 1)
	if err != nil {
		tb.Fatal(err)
	}
	fullCluster := string(marshal(ClusterSpec{Nodes: nodes.Nodes, LinkGbps: 1}))
	deep := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }

	seeds := [][]byte{
		// FuzzDecodePredictRequest's own.
		valid,
		append(bytes.Clone(valid), ` trailing`...),
		valid[:len(valid)/2],
	}
	for _, s := range []string{
		`{}`, ``,
		`{"plan":null,"cluster":{"workers":2}}`,
		`{"plan":{"query":null}}`,
		`{"plan":{"query":{"ops":[{"id":-1,"type":9999}]}},"cluster":{"nodes":[{"name":""}]}}`,
		`{"cluster":{"workers":-3,"node_types":["no-such-type"],"link_gbps":-1}}`,
		`{"plan":1e308}`,
		`{"plan":{"query":{"name":"x","ops":[null],"edges":[]},"parallelism":{}},"cluster":{"workers":2}}`,
		`{"plan":{"query":{}},"cluster":{"workers":2}}`,
		`{"plan":{"query":` + query + `,"parallelism":null},"cluster":{"workers":2}}`,
		`{"plan":{"query":` + query + `,"placement":null},"cluster":{"workers":2}}`,
		`{"plan":{"query":` + query + `,"no_chain":[7,3,3]},"cluster":{"workers":2}}`,

		// Both cluster forms, a tune envelope with every field, nulls everywhere
		// one is legal.
		`{"query":` + query + `,"cluster":` + fullCluster + `,"weight":0,"random_candidates":3,"seed":18446744073709551615}`,
		`{"plan":{"query":` + query + `},"cluster":` + fullCluster + `}`,
		`null`, ` {"cluster":null,"plan":{"no_chain":null,"placement":{"1":null,"2":[null,"n"],"3":[]}}} `,
		`{"query":{"ops":null,"edges":[null,{"from":null}]},"weight":null,"random_candidates":null,"seed":null}`,
		`{"cluster":{"nodes":[null,{"Name":"a","Type":{"Cores":2,"Seen":true,"Homog":null,"FreqGHz":2.5e0}}],"node_types":null}}`,

		// Keys: unknown ones skipped (the gateway_mix spelling), exact before
		// folded, folding as encoding/json folds (long s, Kelvin sign), escapes.
		`{"client_request_id":"17",` + string(valid[1:]),
		`{"PLAN":{"Query":{"NAME":"n","oPs":[{"ID":4,"Tuple_Width_In":2}]}},"Cluster":{"WORKERS":2}}`,
		`{"plan":{"query":{"name":"é😀 \ud800 \"q\"","template":"caf` + "\xc3\xa9 \xff" + `"}}}`,
		"{\"clu\u017fter\":{\"wor\u212aers\":3},\"\u017feed\":5,\"plan \":1,\"\":2}",
		`{"x":{"a":[1,2.5e-3,true,false,null,"s\n",{"b":{}}],"c":[]},"x":0,"plan":{"y":[[]]}}`,

		// Numbers and map keys as encoding/json stores them.
		`{"plan":{"parallelism":{"+3":1,"03":2,"-0":4,"5":6}}}`,
		`{"plan":{"parallelism":{" 3":1}}}`, `{"plan":{"parallelism":{"3.0":1}}}`,
		`{"plan":{"parallelism":{"9223372036854775808":1}}}`,
		`{"plan":{"parallelism":{"1":1e2}}}`, `{"plan":{"parallelism":{"1":1.0}}}`,
		`{"plan":{"parallelism":{"1":9223372036854775807,"2":-9223372036854775808}}}`,
		`{"plan":{"parallelism":{"1":9223372036854775808}}}`,
		`{"plan":{"parallelism":{"1":"4"}}}`, `{"plan":{"no_chain":[1,null,2]}}`,
		`{"cluster":{"workers":01}}`, `{"cluster":{"workers":-}}`, `{"cluster":{"workers":1.}}`,
		`{"cluster":{"link_gbps":-0}}`, `{"cluster":{"link_gbps":1e999}}`, `{"cluster":{"link_gbps":1e-999}}`,
		`{"cluster":{"link_gbps":0.1e+1,"workers":-0}}`, `{"seed":-0}`, `{"seed":1.5}`,
		`{"query":{"ops":[{"selectivity":123456789012345678901234567890,"event_rate":9007199254740993}]}}`,

		// Structure: wrong kinds, truncation, stray bytes, and nesting up to and
		// past encoding/json's limit (the envelope is level one).
		`[]`, `"plan"`, `7`, `{"plan":[]}`, `{"plan":{"query":[]}}`, `{"cluster":{"nodes":{}}}`,
		`{"plan":{"query":{"ops":{}}}}`, `{"plan":{"placement":{"1":"n0"}}}`,
		`{"plan":{}`, `{"plan":{},}`, `{,}`, `{"plan"}`, `{"plan":{}}}`, `{"a":tru}`, `{"a":"\x"}`, `{"a":"\u12g4"}`,
		"{\"a\":\"\x01\"}", `{"plan":{}} {}`, "\xef\xbb\xbf{}",
		`{"x":` + deep(jsonscan.MaxDepth-1) + `}`,
		`{"x":` + deep(jsonscan.MaxDepth) + `}`,
		`{"x":` + deep(jsonscan.MaxDepth+1) + `}`,

		// The deliberate difference: a known key twice.
		`{"plan":null,"plan":null}`, `{"plan":{"query":{"name":"a","Name":"b"}}}`,
	} {
		seeds = append(seeds, []byte(s))
	}
	for _, pattern := range []string{
		"testdata/fuzz/FuzzDecodePredictRequest/*", // what fuzzing that target has kept
		"../queryplan/testdata/*.json",             // the wire goldens
	} {
		files, err := filepath.Glob(pattern)
		if err != nil || len(files) == 0 {
			tb.Fatalf("no seeds under %s (%v)", pattern, err)
		}
		for _, file := range files {
			data, err := os.ReadFile(file)
			if err != nil {
				tb.Fatal(err)
			}
			// A corpus file is a header line and one []byte("…") literal.
			if lit, ok := strings.CutPrefix(string(data), "go test fuzz v1\n[]byte("); ok {
				s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(lit), ")"))
				if err != nil {
					tb.Fatalf("%s: %v", file, err)
				}
				data = []byte(s)
			}
			seeds = append(seeds, data)
		}
	}
	return seeds
}

// FuzzWireDecodeMatchesEncodingJSON pins the request decoders' contract
// against the reference: every body encoding/json accepts into a predict or a
// tune request, the decoder accepts, with a reflect.DeepEqual value that
// marshals to the same bytes (which also tells -0 from 0); every body it
// refuses is refused. The one exception is a schema field repeated within an
// object — refused here, merged there — which ErrDuplicateKey marks. Going in
// through json.Unmarshal's Unmarshaler hook is the same decoder and must give
// the same verdict.
func FuzzWireDecodeMatchesEncodingJSON(f *testing.F) {
	for _, seed := range wireSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var (
			predict, hooked PredictRequest
			tune            TuneRequest
			refPredict      refPredictRequest
			refTune         refTuneRequest
		)
		check := func(name string, err, refErr error, got, want any) {
			t.Helper()
			if errors.Is(err, jsonscan.ErrDuplicateKey) {
				return
			}
			if (err == nil) != (refErr == nil) {
				t.Fatalf("%s: decoder says %v, encoding/json says %v", name, err, refErr)
			}
			if err != nil {
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: decoded\n %+v\nencoding/json decoded\n %+v", name, got, want)
			}
			gotJSON, err1 := json.Marshal(got)
			wantJSON, err2 := json.Marshal(want)
			if err1 != nil || err2 != nil || !bytes.Equal(gotJSON, wantJSON) {
				t.Fatalf("%s: re-marshals to\n %s (%v)\nencoding/json's to\n %s (%v)", name, gotJSON, err1, wantJSON, err2)
			}
		}
		err := predict.UnmarshalJSON(body)
		check("predict", err, json.Unmarshal(body, &refPredict), predict, refPredict.wire())
		check("tune", tune.UnmarshalJSON(body), json.Unmarshal(body, &refTune), tune, refTune.wire())
		if hookErr := json.Unmarshal(body, &hooked); (hookErr == nil) != (err == nil) || err == nil && !reflect.DeepEqual(hooked, predict) {
			t.Fatalf("through json.Unmarshal: %v, %+v; called directly: %v, %+v", hookErr, hooked, err, predict)
		}
	})
}

// TestDuplicateKeys pins the one rule on which the decoders and encoding/json
// part: a key the schema knows, twice in one object under any spelling that
// matches it, is an error at every level of the document; an unknown key may
// repeat, and so may the keys of the plan's maps, which are data (the last
// one wins, as it always has).
func TestDuplicateKeys(t *testing.T) {
	for _, tc := range []struct {
		body string
		dup  bool
	}{
		{`{"plan":null,"plan":null}`, true},
		{`{"plan":null,"PLAN":null}`, true},
		{`{"cluster":{"workers":1},"cluster":{"workers":2}}`, true},
		{`{"cluster":{"workers":1,"workers":1}}`, true},
		{`{"cluster":{"nodes":[{"Name":"a","name":"b"}]}}`, true},
		{`{"cluster":{"nodes":[{"Type":{"Cores":1,"cores":2}}]}}`, true},
		{`{"plan":{"query":{},"query":{}}}`, true},
		{`{"plan":{"query":{"ops":[{"id":1,"id":1}]}}}`, true},
		{`{"plan":{"query":{"edges":[{"to":1,"from":0,"to":1}]}}}`, true},
		{`{"query":{"name":"a","name":"a"}}`, true},
		{`{"seed":1,"seed":1}`, true},
		{`{"x":1,"x":2,"plan":{"x":{},"x":[]},"cluster":{"y":1,"y":1}}`, false},
		{`{"plan":{"parallelism":{"1":2,"01":3,"1":4},"placement":{"1":["a"],"1":["b"]}}}`, false},
		{`{"plan":{"query":{"ops":[{"id":1},{"id":1}]}},"cluster":{"nodes":[{"Name":"a"},{"Name":"a"}]}}`, false},
	} {
		var predict PredictRequest
		var tune TuneRequest
		errP, errT := predict.UnmarshalJSON([]byte(tc.body)), tune.UnmarshalJSON([]byte(tc.body))
		if got := errors.Is(errP, jsonscan.ErrDuplicateKey) || errors.Is(errT, jsonscan.ErrDuplicateKey); got != tc.dup {
			t.Errorf("%s: predict %v, tune %v; want duplicate=%v", tc.body, errP, errT, tc.dup)
		}
		if !tc.dup && (errP != nil || errT != nil) {
			t.Errorf("%s: predict %v, tune %v; want it decoded", tc.body, errP, errT)
		}
	}
	var req PredictRequest
	if err := req.UnmarshalJSON([]byte(`{"plan":{"parallelism":{"1":2,"01":3,"+1":4}}}`)); err != nil || req.Plan.Parallelism[1] != 4 {
		t.Fatalf("repeated map key: %v, %v; want the last value", err, req.Plan)
	}
}
