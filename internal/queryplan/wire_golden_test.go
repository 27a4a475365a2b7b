package queryplan_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"zerotune/internal/cluster"
	"zerotune/internal/queryplan"
	"zerotune/internal/serve"
)

// The files under testdata/ were written by json.Marshal at the parent of the
// commit that deleted Query's and PQP's MarshalJSON/UnmarshalJSON hooks, so
// they are what every earlier commit put on the wire. -update rewrites them
// from the code under test, which is only right when the format is meant to
// move.
var update = flag.Bool("update", false, "rewrite the wire golden files")

// goldenPlan is a placed spike-detection plan with two chain-disabled
// operators.
func goldenPlan(t *testing.T) *queryplan.PQP {
	t.Helper()
	p := queryplan.NewPQP(queryplan.SpikeDetection(10_000))
	p.SetDegree(1, 4)
	p.SetDegree(2, 2)
	p.SetNoChain(3, true)
	p.SetNoChain(1, true)
	c, err := cluster.New(4, cluster.SeenTypes(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Place(p, c); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestWireGolden pins the wire format of a predict request, a tune request
// and a bare plan file: marshalling is byte-equal to the parent commit's
// output, and decode→marshal is the identity on those bytes.
func TestWireGolden(t *testing.T) {
	weight, candidates := 0.25, 8
	for _, tc := range []struct {
		file  string
		value any
		fresh func() any
	}{
		{"predict_request.json",
			serve.PredictRequest{Plan: goldenPlan(t), Cluster: serve.ClusterSpec{Workers: 4, LinkGbps: 10}},
			func() any { return new(serve.PredictRequest) }},
		{"tune_request.json",
			serve.TuneRequest{Query: queryplan.SmartGridLocal(50_000), Cluster: serve.ClusterSpec{Workers: 6},
				Weight: &weight, RandomCandidates: &candidates, Seed: 7},
			func() any { return new(serve.TuneRequest) }},
		{"plan.json", goldenPlan(t), func() any { return new(queryplan.PQP) }},
	} {
		path := filepath.Join("testdata", tc.file)
		got, err := json.Marshal(tc.value)
		if err != nil {
			t.Fatal(err)
		}
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: marshal differs from the golden bytes\n got %s\nwant %s", tc.file, got, want)
		}
		decoded := tc.fresh()
		if err := json.Unmarshal(want, decoded); err != nil {
			t.Fatalf("%s: decode: %v", tc.file, err)
		}
		again, err := json.Marshal(decoded)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, want) {
			t.Errorf("%s: decode→marshal is not the identity\n got %s\nwant %s", tc.file, again, want)
		}
	}
}
