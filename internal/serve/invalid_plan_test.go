// Plans and queries are validated where they are consumed, not while they
// are decoded, so the handlers own the 400: every input the wire decoder
// used to refuse must still end in the stable bad_request envelope — on
// /v1/predict with the circuit closed and open (where the fallback, not the
// model, would price the plan) and on /v1/tune.
package serve_test

import (
	"encoding/json"
	"net/http"
	"testing"

	"zerotune/internal/fault"
	"zerotune/internal/queryplan"
	"zerotune/internal/serve"
)

// respell marshals v, lets edit change the decoded JSON object, and returns
// the result — the way to spell inputs the Go types cannot hold.
func respell(t *testing.T, v any, edit func(m map[string]any)) map[string]any {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	edit(m)
	return m
}

func TestInvalidPlansAre400(t *testing.T) {
	// Spike detection is 0 → 1 → 2 → 3.
	badQueries := map[string]func(q map[string]any){
		"empty query":   func(q map[string]any) { q["ops"], q["edges"] = []any{}, []any{} },
		"duplicate IDs": func(q map[string]any) { q["ops"].([]any)[1].(map[string]any)["id"] = 0 },
		"cycle": func(q map[string]any) {
			q["edges"] = append(q["edges"].([]any), map[string]any{"from": 2, "to": 1, "partitioning": 0})
		},
		"nil operator": func(q map[string]any) { q["ops"].([]any)[1] = nil },
	}
	badPlans := map[string]func(p map[string]any){
		"plan without query": func(p map[string]any) { delete(p, "query") },
		"degree 0":           func(p map[string]any) { p["parallelism"].(map[string]any)["1"] = 0 },
		"placement/degree mismatch": func(p map[string]any) {
			p["placement"] = map[string]any{"1": []any{"n0", "n1"}}
		},
		"parallelism for an unknown operator": func(p map[string]any) { p["parallelism"].(map[string]any)["99"] = 2 },
		"degree over the ceiling": func(p map[string]any) {
			p["parallelism"].(map[string]any)["1"] = serve.MaxPlanInstances
		},
	}
	clusterSpec := serve.ClusterSpec{Workers: 4, LinkGbps: 10}
	predictBodies, tuneBodies := map[string]any{}, map[string]any{
		"request without query": map[string]any{"cluster": clusterSpec},
	}
	for name, edit := range badQueries {
		q := respell(t, queryplan.SpikeDetection(10_000), edit)
		predictBodies[name] = map[string]any{
			"plan": map[string]any{"query": q, "parallelism": map[string]int{}}, "cluster": clusterSpec}
		tuneBodies[name] = map[string]any{"query": q, "cluster": clusterSpec}
	}
	for name, edit := range badPlans {
		predictBodies[name] = map[string]any{"plan": respell(t, testPlan(1, 10_000), edit), "cluster": clusterSpec}
	}
	tooWide := serve.ClusterSpec{Workers: serve.MaxClusterNodes + 1}
	predictBodies["cluster over the ceiling"] = serve.PredictRequest{Plan: testPlan(1, 10_000), Cluster: tooWide}
	tuneBodies["cluster over the ceiling"] = serve.TuneRequest{Query: queryplan.SpikeDetection(10_000), Cluster: tooWide}

	want400 := func(t *testing.T, url string, bodies map[string]any) {
		t.Helper()
		for name, body := range bodies {
			status, payload := postRaw(t, url, body)
			if status != http.StatusBadRequest || envelopeCode(t, payload) != "bad_request" {
				t.Errorf("%s: status %d, body %s; want 400 bad_request", name, status, payload)
			}
		}
	}

	t.Run("predict, circuit closed", func(t *testing.T) {
		s, ts := newTestServer(t, serve.Options{BatchWindow: -1})
		want400(t, predictURL(ts), predictBodies)
		if st := s.Circuit(); st != serve.CircuitClosed {
			t.Fatalf("circuit %v after bad requests only, want closed", st)
		}
	})
	t.Run("predict, circuit open", func(t *testing.T) {
		s, ts := newTestServer(t, serve.Options{BatchWindow: -1, CircuitThreshold: 1})
		reg := fault.New(1)
		reg.Install(fault.Schedule{Point: fault.GNNForward, Mode: fault.ModeError, Every: 1})
		fault.Activate(reg)
		t.Cleanup(fault.Deactivate)
		valid := serve.PredictRequest{Plan: testPlan(1, 10_000), Cluster: clusterSpec}
		if status, payload := postRaw(t, predictURL(ts), &valid); status != http.StatusOK {
			t.Fatalf("tripping request: status %d (%s)", status, payload)
		}
		if st := s.Circuit(); st == serve.CircuitClosed {
			t.Fatal("circuit still closed after the injected forward fault")
		}
		want400(t, predictURL(ts), predictBodies)
		// The fallback is what answers now, and only valid plans reach it.
		var got serve.PredictResponse
		valid.Plan = testPlan(2, 20_000)
		if code := postJSON(t, predictURL(ts), &valid, &got); code != http.StatusOK || !got.Degraded {
			t.Fatalf("valid plan with the circuit open: status %d, degraded %v", code, got.Degraded)
		}
	})
	t.Run("tune", func(t *testing.T) {
		_, ts := newTestServer(t, serve.Options{})
		want400(t, ts.URL+"/v1/tune", tuneBodies)
	})
}
