// Plans and queries are validated where they are consumed, not while they
// are decoded, so the handlers own the 400: every input the wire decoder
// used to refuse must still end in the stable bad_request envelope — on
// /v1/predict with the circuit closed and open (where the fallback, not the
// model, would price the plan) and on /v1/tune.
package serve_test

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
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

// postBytes posts body as it is — the bytes under test are the ones
// json.Marshal would never write.
func postBytes(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, payload
}

// TestUndecodableBodiesAre400: /v1/predict and /v1/tune read and decode a body
// the same way, so what one refuses to decode the other refuses with the same
// words — a 400 bad_request whose message starts "serve: decode request:" —
// and what one tolerates (unknown keys, repeated or not; whitespace around
// the value) the other does too.
func TestUndecodableBodiesAre400(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{BatchWindow: -1})
	marshal := func(v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	valid := map[string]string{
		"/v1/predict": marshal(serve.PredictRequest{Plan: testPlan(1, 10_000), Cluster: serve.ClusterSpec{Workers: 4}}),
		"/v1/tune":    marshal(tuneRequest()),
	}
	for _, tc := range []struct {
		name string
		edit func(valid string) string
		ok   bool
	}{
		{"as written", func(v string) string { return v }, true},
		{"whitespace around the value", func(v string) string { return " \n" + v + "\t\r\n" }, true},
		{"an unknown key, twice", func(v string) string { return `{"client_request_id":"a","client_request_id":{"b":[1]},` + v[1:] }, true},
		{"empty body", func(string) string { return "" }, false},
		{"truncated", func(v string) string { return v[:len(v)-1] }, false},
		{"trailing data", func(v string) string { return v + ` trailing` }, false},
		{"a second value", func(v string) string { return v + v }, false},
		{"not an object", func(v string) string { return `[` + v + `]` }, false},
		{"a known key, twice", func(v string) string { return `{"cluster":{"workers":4},` + v[1:] }, false},
		{"a known key, twice, case-folded", func(v string) string { return `{"CLUSTER":{"workers":4},` + v[1:] }, false},
		{"a known key, twice, nested", func(v string) string { return strings.Replace(v, `"workers":4`, `"workers":4,"workers":4`, 1) }, false},
		{"a fraction in an integer", func(v string) string { return strings.Replace(v, `"workers":4`, `"workers":4.0`, 1) }, false},
		{"an unknown value nested too deep", func(v string) string {
			return `{"x":` + strings.Repeat("[", 10_001) + strings.Repeat("]", 10_001) + `,` + v[1:]
		}, false},
	} {
		messages := map[string]string{}
		for path, body := range valid {
			status, payload := postBytes(t, ts.URL+path, tc.edit(body))
			if tc.ok {
				if status != http.StatusOK {
					t.Errorf("%s, %s: status %d (%s), want 200", tc.name, path, status, payload)
				}
				continue
			}
			if status != http.StatusBadRequest || envelopeCode(t, payload) != "bad_request" {
				t.Errorf("%s, %s: status %d, body %s; want 400 bad_request", tc.name, path, status, payload)
				continue
			}
			var env struct {
				Error serve.ErrorBody `json:"error"`
			}
			if err := json.Unmarshal(payload, &env); err != nil || !strings.HasPrefix(env.Error.Message, "serve: decode request: ") {
				t.Errorf("%s, %s: message %q does not say the body failed to decode", tc.name, path, env.Error.Message)
			}
			// The offset in the message depends on the body; the rest must not.
			messages[path] = strings.TrimRight(env.Error.Message, "0123456789")
		}
		if messages["/v1/predict"] != messages["/v1/tune"] {
			t.Errorf("%s: predict says %q, tune says %q", tc.name, messages["/v1/predict"], messages["/v1/tune"])
		}
	}
}
