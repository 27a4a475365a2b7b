package serve_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"zerotune/internal/obs"
	"zerotune/internal/serve"
)

// TestServeModelFileSmoke is what `zerotune serve -model m.json -debug` must
// show from outside: the model file serves on the f32 engine, a predict is
// counted, timed stage by stage and traced, the Go runtime's series sit on
// the same page, and the debug surface (traces, pprof) is mounted.
func TestServeModelFileSmoke(t *testing.T) {
	ztA, _ := models(t)
	s := serve.New(serve.Options{Debug: true})
	if _, err := s.ServeModelFile(saveModel(t, ztA, "a.json")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return resp
	}
	var h serve.HealthResponse
	if err := json.NewDecoder(get("/healthz").Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Model.Engine != "f32" {
		t.Fatalf("/healthz model.engine %q, want f32", h.Model.Engine)
	}
	scrape := func() []obs.Sample {
		t.Helper()
		samples, err := obs.ParseText(get("/metrics").Body)
		if err != nil {
			t.Fatal(err)
		}
		return samples
	}
	predict := func(degree int) {
		t.Helper()
		req := serve.PredictRequest{Plan: testPlan(degree, 50_000), Cluster: serve.ClusterSpec{Workers: 4, LinkGbps: 10}}
		var resp serve.PredictResponse
		if code := postJSON(t, predictURL(ts), &req, &resp); code != http.StatusOK || resp.LatencyMs <= 0 {
			t.Fatalf("predict at degree %d: status %d, %+v", degree, code, resp)
		}
	}
	predicted := func(samples []obs.Sample, want float64) {
		t.Helper()
		if v, _ := obs.FindSample(samples, "zerotune_requests_total", obs.L("endpoint", "predict")); v != want {
			t.Errorf("zerotune_requests_total{endpoint=predict} = %v, want %v", v, want)
		}
	}

	// One predict runs one graph through the engine the load probe used.
	fused0, _ := obs.FindSample(scrape(), "zerotune_fused_graphs_total")
	predict(1)
	samples := scrape()
	predicted(samples, 1)
	if fused, _ := obs.FindSample(samples, "zerotune_fused_graphs_total"); fused != fused0+1 {
		t.Errorf("zerotune_fused_graphs_total %v → %v after one predict, want +1", fused0, fused)
	}

	// 50 predicts over four plans: four forward passes, the rest body hits.
	for i := 1; i < 50; i++ {
		predict(i%4 + 1)
	}
	samples = scrape()
	predicted(samples, 50)
	if d, ok := obs.FindHistogram(samples, "zerotune_request_duration_seconds", obs.L("endpoint", "predict")); !ok || d.Count != 50 {
		t.Errorf("zerotune_request_duration_seconds{endpoint=predict} counts %d (present=%v), want 50", d.Count, ok)
	}
	if v, _ := obs.FindSample(samples, "zerotune_request_duration_seconds_bucket", obs.L("endpoint", "predict"), obs.L("le", "+Inf")); v != 50 {
		t.Errorf("zerotune_request_duration_seconds_bucket{endpoint=predict,le=+Inf} = %v, want 50", v)
	}
	if _, ok := obs.FindSample(samples, "zerotune_request_duration_seconds", obs.L("endpoint", "predict"), obs.L("quantile", "0.99")); !ok {
		t.Error("/metrics lacks the predict p99")
	}
	if stages := serve.ReadStages(samples); stages[serve.StageForward].Count != 4 || stages[serve.StageBodyHit].Count != 46 {
		t.Errorf("50 predicts over 4 plans timed as %d forward passes and %d body hits, want 4 and 46",
			stages[serve.StageForward].Count, stages[serve.StageBodyHit].Count)
	}
	known := map[string]bool{}
	for _, st := range serve.Stages() {
		known[st.String()] = true
	}
	for _, sm := range samples {
		if strings.HasPrefix(sm.Name, serve.StageMetric) && !known[sm.Labels["stage"]] {
			t.Errorf("%s carries a stage outside the list: %v", sm.Name, sm.Labels)
		}
		if strings.Contains(sm.Name, "_window_") {
			t.Errorf("/metrics exports a windowed series %s", sm.Name)
		}
	}
	for _, name := range []string{"zerotune_traces_completed_total", "zerotune_cache_hits_total"} {
		if _, ok := obs.FindSample(samples, name); !ok {
			t.Errorf("/metrics lacks %s", name)
		}
	}
	checkRuntimeSeries(t, samples)

	found := false
	for _, tr := range fetchTraces(t, ts.URL) {
		found = found || tr.Root == "http.predict"
	}
	if !found {
		t.Error("/debug/traces holds no trace rooted at http.predict")
	}
	get("/debug/pprof/heap")
}
