// Observability end-to-end tests: one served prediction must yield a
// complete trace on /debug/traces, /metrics must survive a strict
// Prometheus text parse, and every error response must carry the single
// {"error":{"code","message"}} envelope.
package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"zerotune/internal/obs"
	"zerotune/internal/serve"
)

// fetchTraces polls /debug/traces until at least one trace is visible (the
// root span finalizes after the response body is written, so the first poll
// can race the handler's deferred End).
func fetchTraces(t *testing.T, url string) []obs.TraceData {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(url + "/debug/traces")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var traces []obs.TraceData
		if err := json.Unmarshal(body, &traces); err != nil {
			t.Fatalf("/debug/traces is not valid JSON: %v\n%s", err, body)
		}
		if len(traces) > 0 {
			return traces
		}
		if time.Now().After(deadline) {
			t.Fatal("no trace appeared on /debug/traces")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeTraceEndToEnd is the tentpole acceptance check: a single served
// prediction produces one trace whose span tree links http.predict →
// {encode.plan, cache.lookup, batcher.enqueue → gnn.forward}, every span
// with a non-zero duration, retrievable as JSON.
func TestServeTraceEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Debug: true})
	req := serve.PredictRequest{Plan: testPlan(2, 12_000), Cluster: serve.ClusterSpec{Workers: 4, LinkGbps: 10}}
	data, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(predictURL(ts), "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d", resp.StatusCode)
	}
	wantTraceID := resp.Header.Get("X-Trace-Id")
	if wantTraceID == "" {
		t.Fatal("response has no X-Trace-Id header")
	}

	traces := fetchTraces(t, ts.URL)
	var trace *obs.TraceData
	for i := range traces {
		if traces[i].TraceID == wantTraceID {
			trace = &traces[i]
			break
		}
	}
	if trace == nil {
		t.Fatalf("trace %s from X-Trace-Id not on /debug/traces (got %d traces)", wantTraceID, len(traces))
	}
	if trace.Root != "http.predict" {
		t.Fatalf("trace root = %q, want http.predict", trace.Root)
	}
	if len(trace.Spans) < 4 {
		t.Fatalf("trace has %d spans, want >= 4: %+v", len(trace.Spans), trace.Spans)
	}

	byName := make(map[string]obs.SpanData, len(trace.Spans))
	for _, sp := range trace.Spans {
		if sp.Duration <= 0 {
			t.Errorf("span %s has non-positive duration %d", sp.Name, sp.Duration)
		}
		byName[sp.Name] = sp
	}
	for _, name := range []string{"http.predict", "encode.plan", "cache.lookup", "batcher.enqueue", "gnn.forward"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("trace is missing span %q: have %v", name, spanNames(trace.Spans))
		}
	}
	root := byName["http.predict"]
	if root.ParentID != "" {
		t.Errorf("http.predict has parent %q, want none", root.ParentID)
	}
	for _, child := range []string{"encode.plan", "cache.lookup", "batcher.enqueue"} {
		if got := byName[child].ParentID; got != root.SpanID {
			t.Errorf("%s parent = %q, want http.predict (%q)", child, got, root.SpanID)
		}
	}
	if got := byName["gnn.forward"].ParentID; got != byName["batcher.enqueue"].SpanID {
		t.Errorf("gnn.forward parent = %q, want batcher.enqueue (%q)", got, byName["batcher.enqueue"].SpanID)
	}
}

func spanNames(spans []obs.SpanData) []string {
	names := make([]string, len(spans))
	for i, sp := range spans {
		names[i] = sp.Name
	}
	return names
}

// TestServeMetricsStrictParse round-trips the live /metrics payload through
// the strict text-format parser: well-formed lines, consistent histograms,
// and the series the smoke job greps for all present.
func TestServeMetricsStrictParse(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Debug: true})
	req := serve.PredictRequest{Plan: testPlan(2, 14_000), Cluster: serve.ClusterSpec{Workers: 4, LinkGbps: 10}}
	if code := postJSON(t, predictURL(ts), &req, nil); code != http.StatusOK {
		t.Fatalf("predict status %d", code)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	samples, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("/metrics failed strict parse: %v", err)
	}
	if err := obs.CheckHistograms(samples); err != nil {
		t.Fatal(err)
	}
	if v, ok := obs.FindSample(samples, "zerotune_requests_total", obs.L("endpoint", "predict")); !ok || v != 1 {
		t.Fatalf("zerotune_requests_total{endpoint=predict} = %v (present=%v), want 1", v, ok)
	}
	for _, name := range []string{
		"zerotune_inferences_total", "zerotune_cache_size",
		"zerotune_traces_completed_total", "zerotune_traces_dropped_total",
		"zerotune_uptime_seconds",
	} {
		if _, ok := obs.FindSample(samples, name); !ok {
			t.Errorf("/metrics missing series %s", name)
		}
	}
	for _, q := range []string{"0.5", "0.9", "0.99"} {
		for _, name := range []string{"zerotune_request_duration_seconds", "zerotune_batch_size"} {
			if _, ok := obs.FindSample(samples, name, obs.L("quantile", q)); !ok {
				t.Errorf("/metrics missing %s{quantile=%q}", name, q)
			}
		}
	}
	// Every stage of the list has its series from start-up; the one request,
	// a miss, went through a forward pass and no body hit.
	for _, st := range serve.Stages() {
		if _, ok := obs.FindHistogram(samples, serve.StageMetric, obs.L("stage", st.String())); !ok {
			t.Errorf("/metrics missing %s{stage=%q}", serve.StageMetric, st)
		}
	}
	if stages := serve.ReadStages(samples); stages[serve.StageForward].Count != 1 || stages[serve.StageBodyHit].Count != 0 {
		t.Errorf("one miss timed as %d forward passes and %d body hits", stages[serve.StageForward].Count, stages[serve.StageBodyHit].Count)
	}
	if _, ok := obs.FindSample(samples, "zerotune_model_info", obs.L("id", "test-a")); !ok {
		t.Error("/metrics missing zerotune_model_info{id=test-a}")
	}
	checkRuntimeSeries(t, samples)
}

// checkRuntimeSeries: the Go runtime's series are on the page, live (this
// process has goroutines and a heap) and shaped like the page's own
// histograms, which CheckHistograms has already held them to.
func checkRuntimeSeries(t *testing.T, samples []obs.Sample) {
	t.Helper()
	for _, name := range []string{obs.RuntimeGoroutinesMetric, obs.RuntimeHeapLiveMetric} {
		if v, ok := obs.FindSample(samples, name); !ok || v <= 0 {
			t.Errorf("/metrics: %s = %v (present=%v), want a positive gauge", name, v, ok)
		}
	}
	for _, name := range []string{obs.RuntimeGCPauseMetric, obs.RuntimeSchedLatencyMetric} {
		if _, ok := obs.FindHistogram(samples, name); !ok {
			t.Errorf("/metrics missing histogram %s", name)
		}
		if _, ok := obs.FindSample(samples, name+"_bucket", obs.L("le", "+Inf")); !ok {
			t.Errorf("/metrics: %s has no buckets", name)
		}
	}
}

// TestServeErrorSchema pins the wire error contract: every error path
// answers with {"error":{"code","message"}} and a stable machine code.
func TestServeErrorSchema(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{})

	decodeError := func(t *testing.T, resp *http.Response) (code, message string) {
		t.Helper()
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var envelope struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.Unmarshal(body, &envelope); err != nil {
			t.Fatalf("error body is not the envelope schema: %v\n%s", err, body)
		}
		if envelope.Error.Code == "" || envelope.Error.Message == "" {
			t.Fatalf("error envelope incomplete: %s", body)
		}
		return envelope.Error.Code, envelope.Error.Message
	}

	// Malformed JSON → 400 bad_request.
	resp, err := http.Post(predictURL(ts), "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
	if code, _ := decodeError(t, resp); code != "bad_request" {
		t.Fatalf("malformed JSON: code %q, want bad_request", code)
	}

	// The same schema on /v1/tune.
	resp, err = http.Post(ts.URL+"/v1/tune", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty tune: status %d, want 400", resp.StatusCode)
	}
	if code, _ := decodeError(t, resp); code != "bad_request" {
		t.Fatalf("empty tune: code %q, want bad_request", code)
	}

	// No model installed → 503 no_model, on predict and reload alike.
	empty := serve.New(serve.Options{})
	ets := httptest.NewServer(empty)
	t.Cleanup(func() { ets.Close(); empty.Close() })
	req := serve.PredictRequest{Plan: testPlan(1, 10_000), Cluster: serve.ClusterSpec{Workers: 2}}
	data, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ets.URL+"/v1/predict", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("no model: status %d, want 503", resp.StatusCode)
	}
	if code, _ := decodeError(t, resp); code != "no_model" {
		t.Fatalf("no model: code %q, want no_model", code)
	}
}
