// Serving through the fused-batch inference engine: every load must build
// (and gate) the engine as part of load-validate-swap, and the body-level
// response cache must never outlive the model that filled it.
package serve_test

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"zerotune/internal/client"
	"zerotune/internal/core"
	"zerotune/internal/gnn"
	"zerotune/internal/optimizer"
	"zerotune/internal/serve"
)

// TestServeCompiledLoadBuildsEngine verifies that at default options the load
// path compiles every model revision and the gate report is attached, for
// both the initial load and a hot swap.
func TestServeCompiledLoadBuildsEngine(t *testing.T) {
	ztA, ztB := models(t)
	pathA, pathB := saveModel(t, ztA, "a.json"), saveModel(t, ztB, "b.json")

	s := serve.New(serve.Options{})
	if _, err := s.ServeModelFile(pathA); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })

	check := func(stage string) {
		t.Helper()
		cm := s.Registry().Current().ZT.Compiled()
		if cm.Engine != gnn.EngineF32 {
			t.Fatalf("%s: served model runs the %v engine, want f32", stage, cm.Engine)
		}
		if cm.Gate.Graphs == 0 || cm.Gate.MaxQErr > 1+cm.Gate.Threshold {
			t.Fatalf("%s: implausible gate report %+v", stage, cm.Gate)
		}
	}
	check("initial load")

	req := serve.PredictRequest{Plan: testPlan(3, 20_000), Cluster: serve.ClusterSpec{Workers: 4, LinkGbps: 10}}
	var resp serve.PredictResponse
	if code := postJSON(t, predictURL(ts), &req, &resp); code != http.StatusOK {
		t.Fatalf("compiled predict status %d", code)
	}
	if resp.LatencyMs <= 0 || resp.ThroughputEPS <= 0 {
		t.Fatalf("compiled predict returned non-positive costs: %+v", resp)
	}

	var rl serve.ReloadResponse
	if code := postJSON(t, ts.URL+"/v1/reload", &serve.ReloadRequest{Path: pathB}, &rl); code != http.StatusOK {
		t.Fatalf("reload status %d", code)
	}
	check("after hot swap")
}

// TestOneModelFileOneAnswer: a model file gives one answer, bit for bit,
// whether a server loads it (ServeModelFile) or the library does
// (core.LoadFile, as the CLI's predict and tune do) — for /v1/predict against
// Predict and for /v1/tune against Tune.
func TestOneModelFileOneAnswer(t *testing.T) {
	ztA, _ := models(t)
	path := saveModel(t, ztA, "a.json")
	s := serve.New(serve.Options{})
	if _, err := s.ServeModelFile(path); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	zt, err := core.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	req := serve.PredictRequest{Plan: testPlan(3, 20_000), Cluster: serve.ClusterSpec{Workers: 4, LinkGbps: 10}}
	var served serve.PredictResponse
	if code := postJSON(t, predictURL(ts), &req, &served); code != http.StatusOK {
		t.Fatalf("predict status %d", code)
	}
	want, err := zt.Predict(ctx, testPlan(3, 20_000), testCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	if served.LatencyMs != want.LatencyMs || served.ThroughputEPS != want.ThroughputEPS {
		t.Errorf("/v1/predict answers (%v ms, %v eps), Predict on the same file (%v ms, %v eps)",
			served.LatencyMs, served.ThroughputEPS, want.LatencyMs, want.ThroughputEPS)
	}

	treq := tuneRequest()
	var tuned serve.TuneResponse
	if code := postJSON(t, ts.URL+"/v1/tune", &treq, &tuned); code != http.StatusOK {
		t.Fatalf("tune status %d", code)
	}
	res, err := zt.Tune(ctx, tuneRequest().Query, testCluster(t), optimizer.DefaultTuneOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Plan.DegreesVector(); !slices.Equal(tuned.DegreesVector, got) ||
		tuned.LatencyMs != res.Estimate.LatencyMs || tuned.ThroughputEPS != res.Estimate.ThroughputEPS {
		t.Errorf("/v1/tune answers %v at (%v ms, %v eps), Tune on the same file %v at (%v ms, %v eps)",
			tuned.DegreesVector, tuned.LatencyMs, tuned.ThroughputEPS, got, res.Estimate.LatencyMs, res.Estimate.ThroughputEPS)
	}
}

// TestServeGateRefusal: a model the accuracy gate refuses is an invalid file
// on the load path (422, the old revision keeps serving on the engine). Built
// by hand and installed in memory, it runs the float64 reference engine,
// which /healthz names.
func TestServeGateRefusal(t *testing.T) {
	ztA, _ := models(t)
	// A private copy of A's weights whose throughput underflows to zero: a
	// q-error against zero is unbounded.
	var buf bytes.Buffer
	if err := ztA.Save(&buf); err != nil {
		t.Fatal(err)
	}
	copyA, err := core.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	refused := &core.ZeroTune{Model: copyA.Model, Mask: copyA.Mask}
	head := refused.Model.TptHead.Layers
	head[len(head)-1].B[0] -= 400

	s := serve.New(serve.Options{})
	t.Cleanup(s.Close)
	if _, err := s.ServeModelFile(saveModel(t, ztA, "a.json")); err != nil {
		t.Fatal(err)
	}
	c := client.NewForHandler(s)
	engine := func() string {
		t.Helper()
		h, err := c.Health(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return h.Model.Engine
	}
	if got := engine(); got != "f32" {
		t.Fatalf("loaded model serves on %q, want f32", got)
	}

	_, err = c.Reload(context.Background(), &serve.ReloadRequest{Path: saveModel(t, refused, "refused.json")})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Code != "invalid_model" || !strings.Contains(err.Error(), "accuracy gate") {
		t.Fatalf("reload of a gate-refused file: %v, want invalid_model naming the accuracy gate", err)
	}
	if got := engine(); got != "f32" {
		t.Fatalf("after the refused reload the server is on %q, want f32", got)
	}

	s.Registry().Install(refused, "refused", "")
	if got := engine(); got != "f64" {
		t.Fatalf("installed hand-built model serves on %q, want f64", got)
	}
}

// TestServeBodyCacheRepeatBytes: a cold answer and its byte-identical
// repeat, served from the body cache, differ only in the cached flag — also
// under a model ID that HTML escaping would rewrite, which the repeat must
// spell as the first answer did.
func TestServeBodyCacheRepeatBytes(t *testing.T) {
	zt, _ := models(t)
	body := predictBody(t, 3, 40_000)
	for _, id := range []string{"test-a", "a&b<c"} {
		s := serve.New(serve.Options{})
		s.Registry().Install(zt, id, "")
		ts := httptest.NewServer(s)
		post := func() []byte {
			t.Helper()
			resp, err := http.Post(predictURL(ts), "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var out bytes.Buffer
			if _, err := out.ReadFrom(resp.Body); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d: %s", id, resp.StatusCode, out.Bytes())
			}
			return out.Bytes()
		}
		cold, repeat := post(), post()
		ts.Close()
		s.Close()
		if !bytes.Contains(cold, []byte(`"model_id":"`+id+`"`)) {
			t.Errorf("%s: cold answer does not spell the model ID as installed: %s", id, cold)
		}
		want := bytes.Replace(cold, []byte(`"cached":false`), []byte(`"cached":true`), 1)
		if bytes.Equal(want, cold) || !bytes.Equal(repeat, want) {
			t.Errorf("%s: repeat differs from the cold answer beyond the cached flag:\ncold   %s\nrepeat %s", id, cold, repeat)
		}
	}
}

// TestServeBodyCacheRepeat verifies a byte-identical repeat is answered from
// the body-level response cache (Cached=true, BodyHits advances) and that a
// model swap invalidates it — the repeat after a reload must carry the new
// model's ID, never a stale cached answer.
func TestServeBodyCacheRepeat(t *testing.T) {
	ztA, ztB := models(t)
	pathA, pathB := saveModel(t, ztA, "a.json"), saveModel(t, ztB, "b.json")

	s := serve.New(serve.Options{})
	if _, err := s.ServeModelFile(pathA); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })

	req := serve.PredictRequest{Plan: testPlan(2, 30_000), Cluster: serve.ClusterSpec{Workers: 4, LinkGbps: 10}}
	var first serve.PredictResponse
	if code := postJSON(t, predictURL(ts), &req, &first); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	before := s.Snapshot().BodyHits
	var second serve.PredictResponse
	if code := postJSON(t, predictURL(ts), &req, &second); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if got := s.Snapshot().BodyHits; got != before+1 {
		t.Fatalf("BodyHits %d → %d, want +1", before, got)
	}
	if !second.Cached {
		t.Fatal("body-cache repeat not flagged Cached")
	}
	if second.ModelID != first.ModelID {
		t.Fatalf("cached answer switched models: %q vs %q", second.ModelID, first.ModelID)
	}
	if second.LatencyMs != first.LatencyMs || second.ThroughputEPS != first.ThroughputEPS {
		t.Fatalf("cached answer drifted: %+v vs %+v", second, first)
	}

	var rl serve.ReloadResponse
	if code := postJSON(t, ts.URL+"/v1/reload", &serve.ReloadRequest{Path: pathB}, &rl); code != http.StatusOK {
		t.Fatalf("reload status %d", code)
	}
	var after serve.PredictResponse
	if code := postJSON(t, predictURL(ts), &req, &after); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if after.ModelID == first.ModelID {
		t.Fatal("body cache served a stale model's response after reload")
	}
	if after.Cached {
		t.Fatal("first request after swap claims to be cached")
	}
}
