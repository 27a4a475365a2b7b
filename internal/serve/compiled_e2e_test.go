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
	"strings"
	"testing"

	"zerotune/internal/client"
	"zerotune/internal/core"
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
		if cm == nil {
			t.Fatalf("%s: served model has no compiled engine", stage)
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

// TestServeGateRefusal: a model the accuracy gate refuses is an invalid file
// on the load path (422, the old revision keeps serving on the engine) and a
// reference-path revision when installed in memory, which /healthz names.
func TestServeGateRefusal(t *testing.T) {
	ztA, _ := models(t)
	// A private copy of A whose throughput underflows to zero: finite, so the
	// load probe passes, but a q-error against zero is unbounded.
	var buf bytes.Buffer
	if err := ztA.Save(&buf); err != nil {
		t.Fatal(err)
	}
	refused, err := core.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
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
	if !errors.Is(err, client.ErrInvalidModel) || !strings.Contains(err.Error(), "accuracy gate") {
		t.Fatalf("reload of a gate-refused file: %v, want invalid_model naming the accuracy gate", err)
	}
	if got := engine(); got != "f32" {
		t.Fatalf("after the refused reload the server is on %q, want f32", got)
	}

	s.Registry().Install(refused, "refused", "")
	if got := engine(); got != "reference" {
		t.Fatalf("installed gate-refused model serves on %q, want reference", got)
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
