package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"zerotune/internal/client"
	"zerotune/internal/obs"
	"zerotune/internal/serve"
)

// replicas builds n serve replicas sharing the package model, each fronted
// by the gateway as a remote *client.Client over an httptest server or as an
// in-process backend, named replica-0 … replica-(n-1) either way.
func replicas(t *testing.T, n int, remote bool, opts serve.Options) ([]*serve.Server, []*httptest.Server, []serve.Backend) {
	t.Helper()
	zt := model(t)
	var (
		servers  []*serve.Server
		hss      []*httptest.Server
		backends []serve.Backend
	)
	for i := 0; i < n; i++ {
		s := serve.New(opts)
		s.Registry().Install(zt, fmt.Sprintf("m-%d", i), "")
		t.Cleanup(s.Close)
		servers = append(servers, s)
		name := fmt.Sprintf("replica-%d", i)
		if !remote {
			backends = append(backends, serve.NewInProcessBackend(name, s))
			continue
		}
		hs := httptest.NewServer(s)
		t.Cleanup(hs.Close)
		c, err := client.New(hs.URL)
		if err != nil {
			t.Fatal(err)
		}
		hss = append(hss, hs)
		backends = append(backends, c.Named(name))
	}
	return servers, hss, backends
}

// TestGatewayForwardsSLOClass: the class a client declares reaches the
// replica with the forward, so feedback proxied through the gateway is
// recorded under it — over in-process replicas and over HTTP ones.
func TestGatewayForwardsSLOClass(t *testing.T) {
	ctx := context.Background()
	gold := serve.WithSLOClass(ctx, "gold")
	for _, remote := range []bool{false, true} {
		t.Run(fmt.Sprintf("remote=%v", remote), func(t *testing.T) {
			servers, _, backends := replicas(t, 2, remote, serve.Options{Learn: &serve.LearnOptions{}})
			g, err := New(backends, Options{ProbeInterval: -1, Classes: []ClassConfig{{Name: "gold"}}})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			var req serve.PredictRequest
			if err := json.Unmarshal(predictBody(t, 2), &req); err != nil {
				t.Fatal(err)
			}
			// The gateway is reached over HTTP, so the class arrives as a
			// header only and must be put back on each forward's context.
			gs := httptest.NewServer(g)
			defer gs.Close()
			gc, err := client.New(gs.URL)
			if err != nil {
				t.Fatal(err)
			}
			pred, err := gc.Predict(gold, &req)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := gc.Feedback(gold, &serve.FeedbackRequest{
				Fingerprint: pred.Fingerprint, ObservedLatencyMs: 2 * pred.LatencyMs, ObservedThroughputEPS: pred.ThroughputEPS,
			}); err != nil {
				t.Fatal(err)
			}
			var classes []string
			for _, s := range servers {
				for _, smp := range s.FeedbackStore().Snapshot() {
					classes = append(classes, smp.Class)
				}
			}
			if len(classes) != 1 || classes[0] != "gold" {
				t.Fatalf("replicas recorded feedback under classes %q, want [gold]", classes)
			}
		})
	}
}

// TestGatewayFeedbackFindsThePredictingReplica: feedback is routed by its own
// body, not the predict's, so it usually lands on a replica that never served
// the plan. That replica's 404 unknown_fingerprint sends the gateway on to the
// rest of the pool, and the feedback is recorded where the predict ran.
func TestGatewayFeedbackFindsThePredictingReplica(t *testing.T) {
	servers, _, backends := replicas(t, 3, false, serve.Options{Learn: &serve.LearnOptions{}})
	g, err := New(backends, Options{ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	byName := map[string]*serve.Server{}
	for i, b := range backends {
		byName[b.Name()] = servers[i]
	}
	forward := func(path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}
	const posts = 8
	for i := 1; i <= posts; i++ {
		rec := forward("/v1/predict", predictBody(t, i))
		var pred serve.PredictResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &pred); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("predict %d: %d %s", i, rec.Code, rec.Body)
		}
		owner := byName[rec.Header().Get("X-Gateway-Replica")]
		if owner == nil {
			t.Fatalf("predict %d names no replica: %q", i, rec.Header().Get("X-Gateway-Replica"))
		}
		fb, err := json.Marshal(serve.FeedbackRequest{
			Fingerprint: pred.Fingerprint, ObservedLatencyMs: 2 * pred.LatencyMs, ObservedThroughputEPS: pred.ThroughputEPS,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rec := forward("/v1/feedback", fb); rec.Code != http.StatusOK {
			t.Fatalf("feedback %d: %d %s", i, rec.Code, rec.Body)
		}
		recorded := false
		for _, smp := range owner.FeedbackStore().Snapshot() {
			recorded = recorded || smp.Fingerprint == pred.Fingerprint
		}
		if !recorded {
			t.Errorf("feedback %d is not recorded on %s, which served its predict", i, rec.Header().Get("X-Gateway-Replica"))
		}
	}
	// A fingerprint no replica holds: every replica is asked, none ejected,
	// and the last 404 passes through.
	fb := []byte(`{"fingerprint":"` + strings.Repeat("ab", 16) + `","observed_latency_ms":1,"observed_throughput_eps":1}`)
	rec := forward("/v1/feedback", fb)
	var env envelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusNotFound || env.Error.Code != "unknown_fingerprint" {
		t.Fatalf("unheld fingerprint: %d %s", rec.Code, rec.Body)
	}
	if n := g.Pool().HealthyCount(); n != len(backends) {
		t.Fatalf("%d of %d replicas healthy after unknown-fingerprint answers", n, len(backends))
	}
}

// TestGatewayOverHTTPReplicas: three replicas behind a gateway over
// *client.Client backends take 200 predictions across two classes, and one
// replica's server closes a third of the way in. Every failure wears the
// envelope; the survivors answer; the dead replica is ejected and its
// affinity keys spill; /healthz says degraded.
func TestGatewayOverHTTPReplicas(t *testing.T) {
	_, hss, backends := replicas(t, 3, true, serve.Options{})
	g, err := New(backends, Options{
		Classes: []ClassConfig{
			{Name: "gold", Rate: 500, Burst: 500, Priority: 10},
			{Name: "best-effort"},
		},
		ProbeInterval: -1,
		FailThreshold: 2,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	get := func(path string) []byte {
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Body.Bytes()
	}

	known := knownCodes()
	ok, answering := 0, map[string]bool{}
	for i := 0; i < 200; i++ {
		if i == 66 {
			hss[1].Close()
		}
		ctx := serve.WithSLOClass(context.Background(), []string{"gold", "best-effort"}[i%2])
		req, err := serve.NewRequest(ctx, "", "/v1/predict", predictBody(t, 1+i%4))
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			checkEnvelope(t, rec.Code, rec.Body.Bytes(), known)
			continue
		}
		if !bytes.Contains(rec.Body.Bytes(), []byte("latency_ms")) {
			t.Fatalf("200 without a prediction: %s", rec.Body)
		}
		ok++
		answering[rec.Header().Get("X-Gateway-Replica")] = true
	}
	if ok == 0 {
		t.Fatal("no prediction succeeded")
	}
	if len(answering) < 2 {
		t.Fatalf("traffic never spread past one replica: %v", answering)
	}

	samples, err := obs.ParseText(bytes.NewReader(get("/metrics")))
	if err != nil {
		t.Fatal(err)
	}
	if _, found := obs.FindSample(samples, "zerotune_gateway_fairness_jain"); !found {
		t.Error("/metrics: no fairness gauge")
	}
	if v, _ := obs.FindSample(samples, "zerotune_gateway_spillover_total"); v <= 0 {
		t.Error("/metrics: no spillover while an affinity owner was dead")
	}
	if v, _ := obs.FindSample(samples, "zerotune_gateway_replica_ejections_total", obs.L("replica", "replica-1")); v <= 0 {
		t.Error("/metrics: the dead replica-1 was never ejected")
	}
	var hr HealthResponse
	if err := json.Unmarshal(get("/healthz"), &hr); err != nil || hr.Status != "degraded" {
		t.Errorf("/healthz = %+v (%v), want degraded", hr, err)
	}
	if sum := g.Summary(); !strings.Contains(sum, "class gold") {
		t.Errorf("summary names no class gold:\n%s", sum)
	}
}
