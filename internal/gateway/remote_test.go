package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"zerotune/internal/client"
	"zerotune/internal/obs"
	"zerotune/internal/serve"
)

// httpReplicas builds n serve replicas sharing the package model, each
// behind an httptest server and fronted as a remote *client.Client named
// replica-0 … replica-(n-1).
func httpReplicas(t *testing.T, n int) ([]*httptest.Server, []serve.Backend) {
	t.Helper()
	zt := model(t)
	var (
		hss      []*httptest.Server
		backends []serve.Backend
	)
	for i := 0; i < n; i++ {
		s := serve.New(serve.Options{})
		s.Registry().Install(zt, fmt.Sprintf("m-%d", i), "")
		t.Cleanup(s.Close)
		hs := httptest.NewServer(s)
		t.Cleanup(hs.Close)
		c, err := client.New(hs.URL)
		if err != nil {
			t.Fatal(err)
		}
		hss = append(hss, hs)
		backends = append(backends, c.Named(fmt.Sprintf("replica-%d", i)))
	}
	return hss, backends
}

// handlerBackend is an in-process replica answered by any handler.
type handlerBackend struct {
	name string
	h    http.Handler
}

func (b handlerBackend) Name() string { return b.name }

func (b handlerBackend) Call(ctx context.Context, path string, body []byte) (int, []byte, error) {
	return serve.ServeInProcess(ctx, b.h, path, body, false)
}

// TestGatewayForwardsSLOClass: the class a client declares reaches the
// replica's handler as the X-SLO-Class header of the forward, and a request
// without one arrives without one — over an in-process replica and over an
// HTTP one.
func TestGatewayForwardsSLOClass(t *testing.T) {
	ctx := context.Background()
	for _, remote := range []bool{false, true} {
		t.Run(fmt.Sprintf("remote=%v", remote), func(t *testing.T) {
			s := serve.New(serve.Options{})
			s.Registry().Install(model(t), "m", "")
			t.Cleanup(s.Close)
			var (
				mu      sync.Mutex
				classes []string
			)
			h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/predict" {
					mu.Lock()
					classes = append(classes, r.Header.Get(serve.SLOClassHeader))
					mu.Unlock()
				}
				s.ServeHTTP(w, r)
			})
			var b serve.Backend = handlerBackend{"replica-0", h}
			if remote {
				hs := httptest.NewServer(h)
				defer hs.Close()
				c, err := client.New(hs.URL)
				if err != nil {
					t.Fatal(err)
				}
				b = c.Named("replica-0")
			}
			g, err := New([]serve.Backend{b}, Options{ProbeInterval: -1, Classes: []ClassConfig{{Name: "gold"}}})
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
			for _, c := range []context.Context{serve.WithSLOClass(ctx, "gold"), ctx} {
				if _, err := gc.Predict(c, &req); err != nil {
					t.Fatal(err)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if len(classes) != 2 || classes[0] != "gold" || classes[1] != "" {
				t.Fatalf("replica saw classes %q, want [gold \"\"]", classes)
			}
		})
	}
}

// TestGatewayOverHTTPReplicas: three replicas behind a gateway over
// *client.Client backends take 200 predictions across two classes, and one
// replica's server closes a third of the way in. Every failure wears the
// envelope; the survivors answer; the dead replica is ejected and its
// affinity keys spill; /healthz says degraded.
func TestGatewayOverHTTPReplicas(t *testing.T) {
	hss, backends := httpReplicas(t, 3)
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
