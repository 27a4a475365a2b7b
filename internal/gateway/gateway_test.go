package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"zerotune/internal/core"
	"zerotune/internal/obs"
	"zerotune/internal/queryplan"
	"zerotune/internal/serve"
	"zerotune/internal/workload"
)

var (
	modelOnce sync.Once
	testModel *core.ZeroTune
	modelErr  error
)

// model trains one tiny model for the package (same recipe as serve's e2e
// suite: enough capacity to answer, small enough to train in seconds).
func model(t *testing.T) *core.ZeroTune {
	t.Helper()
	modelOnce.Do(func() {
		gen := workload.NewSeenGenerator(7)
		items, err := gen.Generate(workload.SeenRanges().Structures, 60)
		if err != nil {
			modelErr = err
			return
		}
		opts := core.DefaultTrainOptions()
		opts.Hidden, opts.EncDepth, opts.HeadHidden = 12, 1, 12
		opts.Epochs = 3
		opts.Seed = 7
		testModel, _, modelErr = core.Train(context.Background(), items, opts)
	})
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	return testModel
}

// newReplicaSet builds n in-process serve replicas sharing one trained
// model.
func newReplicaSet(t *testing.T, n int) []*serve.InProcessBackend {
	t.Helper()
	zt := model(t)
	var out []*serve.InProcessBackend
	for i := 0; i < n; i++ {
		s := serve.New(serve.Options{})
		s.Registry().Install(zt, fmt.Sprintf("m-%d", i), "")
		t.Cleanup(s.Close)
		out = append(out, serve.NewInProcessBackend(fmt.Sprintf("replica-%d", i), s))
	}
	return out
}

func asBackends(reps []*serve.InProcessBackend) []serve.Backend {
	out := make([]serve.Backend, len(reps))
	for i, r := range reps {
		out[i] = r
	}
	return out
}

// predictBody builds a /v1/predict payload for a spike-detection plan; the
// degree varies the body bytes so affinity keys spread over the pool.
func predictBody(t *testing.T, degree int) []byte {
	t.Helper()
	q := queryplan.SpikeDetection(10_000)
	p := queryplan.NewPQP(q)
	if degree > 1 {
		for _, o := range q.Ops {
			p.SetDegree(o.ID, degree)
		}
	}
	body, err := json.Marshal(serve.PredictRequest{
		Plan:    p,
		Cluster: serve.ClusterSpec{Workers: 4, LinkGbps: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// envelope is the stable error shape every non-200 must wear.
type envelope struct {
	Error serve.ErrorBody `json:"error"`
}

// checkEnvelope asserts a non-200 response body is the stable envelope with
// a known code.
func checkEnvelope(t *testing.T, status int, body []byte, known map[string]bool) {
	t.Helper()
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code == "" {
		t.Fatalf("status %d response is not the stable envelope: %s", status, body)
	}
	if !known[env.Error.Code] {
		t.Fatalf("status %d carries unknown error code %q (body %s)", status, env.Error.Code, body)
	}
}

func knownCodes() map[string]bool {
	m := map[string]bool{}
	for _, c := range serve.KnownErrorCodes() {
		m[c] = true
	}
	return m
}

// TestGatewayE2E is the acceptance scenario: 3 replicas behind an affinity
// gateway, 200 predictions across two SLO classes, one replica hard-killed
// mid-run and revived. Every non-200 wears the envelope, spillover fires
// while the owner is down, and the pool re-converges.
func TestGatewayE2E(t *testing.T) {
	reps := newReplicaSet(t, 3)
	g, err := New(asBackends(reps), Options{
		ProbeInterval: -1, // probes driven manually for determinism
		FailThreshold: 2,
		Classes: []ClassConfig{
			{Name: "gold", Priority: 10},
			{Name: "best-effort"},
		},
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ts := httptest.NewServer(g)
	defer ts.Close()

	known := knownCodes()
	client := ts.Client()
	post := func(body []byte, class string) (int, []byte, string) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if class != "" {
			req.Header.Set(serve.SLOClassHeader, class)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, data, resp.Header.Get("X-Gateway-Replica")
	}

	classes := []string{"gold", "best-effort"}
	ok, errs := 0, 0
	for i := 0; i < 200; i++ {
		if i == 80 {
			reps[0].SetDown(true) // SIGKILL-equivalent mid-run
		}
		if i == 160 {
			reps[0].SetDown(false)
			// Replica 0 was ejected by forward failures; probe rounds bring
			// it back once its backoff elapses.
			for r := 0; r < 200 && g.pool.HealthyCount() < 3; r++ {
				g.pool.Probe(context.Background())
			}
		}
		status, body, via := post(predictBody(t, 1+i%16), classes[i%2])
		switch {
		case status == http.StatusOK:
			ok++
			if via == "" {
				t.Fatal("200 response without an X-Gateway-Replica header")
			}
		default:
			errs++
			checkEnvelope(t, status, body, known)
		}
	}
	if ok == 0 {
		t.Fatal("no prediction succeeded")
	}
	// Retries mask the replica loss: with 2 retries and 2 healthy replicas
	// every request should find a live backend.
	if errs > 0 {
		t.Logf("note: %d requests errored (all wore the envelope)", errs)
	}
	if g.pool.HealthyCount() != 3 {
		t.Fatalf("pool did not re-converge: %d/3 healthy", g.pool.HealthyCount())
	}
	if g.spillover.Load() == 0 {
		t.Fatal("no spillover recorded while an affinity owner was down")
	}
	if reps[0].Server() == nil {
		t.Fatal("lost the wrapped server")
	}

	// Observability: the metrics endpoint exports the fairness gauge and
	// per-replica health; the digest summarizes both classes.
	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"zerotune_gateway_fairness_jain",
		"zerotune_gateway_spillover_total",
		`zerotune_gateway_replica_ejections_total{replica="replica-0"}`,
		`zerotune_gateway_class_goodput_total{class="gold"}`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("/metrics missing %s", want)
		}
	}
	// The page is strictly parseable, its histograms consistent, and the
	// whole-run quantile series the repo benchmark scrapes are on it.
	samples, err := obs.ParseText(bytes.NewReader(metrics))
	if err != nil {
		t.Fatalf("/metrics failed strict parse: %v", err)
	}
	if err := obs.CheckHistograms(samples); err != nil {
		t.Fatal(err)
	}
	// The Go runtime's series are beside the gateway's own.
	for _, name := range []string{obs.RuntimeGoroutinesMetric, obs.RuntimeHeapLiveMetric} {
		if v, ok := obs.FindSample(samples, name); !ok || v <= 0 {
			t.Fatalf("/metrics: %s = %v (present=%v), want a positive gauge", name, v, ok)
		}
	}
	for _, name := range []string{obs.RuntimeGCPauseMetric, obs.RuntimeSchedLatencyMetric} {
		if _, ok := obs.FindSample(samples, name+"_bucket", obs.L("le", "+Inf")); !ok {
			t.Fatalf("/metrics missing histogram %s", name)
		}
	}
	if n, _ := obs.FindSample(samples, "zerotune_gateway_request_duration_seconds_count", obs.L("endpoint", "predict")); n != 200 {
		t.Fatalf("gateway timed %v predict requests, sent 200", n)
	}
	for _, q := range []string{"0.5", "0.9", "0.99"} {
		for _, name := range []string{"zerotune_gateway_queue_wait_seconds", "zerotune_gateway_request_duration_seconds", "zerotune_gateway_forward_duration_seconds", SelfMetric} {
			if _, ok := obs.FindSample(samples, name, obs.L("quantile", q)); !ok {
				t.Fatalf("/metrics missing %s{quantile=%q}", name, q)
			}
		}
	}
	// What a request cost the gateway itself is observed once per proxied
	// request and is a part of that request's time, not all of it.
	whole, _ := obs.FindHistogram(samples, "zerotune_gateway_request_duration_seconds", obs.L("endpoint", "predict"))
	if self, _ := obs.FindHistogram(samples, SelfMetric); self.Count != 200 || self.Sum <= 0 || self.Sum >= whole.Sum {
		t.Fatalf("%s: %d observations summing to %gs of the %gs 200 requests took", SelfMetric, self.Count, self.Sum, whole.Sum)
	}
	sum := g.Summary()
	for _, want := range []string{"class gold", "class best-effort", "fairness="} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary missing %q:\n%s", want, sum)
		}
	}

	// Both classes saw traffic evenly → Jain's index near 1. (gold and
	// best-effort alternate strictly, so goodput differs by at most the
	// error count plus one.)
	if j := g.adm.jainFairness(); j < 0.9 {
		t.Fatalf("fairness index %f for an even class split", j)
	}

	// /healthz reflects the converged pool.
	resp, err = client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hr HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hr.Status != "ok" || len(hr.Replicas) != 3 {
		t.Fatalf("healthz = %+v, want ok with 3 replicas", hr)
	}
}

// TestGatewayAffinityRoutesStable: byte-identical bodies land on the same
// replica across requests (the property that shards replica caches).
func TestGatewayAffinityRoutesStable(t *testing.T) {
	reps := newReplicaSet(t, 3)
	g, err := New(asBackends(reps), Options{ProbeInterval: -1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ts := httptest.NewServer(g)
	defer ts.Close()

	via := map[int]string{}
	for round := 0; round < 3; round++ {
		for d := 1; d <= 8; d++ {
			resp, err := http.Post(ts.URL+"/v1/predict", "application/json",
				bytes.NewReader(predictBody(t, d)))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Fatalf("degree %d: status %d", d, resp.StatusCode)
			}
			got := resp.Header.Get("X-Gateway-Replica")
			if prev, seen := via[d]; seen && prev != got {
				t.Fatalf("degree %d moved from %s to %s with a healthy pool", d, prev, got)
			}
			via[d] = got
		}
	}
	distinct := map[string]bool{}
	for _, v := range via {
		distinct[v] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("8 distinct bodies all routed to one replica: %v", via)
	}
}

// TestAdmissionTokenBucket: a rate-limited class is admitted up to its
// burst, rejected with 429 admission_rejected beyond it, and refills with
// the (injected) clock; a class configured without a burst gets its rate as
// one, and a class header naming no configured class is best-effort.
func TestAdmissionTokenBucket(t *testing.T) {
	reps := newReplicaSet(t, 1)
	now := time.Unix(1000, 0)
	g, err := New(asBackends(reps), Options{
		ProbeInterval: -1,
		Classes: []ClassConfig{
			{Name: "gold", Rate: 10, Burst: 3},
			{Name: "bronze", Rate: 2},
		},
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.now = func() time.Time { return now }
	defer g.Close()
	ts := httptest.NewServer(g)
	defer ts.Close()

	known := knownCodes()
	post := func(class string) (int, []byte) {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict",
			bytes.NewReader(predictBody(t, 1)))
		req.Header.Set(serve.SLOClassHeader, class)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, data
	}

	for i := 0; i < 3; i++ {
		if status, body := post("gold"); status != 200 {
			t.Fatalf("burst request %d: status %d (%s)", i, status, body)
		}
	}
	status, body := post("gold")
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-burst request: status %d, want 429", status)
	}
	checkEnvelope(t, status, body, known)
	var env envelope
	_ = json.Unmarshal(body, &env)
	if env.Error.Code != "admission_rejected" {
		t.Fatalf("over-burst code %q, want admission_rejected", env.Error.Code)
	}

	// Unlabelled traffic and an unconfigured class are best-effort
	// (unlimited) and unaffected.
	for _, class := range []string{"", "unconfigured"} {
		if status, body := post(class); status != 200 {
			t.Fatalf("best-effort request (class %q): status %d (%s)", class, status, body)
		}
	}

	// bronze, configured without a burst, holds Rate = 2 tokens.
	for i, want := range []int{200, 200, http.StatusTooManyRequests} {
		if status, _ := post("bronze"); status != want {
			t.Fatalf("bronze request %d: status %d, want %d", i, status, want)
		}
	}

	// 200ms of refill at 10 rps buys exactly 2 more tokens.
	now = now.Add(200 * time.Millisecond)
	for i := 0; i < 2; i++ {
		if status, _ := post("gold"); status != 200 {
			t.Fatalf("post-refill request %d: status %d", i, status)
		}
	}
	if status, _ := post("gold"); status != http.StatusTooManyRequests {
		t.Fatalf("third post-refill request: status %d, want 429", status)
	}
}

// TestDispatchQueueOrdering: with one busy slot, parked waiters drain
// higher class priority first, arrival order within a priority — so equal
// priorities, the default, drain first come, first served.
func TestDispatchQueueOrdering(t *testing.T) {
	cases := []struct {
		name  string
		prios []int // one parked waiter each, in arrival order
		order []int // indices into prios, expected drain order
	}{
		{"fcfs", []int{0, 0, 0, 0}, []int{0, 1, 2, 3}},
		{"priority", []int{1, 5, 1, 9}, []int{3, 1, 0, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := newDispatchQueue(1, 16)
			if err := q.acquire(context.Background(), 0); err != nil {
				t.Fatal(err)
			}
			got := make(chan int, len(tc.prios))
			var wg sync.WaitGroup
			for i, prio := range tc.prios {
				wg.Add(1)
				go func(i, prio int) {
					defer wg.Done()
					if err := q.acquire(context.Background(), prio); err != nil {
						t.Error(err)
						return
					}
					got <- i
					q.release()
				}(i, prio)
				// Park deterministically: wait until this waiter is in the heap
				// before launching the next, so seq order equals arrival order.
				for q.depth() != i+1 {
					time.Sleep(100 * time.Microsecond)
				}
			}
			q.release() // free the slot; the queue drains itself in priority order
			wg.Wait()
			close(got)
			var order []int
			for i := range got {
				order = append(order, i)
			}
			for i, want := range tc.order {
				if order[i] != want {
					t.Fatalf("drain order %v, want %v", order, tc.order)
				}
			}
		})
	}
}

// TestDispatchQueueFullAndCancel: a full wait line rejects with the
// queue-full sentinel; a parked waiter honors context cancellation.
func TestDispatchQueueFullAndCancel(t *testing.T) {
	q := newDispatchQueue(1, 1)
	if err := q.acquire(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	parked := make(chan error, 1)
	ctx, cancel := context.WithCancel(context.Background())
	go func() { parked <- q.acquire(ctx, 0) }()
	for q.depth() != 1 {
		time.Sleep(100 * time.Microsecond)
	}
	if err := q.acquire(context.Background(), 0); err != serve.ErrQueueFull {
		t.Fatalf("full wait line returned %v, want serve.ErrQueueFull", err)
	}
	cancel()
	if err := <-parked; err != context.Canceled {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
	}
	// The slot is still held by the first acquire; releasing leaves an empty,
	// usable queue.
	q.release()
	if err := q.acquire(context.Background(), 0); err != nil {
		t.Fatalf("queue unusable after cancel: %v", err)
	}
}

// TestJainFairnessIndex: the gauge is 1 for equal goodput, 1/n when one
// class monopolizes, and 1 with no traffic.
func TestJainFairnessIndex(t *testing.T) {
	reps := newReplicaSet(t, 1)
	g, err := New(asBackends(reps), Options{
		ProbeInterval: -1,
		Classes:       []ClassConfig{{Name: "a"}, {Name: "b"}},
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	if j := g.adm.jainFairness(); j != 1 {
		t.Fatalf("no-traffic fairness = %f, want 1", j)
	}
	for i := 0; i < 10; i++ {
		g.adm.classes["a"].goodput.Inc()
	}
	// 3 classes (a, b, auto-appended best-effort), one with all goodput.
	want := 1.0 / 3
	if j := g.adm.jainFairness(); j < want-1e-9 || j > want+1e-9 {
		t.Fatalf("monopoly fairness = %f, want %f", j, want)
	}
	for i := 0; i < 10; i++ {
		g.adm.classes["b"].goodput.Inc()
		g.adm.classes[DefaultClassName].goodput.Inc()
	}
	if j := g.adm.jainFairness(); j != 1 {
		t.Fatalf("equal-goodput fairness = %f, want 1", j)
	}
}

// TestGatewayValidation: construction rejects broken configurations.
func TestGatewayValidation(t *testing.T) {
	reps := newReplicaSet(t, 1)
	if _, err := New(nil, Options{}); err == nil {
		t.Fatal("New accepted an empty pool")
	}
	dup := []serve.Backend{reps[0], reps[0]}
	if _, err := New(dup, Options{}); err == nil {
		t.Fatal("New accepted duplicate backend names")
	}
	for _, cfg := range []ClassConfig{
		{Name: "x", Rate: math.NaN()},
		{Name: "x", Rate: 10, Burst: math.NaN()},
	} {
		if _, err := New(asBackends(reps), Options{Classes: []ClassConfig{cfg}}); err == nil {
			t.Errorf("New accepted SLO class %+v, whose budget is not a number", cfg)
		}
	}
	if _, err := New(asBackends(reps), Options{Classes: []ClassConfig{{Name: "x"}, {Name: "x"}}}); err == nil {
		t.Fatal("New accepted duplicate SLO classes")
	}
}

// TestGatewayUnroutedWearsEnvelope: a request no gateway route takes gets the
// envelope, as a replica's would: a wrong method is 405 with the methods the
// path takes in Allow, an unknown path (the gateway does not proxy
// /v1/reload) is 404.
func TestGatewayUnroutedWearsEnvelope(t *testing.T) {
	g, err := New(asBackends(newReplicaSet(t, 1)), Options{ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for _, c := range []struct {
		method, path string
		status       int
		code, allow  string
	}{
		{http.MethodGet, "/v1/predict", http.StatusMethodNotAllowed, "method_not_allowed", "POST"},
		{http.MethodDelete, "/healthz", http.StatusMethodNotAllowed, "method_not_allowed", "GET, HEAD"},
		{http.MethodPost, "/v1/reload", http.StatusNotFound, "not_found", ""},
		{http.MethodPost, "/v2/predict", http.StatusNotFound, "not_found", ""},
		{http.MethodPost, "/v1/feedback", http.StatusNotFound, "not_found", ""},
	} {
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, nil))
		var env envelope
		err := json.Unmarshal(rec.Body.Bytes(), &env)
		if err != nil || rec.Code != c.status || env.Error.Code != c.code || rec.Header().Get("Allow") != c.allow {
			t.Errorf("%s %s: %d Allow %q %s, want %d %q Allow %q", c.method, c.path,
				rec.Code, rec.Header().Get("Allow"), rec.Body, c.status, c.code, c.allow)
		}
	}
}
