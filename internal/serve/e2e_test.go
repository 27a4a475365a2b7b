// End-to-end tests for the serving layer: real HTTP round-trips against a
// small trained model, exercising wire decoding, micro-batch coalescing,
// fingerprint caching, single-flight dedup and hot model reload — the
// acceptance criteria of the serving subsystem. Run with -race.
package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"zerotune/internal/cluster"
	"zerotune/internal/core"
	"zerotune/internal/fault"
	"zerotune/internal/gnn"
	"zerotune/internal/optimizer"
	"zerotune/internal/queryplan"
	"zerotune/internal/serve"
	"zerotune/internal/workload"
)

var (
	modelOnce      sync.Once
	modelA, modelB *core.ZeroTune
	modelErr       error
)

// models trains two small distinct models once for the package: A is the
// primary served model, B the hot-swap target.
func models(t *testing.T) (*core.ZeroTune, *core.ZeroTune) {
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
		if modelA, _, modelErr = core.Train(context.Background(), items, opts); modelErr != nil {
			return
		}
		opts.Seed = 99
		opts.Epochs = 2
		modelB, _, modelErr = core.Train(context.Background(), items, opts)
	})
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	return modelA, modelB
}

func saveModel(t *testing.T, zt *core.ZeroTune, name string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := zt.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// newTestServer builds a server with model A installed in-memory.
func newTestServer(t *testing.T, opts serve.Options) (*serve.Server, *httptest.Server) {
	t.Helper()
	zt, _ := models(t)
	s := serve.New(opts)
	s.Registry().Install(zt, "test-a", "")
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// testCluster mirrors the wire shorthand {workers: 4, link_gbps: 10}.
func testCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(4, cluster.SeenTypes(), 10)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// testPlan builds a spike-detection plan at a uniform degree.
func testPlan(degree int, rate float64) *queryplan.PQP {
	q := queryplan.SpikeDetection(rate)
	p := queryplan.NewPQP(q)
	if degree > 1 {
		for _, o := range q.Ops {
			p.SetDegree(o.ID, degree)
		}
	}
	return p
}

// tryPost is goroutine-safe (no t.Fatal): POST body as JSON, decode a 200
// response into out.
func tryPost(url string, body, out any) (int, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(payload, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decode %s: %w (%s)", url, err, payload)
		}
	}
	return resp.StatusCode, nil
}

func postJSON(t *testing.T, url string, body, out any) int {
	t.Helper()
	code, err := tryPost(url, body, out)
	if err != nil {
		t.Fatal(err)
	}
	return code
}

func predictURL(ts *httptest.Server) string { return ts.URL + "/v1/predict" }

func TestServePredictMatchesDirect(t *testing.T) {
	zt, _ := models(t)
	_, ts := newTestServer(t, serve.Options{})

	req := serve.PredictRequest{Plan: testPlan(2, 10_000), Cluster: serve.ClusterSpec{Workers: 4, LinkGbps: 10}}
	var got serve.PredictResponse
	if code := postJSON(t, predictURL(ts), &req, &got); code != http.StatusOK {
		t.Fatalf("predict: status %d", code)
	}
	want, err := zt.Predict(context.Background(), testPlan(2, 10_000), testCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	if got.LatencyMs != want.LatencyMs || got.ThroughputEPS != want.ThroughputEPS {
		t.Fatalf("served (%v, %v) != direct (%v, %v)",
			got.LatencyMs, got.ThroughputEPS, want.LatencyMs, want.ThroughputEPS)
	}
	if got.Cached {
		t.Fatal("first request reported cached")
	}

	// The cached path must return the identical numbers.
	var cached serve.PredictResponse
	if code := postJSON(t, predictURL(ts), &req, &cached); code != http.StatusOK {
		t.Fatalf("cached predict: status %d", code)
	}
	if !cached.Cached {
		t.Fatal("second identical request missed the cache")
	}
	if cached.LatencyMs != want.LatencyMs || cached.ThroughputEPS != want.ThroughputEPS {
		t.Fatal("cached prediction differs from direct prediction")
	}
}

func TestServeTuneMatchesDirect(t *testing.T) {
	zt, _ := models(t)
	_, ts := newTestServer(t, serve.Options{})

	req := serve.TuneRequest{
		Query:   queryplan.SpikeDetection(50_000),
		Cluster: serve.ClusterSpec{Workers: 4, LinkGbps: 10},
	}
	var got serve.TuneResponse
	if code := postJSON(t, ts.URL+"/v1/tune", &req, &got); code != http.StatusOK {
		t.Fatalf("tune: status %d", code)
	}
	want, err := zt.Tune(context.Background(), queryplan.SpikeDetection(50_000), testCluster(t), optimizer.DefaultTuneOptions())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.DegreesVector) != fmt.Sprint(want.Plan.DegreesVector()) {
		t.Fatalf("served degrees %v != direct %v", got.DegreesVector, want.Plan.DegreesVector())
	}
	if got.LatencyMs != want.Estimate.LatencyMs || got.ThroughputEPS != want.Estimate.ThroughputEPS ||
		got.Candidates != want.Candidates {
		t.Fatalf("served estimate (%v, %v, %d) != direct (%v, %v, %d)",
			got.LatencyMs, got.ThroughputEPS, got.Candidates,
			want.Estimate.LatencyMs, want.Estimate.ThroughputEPS, want.Candidates)
	}
}

// gateClock is a fault.Clock whose Sleep parks the caller until the test
// releases it: a delay fault on it stalls a request or a flush for exactly as
// long as the test needs, instead of for a duration the test hopes is long
// enough. Every parked caller hands the test its own release channel, in the
// order the callers arrived.
type gateClock struct{ entered chan chan struct{} }

func newGateClock() *gateClock { return &gateClock{entered: make(chan chan struct{})} }

func (c *gateClock) Sleep(time.Duration) {
	release := make(chan struct{})
	c.entered <- release
	<-release
}

// parkAt activates a fault registry that parks every pass through point on
// the returned gate.
func parkAt(t *testing.T, point string) *gateClock {
	t.Helper()
	gate := newGateClock()
	reg := fault.New(1)
	reg.SetClock(gate)
	reg.Install(fault.Schedule{Point: point, Mode: fault.ModeDelay, Every: 1})
	fault.Activate(reg)
	t.Cleanup(fault.Deactivate)
	return gate
}

// waitSnapshot polls the server's counters until ok accepts them.
func waitSnapshot(t *testing.T, s *serve.Server, what string, ok func(serve.Snapshot) bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !ok(s.Snapshot()); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: %+v", what, s.Snapshot())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServeCoalescesBatches(t *testing.T) {
	s, ts := newTestServer(t, serve.Options{MaxBatch: 64})
	// The first request's forward pass is parked on the gate; the other seven
	// are then demonstrably queued behind it at the same time, and must leave
	// as one batch when the flush loop comes back for them.
	gate := parkAt(t, fault.GNNForward)

	const n = 8
	var wg sync.WaitGroup
	send := func(i int) {
		defer wg.Done()
		req := serve.PredictRequest{
			Plan:    testPlan(i+1, 10_000), // distinct degrees → distinct fingerprints
			Cluster: serve.ClusterSpec{Workers: 4, LinkGbps: 10},
		}
		var resp serve.PredictResponse
		if code, err := tryPost(predictURL(ts), &req, &resp); err != nil || code != http.StatusOK {
			t.Errorf("request %d: status %d err %v", i, code, err)
		}
	}
	wg.Add(1)
	go send(0)
	first := <-gate.entered
	for i := 1; i < n; i++ {
		wg.Add(1)
		go send(i)
	}
	// Every request has led a plan-cache miss and none is still on its way:
	// seven items sit in the batcher's queue.
	waitSnapshot(t, s, "seven queued requests", func(snap serve.Snapshot) bool {
		return snap.Cache.Misses == n && snap.Arriving == 0
	})
	close(first)
	close(<-gate.entered) // the batch of seven
	wg.Wait()
	snap := s.Snapshot()
	if snap.MaxBatch < 2 {
		t.Fatalf("no coalescing observed: max batch %v over %d batches", snap.MaxBatch, snap.Batches)
	}
	if snap.Inferences != n {
		t.Fatalf("expected %d inferences, got %d", n, snap.Inferences)
	}
}

func TestServeCacheHitSkipsInference(t *testing.T) {
	s, ts := newTestServer(t, serve.Options{})
	req := serve.PredictRequest{Plan: testPlan(3, 25_000), Cluster: serve.ClusterSpec{Workers: 4, LinkGbps: 10}}
	var first serve.PredictResponse
	if code := postJSON(t, predictURL(ts), &req, &first); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	before := s.Snapshot()
	var second serve.PredictResponse
	if code := postJSON(t, predictURL(ts), &req, &second); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	after := s.Snapshot()
	if !second.Cached {
		t.Fatal("identical request did not hit the cache")
	}
	if after.Inferences != before.Inferences {
		t.Fatalf("cache hit still ran inference (%d → %d)", before.Inferences, after.Inferences)
	}
	hits := func(s serve.Snapshot) uint64 { return s.Cache.Hits + s.BodyHits }
	if hits(after) != hits(before)+1 {
		t.Fatalf("hit counters did not advance: %+v/%d → %+v/%d",
			before.Cache, before.BodyHits, after.Cache, after.BodyHits)
	}
}

func TestServeConcurrentIdenticalSingleFlight(t *testing.T) {
	// Identical concurrent plans must collapse to one forward pass. The leader
	// does not wait for its twins, so one that arrives after it finished is a
	// body-cache hit rather than a follower.
	s, ts := newTestServer(t, serve.Options{})
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := serve.PredictRequest{Plan: testPlan(2, 40_000), Cluster: serve.ClusterSpec{Workers: 4, LinkGbps: 10}}
			var resp serve.PredictResponse
			if code, err := tryPost(predictURL(ts), &req, &resp); err != nil || code != http.StatusOK {
				t.Errorf("status %d err %v", code, err)
			}
		}()
	}
	wg.Wait()
	snap := s.Snapshot()
	if snap.Inferences != 1 {
		t.Fatalf("identical plans ran %d inferences, want 1", snap.Inferences)
	}
	if snap.Cache.Hits+snap.Cache.Coalesced+snap.BodyHits != n-1 {
		t.Fatalf("dedup accounting off: %+v, %d body hits", snap.Cache, snap.BodyHits)
	}
}

func TestServeReloadHotSwap(t *testing.T) {
	ztA, ztB := models(t)
	pathA, pathB := saveModel(t, ztA, "a.json"), saveModel(t, ztB, "b.json")

	s := serve.New(serve.Options{})
	if _, err := s.ServeModelFile(pathA); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })

	idOf := func() string {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h serve.HealthResponse
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h.Model.ID
	}
	oldID := idOf()

	// Hammer predictions while the swap happens; every request must succeed.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := serve.PredictRequest{
					Plan:    testPlan(1+(w+i)%4, float64(10_000+1000*i)),
					Cluster: serve.ClusterSpec{Workers: 4, LinkGbps: 10},
				}
				var resp serve.PredictResponse
				if code, err := tryPost(predictURL(ts), &req, &resp); err != nil || code != http.StatusOK {
					t.Errorf("in-flight request dropped during reload: status %d err %v", code, err)
					return
				}
			}
		}(w)
	}
	time.Sleep(20 * time.Millisecond)
	var rel serve.ReloadResponse
	if code := postJSON(t, ts.URL+"/v1/reload", serve.ReloadRequest{Path: pathB}, &rel); code != http.StatusOK {
		t.Fatalf("reload: status %d", code)
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()

	if newID := idOf(); newID == oldID || newID != rel.ModelID {
		t.Fatalf("model identity did not swap: old %s new %s reload %s", oldID, newID, rel.ModelID)
	}
	// Post-swap predictions come from model B — including the cached path
	// (the swap must have invalidated model A's cache entries): bit-identical
	// to the served revision's own Predict, and within the accuracy gate's
	// budget of B's float64 reference.
	req := serve.PredictRequest{Plan: testPlan(2, 10_000), Cluster: serve.ClusterSpec{Workers: 4, LinkGbps: 10}}
	want, err := s.Registry().Current().ZT.Predict(context.Background(), testPlan(2, 10_000), testCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	refB := &core.ZeroTune{Model: ztB.Model, Mask: ztB.Mask}
	ref, err := refB.Predict(context.Background(), testPlan(2, 10_000), testCluster(t))
	if err != nil {
		t.Fatal(err)
	}
	within := func(got, ref float64) bool {
		return math.Abs(got-ref) <= gnn.DefaultGateThreshold*ref
	}
	for i := 0; i < 2; i++ {
		var got serve.PredictResponse
		if code := postJSON(t, predictURL(ts), &req, &got); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if got.LatencyMs != want.LatencyMs || got.ThroughputEPS != want.ThroughputEPS {
			t.Fatalf("request %d served stale model: (%v, %v) != (%v, %v)",
				i, got.LatencyMs, got.ThroughputEPS, want.LatencyMs, want.ThroughputEPS)
		}
		if !within(got.LatencyMs, ref.LatencyMs) || !within(got.ThroughputEPS, ref.ThroughputEPS) {
			t.Fatalf("request %d: (%v, %v) is outside the gate budget of model B's reference (%v, %v)",
				i, got.LatencyMs, got.ThroughputEPS, ref.LatencyMs, ref.ThroughputEPS)
		}
	}
}

func TestServeReloadRejectsCorruptModel(t *testing.T) {
	ztA, _ := models(t)
	pathA := saveModel(t, ztA, "a.json")
	s := serve.New(serve.Options{})
	if _, err := s.ServeModelFile(pathA); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })

	// Truncate a copy of the model; the swap must fail and keep serving A.
	data, err := os.ReadFile(pathA)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := filepath.Join(t.TempDir(), "corrupt.json")
	if err := os.WriteFile(corrupt, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if code := postJSON(t, ts.URL+"/v1/reload", serve.ReloadRequest{Path: corrupt}, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt reload: status %d, want 422", code)
	}
	req := serve.PredictRequest{Plan: testPlan(1, 10_000), Cluster: serve.ClusterSpec{Workers: 2, LinkGbps: 10}}
	var resp serve.PredictResponse
	if code := postJSON(t, predictURL(ts), &req, &resp); code != http.StatusOK {
		t.Fatalf("server unhealthy after rejected reload: status %d", code)
	}
}

func TestServeWireErrors(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{})

	resp, err := http.Post(predictURL(ts), "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d, want 400", resp.StatusCode)
	}

	if code := postJSON(t, predictURL(ts), map[string]any{"cluster": map[string]any{"workers": 2}}, nil); code != http.StatusBadRequest {
		t.Fatalf("missing plan: status %d, want 400", code)
	}

	// Invalid plan payloads are rejected by queryplan validation.
	if code := postJSON(t, predictURL(ts), map[string]any{
		"plan":    map[string]any{"query": map[string]any{"name": "x", "ops": []any{}, "edges": []any{}}},
		"cluster": map[string]any{"workers": 2},
	}, nil); code != http.StatusBadRequest {
		t.Fatalf("invalid plan: status %d, want 400", code)
	}

	// Unrouted requests wear the envelope too: a wrong method is 405 with the
	// methods the path takes in Allow, an unknown path is 404.
	for _, c := range []struct {
		method, path string
		status       int
		code, allow  string
	}{
		{http.MethodGet, "/v1/predict", http.StatusMethodNotAllowed, "method_not_allowed", "POST"},
		{http.MethodDelete, "/healthz", http.StatusMethodNotAllowed, "method_not_allowed", "GET, HEAD"},
		{http.MethodPost, "/v2/predict", http.StatusNotFound, "not_found", ""},
		{http.MethodPost, "/v1/feedback", http.StatusNotFound, "not_found", ""},
	} {
		req, err := http.NewRequest(c.method, ts.URL+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var env struct{ Error serve.ErrorBody }
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil || resp.StatusCode != c.status || env.Error.Code != c.code || resp.Header.Get("Allow") != c.allow {
			t.Fatalf("%s %s: %d %q Allow %q (decode: %v), want %d %q Allow %q", c.method, c.path,
				resp.StatusCode, env.Error.Code, resp.Header.Get("Allow"), err, c.status, c.code, c.allow)
		}
	}

	// No model installed.
	empty := serve.New(serve.Options{})
	ets := httptest.NewServer(empty)
	t.Cleanup(func() { ets.Close(); empty.Close() })
	req := serve.PredictRequest{Plan: testPlan(1, 10_000), Cluster: serve.ClusterSpec{Workers: 2}}
	if code := postJSON(t, ets.URL+"/v1/predict", &req, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("no model: status %d, want 503", code)
	}
}

func TestServeMetricsAndSummary(t *testing.T) {
	s, ts := newTestServer(t, serve.Options{})
	req := serve.PredictRequest{Plan: testPlan(2, 15_000), Cluster: serve.ClusterSpec{Workers: 4, LinkGbps: 10}}
	if code := postJSON(t, predictURL(ts), &req, nil); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`zerotune_requests_total{endpoint="predict"} 1`,
		"zerotune_batch_size_bucket",
		"zerotune_cache_misses_total 1",
		"zerotune_inferences_total 1",
		// Rendered via obs.InfoLine: canonical sorted label order.
		`zerotune_model_info{gen="1",id="test-a"`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}
	if sum := s.Summary(); !strings.Contains(sum, "predict") || !strings.Contains(sum, "cache") {
		t.Fatalf("summary incomplete:\n%s", sum)
	}
}
