// /v1/tune failure classes: what the request got wrong is a 400
// "bad_request"; a client that hung up is a 499 and a failed sweep a 503,
// each in the stable error envelope — never the caller's bad request.
package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"zerotune/internal/fault"
	"zerotune/internal/obs"
	"zerotune/internal/queryplan"
	"zerotune/internal/serve"
	"zerotune/internal/tensor"
)

func tuneRequest() serve.TuneRequest {
	return serve.TuneRequest{
		Query:   queryplan.SpikeDetection(50_000),
		Cluster: serve.ClusterSpec{Workers: 4, LinkGbps: 10},
	}
}

func TestTuneRejectsBadInputWith400(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{})
	weight, negative, tooMany := 1.5, -1, serve.MaxRandomCandidates+1

	noSink := tuneRequest()
	noSink.Query.Ops = noSink.Query.Ops[:len(noSink.Query.Ops)-1]
	badWeight := tuneRequest()
	badWeight.Weight = &weight
	negCandidates := tuneRequest()
	negCandidates.RandomCandidates = &negative
	manyCandidates := tuneRequest()
	manyCandidates.RandomCandidates = &tooMany

	for name, req := range map[string]serve.TuneRequest{
		"invalid query": noSink, "weight": badWeight,
		"negative random_candidates": negCandidates, "random_candidates over ceiling": manyCandidates,
	} {
		status, payload := postRaw(t, ts.URL+"/v1/tune", &req)
		if status != http.StatusBadRequest || envelopeCode(t, payload) != "bad_request" {
			t.Errorf("%s: status %d, body %s; want 400 bad_request", name, status, payload)
		}
	}
}

func TestTuneAcceptsRandomCandidatesAtCeiling(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{})
	for _, n := range []int{0, serve.MaxRandomCandidates} {
		req := tuneRequest()
		req.RandomCandidates = &n
		var got serve.TuneResponse
		if code := postJSON(t, ts.URL+"/v1/tune", &req, &got); code != http.StatusOK {
			t.Fatalf("random_candidates=%d: status %d", n, code)
		}
		if got.Candidates < 1 {
			t.Fatalf("random_candidates=%d: %d candidates", n, got.Candidates)
		}
	}
}

func TestTuneCanceledIs499(t *testing.T) {
	s, _ := newTestServer(t, serve.Options{})
	body, err := json.Marshal(tuneRequest())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client hung up before the sweep started
	r := httptest.NewRequest(http.MethodPost, "/v1/tune", bytes.NewReader(body)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if w.Code != 499 || envelopeCode(t, w.Body.Bytes()) != "canceled" {
		t.Fatalf("status %d, body %s; want 499 canceled", w.Code, w.Body)
	}
}

func TestTuneForwardFaultIs503(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{})
	reg := fault.New(1)
	reg.Install(fault.Schedule{Point: fault.GNNForward, Mode: fault.ModeError, Every: 1})
	fault.Activate(reg)
	t.Cleanup(fault.Deactivate)

	req := tuneRequest()
	status, payload := postRaw(t, ts.URL+"/v1/tune", &req)
	if status != http.StatusServiceUnavailable || envelopeCode(t, payload) != "fault_injected" {
		t.Fatalf("status %d, body %s; want 503 fault_injected", status, payload)
	}
}

// TestTuneFusionVisibleOnMetrics: a sweep's candidates run in passes of up
// to eight graphs, so one tune's fused counters must read its candidates in
// ⌈candidates/8⌉ passes — the counters that show from outside whether the
// engine fuses or runs every graph alone.
func TestTuneFusionVisibleOnMetrics(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{})
	scrape := func() (graphs, passes float64) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		samples, err := obs.ParseText(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		graphs, okG := obs.FindSample(samples, "zerotune_fused_graphs_total")
		passes, okP := obs.FindSample(samples, "zerotune_fused_passes_total")
		if !okG || !okP {
			t.Fatal("/metrics lacks the fused counters")
		}
		// Beside them, which kernel multiplied: what a cross-box comparison
		// of these numbers needs first.
		if v, ok := obs.FindSample(samples, "zerotune_gemm_kernel_info", obs.L("kernel", tensor.Kernel())); !ok || v != 1 {
			t.Fatalf("/metrics lacks zerotune_gemm_kernel_info{kernel=%q} 1", tensor.Kernel())
		}
		return graphs, passes
	}
	// The test model is shared, so its engine may have served before.
	graphs0, passes0 := scrape()
	req := tuneRequest()
	var got serve.TuneResponse
	if code := postJSON(t, ts.URL+"/v1/tune", &req, &got); code != http.StatusOK {
		t.Fatalf("tune: status %d", code)
	}
	if got.Candidates <= 8 {
		t.Fatalf("tune swept %d candidates; the test needs a sweep longer than one pass", got.Candidates)
	}
	graphs, passes := scrape()
	if want := (got.Candidates + 7) / 8; int(graphs-graphs0) != got.Candidates || int(passes-passes0) != want {
		t.Fatalf("one tune added %v graphs in %v passes; want %d graphs in %d passes",
			graphs-graphs0, passes-passes0, got.Candidates, want)
	}
}
