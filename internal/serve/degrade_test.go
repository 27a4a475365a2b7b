// Degradation e2e tests: with the GNN forward path failing via injected
// faults, /v1/predict keeps answering 200 with "degraded": true from the
// fallback estimator, the circuit breaker trips and recovers, and models
// without a fallback surface the stable circuit_open error envelope.
package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"zerotune/internal/core"
	"zerotune/internal/fault"
	"zerotune/internal/serve"
)

// postRaw POSTs body and returns the status plus raw response bytes, so
// error envelopes can be inspected alongside 200 payloads.
func postRaw(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
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

func envelopeCode(t *testing.T, payload []byte) string {
	t.Helper()
	var body struct {
		Error serve.ErrorBody `json:"error"`
	}
	if err := json.Unmarshal(payload, &body); err != nil {
		t.Fatalf("error response is not the stable envelope: %v (%s)", err, payload)
	}
	if body.Error.Code == "" {
		t.Fatalf("error envelope has no code: %s", payload)
	}
	return body.Error.Code
}

// TestPredictDegradedOnForwardFault is the acceptance criterion: force
// gnn.forward to fail on every pass, require 200 + "degraded": true from the
// fallback estimator, require the circuit to trip, then clear the fault and
// require the circuit to close again with non-degraded answers. The breaker
// reads a clock that moves only when the test moves it.
func TestPredictDegradedOnForwardFault(t *testing.T) {
	s, ts := newTestServer(t, serve.Options{BatchWindow: -1, CircuitThreshold: 2})
	var now atomic.Int64 // the breaker's clock, in nanoseconds
	serve.SetBreakerClock(s, func() time.Time { return time.Unix(0, now.Load()) })
	reg := fault.New(1)
	reg.Install(fault.Schedule{Point: fault.GNNForward, Mode: fault.ModeError, Every: 1})
	fault.Activate(reg)
	t.Cleanup(fault.Deactivate)

	const n = 5
	for i := 0; i < n; i++ {
		// Distinct plans so no request rides the fingerprint cache.
		req := serve.PredictRequest{Plan: testPlan(i+1, float64(10_000*(i+1))),
			Cluster: serve.ClusterSpec{Workers: 4, LinkGbps: 10}}
		status, payload := postRaw(t, predictURL(ts), &req)
		if status != http.StatusOK {
			t.Fatalf("request %d under forward fault: status %d (%s)", i, status, payload)
		}
		var got serve.PredictResponse
		if err := json.Unmarshal(payload, &got); err != nil {
			t.Fatal(err)
		}
		if !got.Degraded || got.Fallback != "linreg" {
			t.Fatalf("request %d: degraded=%v fallback=%q, want degraded linreg answer", i, got.Degraded, got.Fallback)
		}
		if got.LatencyMs < 0 || got.ThroughputEPS < 0 {
			t.Fatalf("request %d: fallback produced negative costs %+v", i, got)
		}
	}
	if st := s.Circuit(); st == serve.CircuitClosed {
		t.Fatal("circuit still closed after sustained forward failures")
	}
	snap := s.Snapshot()
	if snap.Degraded < n {
		t.Fatalf("Degraded = %d, want >= %d", snap.Degraded, n)
	}
	if snap.CircuitOpens == 0 {
		t.Fatal("circuit-open counter never incremented")
	}
	var metrics bytes.Buffer
	s.Metrics().WritePrometheus(&metrics)
	for _, series := range []string{"zerotune_serve_degraded_total", "zerotune_circuit_open_total", "zerotune_circuit_state"} {
		if !strings.Contains(metrics.String(), series) {
			t.Fatalf("metrics missing %s", series)
		}
	}

	// Fault clears and the cooldown passes: the next request is admitted as
	// the half-open probe, succeeds on the learned path, and closes the circuit.
	reg.Clear(fault.GNNForward)
	now.Add(int64(serve.DefaultCircuitCooldown))
	req := serve.PredictRequest{Plan: testPlan(1, 77_000), Cluster: serve.ClusterSpec{Workers: 4, LinkGbps: 10}}
	var got serve.PredictResponse
	if code := postJSON(t, predictURL(ts), &req, &got); code != http.StatusOK {
		t.Fatalf("post-recovery predict: status %d", code)
	}
	if got.Degraded {
		t.Fatal("post-recovery answer still degraded")
	}
	if st := s.Circuit(); st != serve.CircuitClosed {
		t.Fatalf("circuit %v after successful probe, want closed", st)
	}
}

// TestCircuitOpenWithoutFallback503 serves a model stripped of its fallback:
// forward failures must surface as 503s with stable codes — fault_injected
// while failing, circuit_open once the breaker rejects without probing.
func TestCircuitOpenWithoutFallback503(t *testing.T) {
	zt, _ := models(t)
	bare := &core.ZeroTune{Model: zt.Model, Mask: zt.Mask} // no fallback
	s := serve.New(serve.Options{
		BatchWindow:      -1,
		CircuitThreshold: 1,
		CircuitCooldown:  time.Hour, // never probe during this test
	})
	s.Registry().Install(bare, "bare", "")
	ts := newHTTPServer(t, s)
	reg := fault.New(2)
	reg.Install(fault.Schedule{Point: fault.GNNForward, Mode: fault.ModeError, Every: 1})
	fault.Activate(reg)
	t.Cleanup(fault.Deactivate)

	req := serve.PredictRequest{Plan: testPlan(1, 10_000), Cluster: serve.ClusterSpec{Workers: 4, LinkGbps: 10}}
	status, payload := postRaw(t, predictURL(ts), &req)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("forward fault without fallback: status %d (%s)", status, payload)
	}
	if code := envelopeCode(t, payload); code != "fault_injected" {
		t.Fatalf("code %q, want fault_injected", code)
	}
	if st := s.Circuit(); st != serve.CircuitOpen {
		t.Fatalf("circuit %v after threshold-1 failure, want open", st)
	}
	status, payload = postRaw(t, predictURL(ts), &req)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("circuit-open request: status %d (%s)", status, payload)
	}
	if code := envelopeCode(t, payload); code != "circuit_open" {
		t.Fatalf("code %q, want circuit_open", code)
	}
}

// TestReloadRetriesInjectedSwapFault proves the reload path's bounded
// jittered-backoff retry: one injected registry.swap failure is absorbed, a
// persistent one surfaces with the fault_injected code and leaves the old
// model serving.
func TestReloadRetriesInjectedSwapFault(t *testing.T) {
	zt, ztB := models(t)
	s := serve.New(serve.Options{BatchWindow: -1})
	s.Registry().Install(zt, "primary", "")
	ts := newHTTPServer(t, s)
	path := saveModel(t, ztB, "b.json")

	reg := fault.New(3)
	reg.Install(fault.Schedule{Point: fault.RegistrySwap, Mode: fault.ModeError, Every: 1, Limit: 1})
	fault.Activate(reg)
	t.Cleanup(fault.Deactivate)

	status, payload := postRaw(t, ts.URL+"/v1/reload", serve.ReloadRequest{Path: path})
	if status != http.StatusOK {
		t.Fatalf("reload with one transient fault: status %d (%s)", status, payload)
	}
	if got := reg.Injected(fault.RegistrySwap); got != 1 {
		t.Fatalf("injected %d swap faults, want exactly 1 absorbed by retry", got)
	}

	// Persistent failure: every attempt faults, the retry budget runs out.
	reg.Install(fault.Schedule{Point: fault.RegistrySwap, Mode: fault.ModeError, Every: 1})
	before := s.Registry().Current().ID
	status, payload = postRaw(t, ts.URL+"/v1/reload", serve.ReloadRequest{Path: path})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("reload under persistent fault: status %d (%s)", status, payload)
	}
	if code := envelopeCode(t, payload); code != "fault_injected" {
		t.Fatalf("code %q, want fault_injected", code)
	}
	if got := s.Registry().Current().ID; got != before {
		t.Fatalf("failed reload displaced the serving model: %s -> %s", before, got)
	}
}

// newHTTPServer wraps a prebuilt serve.Server in an httptest listener with
// cleanup (newTestServer always installs model A; this variant doesn't).
func newHTTPServer(t *testing.T, s *serve.Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts
}
