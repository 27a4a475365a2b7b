package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"testing"

	"zerotune/internal/obs"
)

// replayBody is a request body that can be read again from the start.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// TestBodyHitAllocFree: once the pools are warm, a body-cache hit allocates
// nothing between Server.ServeHTTP and the writer: no status writer, no
// limiting reader, no header value, no drain.
func TestBodyHitAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random")
	}
	s := New(Options{BatchWindow: -1, CacheSize: 64})
	defer s.Close()
	s.Registry().Install(coldModel(t), "m", "")
	body := coldBodies(t, 0, 1)[0]
	var rd replayBody
	r := httptest.NewRequest(http.MethodPost, "/v1/predict", nil)
	r.Body = &rd
	w := &allocWriter{h: make(http.Header)}
	serve := func() {
		rd.Reset(body)
		w.status = http.StatusOK
		w.buf.Reset()
		s.ServeHTTP(w, r)
		if w.status != http.StatusOK {
			t.Fatalf("status %d: %s", w.status, w.buf.Bytes())
		}
	}
	serve() // the miss that fills the body cache
	serve()
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection would empty the pools
	const runs = 1000
	before := s.Snapshot().BodyHits
	if allocs := testing.AllocsPerRun(runs, serve); allocs != 0 {
		t.Errorf("%.2f allocations per body hit, want 0", allocs)
	}
	if hits := s.Snapshot().BodyHits - before; hits != runs+1 { // AllocsPerRun warms up once
		t.Errorf("%d body hits, want %d", hits, runs+1)
	}
	if got := w.h.Get("Content-Type"); got != "application/json" {
		t.Errorf("Content-Type %q, want application/json", got)
	}
}

// TestReadBodyLimit: a predict body one byte over MaxBodyBytes is the 400
// bad_request envelope with http.MaxBytesReader's text, and one at the limit
// is read whole and fails only to decode.
func TestReadBodyLimit(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	for _, n := range []int{MaxBodyBytes, MaxBodyBytes + 1} {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(make([]byte, n))))
		var env errorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || w.Code != http.StatusBadRequest || env.Error.Code != "bad_request" {
			t.Fatalf("%d bytes: %d %s", n, w.Code, w.Body.Bytes())
		}
		tooLarge := env.Error.Message == "serve: read request: http: request body too large"
		if tooLarge != (n > MaxBodyBytes) {
			t.Errorf("%d bytes: message %q", n, env.Error.Message)
		}
	}
}

// TestDerivedCountersMatchHistograms: the request counts and the body-hit
// count are read off the histograms that time the same requests, on /metrics
// and in Snapshot alike, after hits, misses and 4xx answers.
func TestDerivedCountersMatchHistograms(t *testing.T) {
	s := New(Options{BatchWindow: -1, CacheSize: 64})
	defer s.Close()
	s.Registry().Install(coldModel(t), "m", "")
	do := func(method, path string, body []byte) {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(body)))
	}
	bodies := coldBodies(t, 0, 3)
	for i := 0; i < 4; i++ {
		for _, b := range bodies {
			do(http.MethodPost, "/v1/predict", b) // 3 misses, then 9 hits
		}
	}
	do(http.MethodPost, "/v1/predict", []byte("{not json"))
	do(http.MethodPost, "/v1/tune", []byte(`{"query":null}`))
	do(http.MethodGet, "/healthz", nil)
	do(http.MethodGet, "/v1/predict", nil) // 405: no endpoint answers it

	var page strings.Builder
	s.stats.WriteMetrics(&page, nil)
	samples, err := obs.ParseText(strings.NewReader(page.String()))
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	want := map[string]uint64{"predict": 13, "tune": 1, "healthz": 1, "reload": 0, "metrics": 0}
	for _, name := range endpointNames {
		counter, ok := obs.FindSample(samples, "zerotune_requests_total", obs.L("endpoint", name))
		hist, _ := obs.FindHistogram(samples, "zerotune_request_duration_seconds", obs.L("endpoint", name))
		if !ok || uint64(counter) != hist.Count || snap.Requests[name] != hist.Count || hist.Count != want[name] {
			t.Errorf("%s: requests_total %v (found %v), Snapshot %d, latency count %d; want all %d",
				name, counter, ok, snap.Requests[name], hist.Count, want[name])
		}
	}
	if e := snap.Errors["predict"]; e != 1 {
		t.Errorf("predict errors %d, want 1", e)
	}
	hits, ok := obs.FindSample(samples, "zerotune_respcache_body_hits_total")
	hist, _ := obs.FindHistogram(samples, StageMetric, obs.L("stage", StageBodyHit.String()))
	if !ok || uint64(hits) != hist.Count || snap.BodyHits != hist.Count || hist.Count != 9 {
		t.Errorf("body_hits_total %v (found %v), Snapshot %d, body_hit stage count %d; want all 9",
			hits, ok, snap.BodyHits, hist.Count)
	}
}
