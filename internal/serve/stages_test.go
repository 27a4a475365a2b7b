package serve_test

import (
	"context"
	"math"
	"net/http"
	"testing"

	"zerotune/internal/obs"
	"zerotune/internal/serve"
)

// metricsPage parses what the server's /metrics would say now.
func metricsPage(t *testing.T, s *serve.Server) []obs.Sample {
	t.Helper()
	samples, err := s.Metrics().Samples()
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestPredictStagesCoverHandler sends one request down every path through
// handlePredict — body hit, respelled plan hit, lone miss, follower, and every
// early exit — and holds the stage histograms to the list: each request is
// timed through exactly the stages of its path, once each, and the stages of
// a miss add up to the request (nothing the handler does is unattributed:
// the stages and the endpoint latency start and end on the same clock
// readings).
func TestPredictStagesCoverHandler(t *testing.T) {
	ctx := context.Background()
	seen := map[*serve.Server]*[serve.NumStages]uint64{}
	// settled checks that the requests answered since the last call moved the
	// stage counts by exactly their sets.
	settled := func(t *testing.T, s *serve.Server, sets ...[]serve.Stage) {
		t.Helper()
		want := seen[s]
		if want == nil {
			want = new([serve.NumStages]uint64)
			seen[s] = want
		}
		for _, set := range sets {
			for _, st := range set {
				want[st]++
			}
		}
		samples := metricsPage(t, s)
		requests, _ := obs.FindSample(samples, "zerotune_requests_total", obs.L("endpoint", "predict"))
		for st, h := range serve.ReadStages(samples) {
			if h.Count != want[st] {
				t.Errorf("stage %s observed %d times, want %d", serve.Stage(st), h.Count, want[st])
			}
			if float64(h.Count) > requests {
				t.Errorf("stage %s observed %d times over %v requests", serve.Stage(st), h.Count, requests)
			}
		}
		if t.Failed() {
			t.FailNow()
		}
	}

	t.Run("hits and misses", func(t *testing.T) {
		s, _ := newTestServer(t, serve.Options{})
		body := predictBody(t, 2, 20_000)
		for _, tc := range []struct {
			what string
			body []byte
			path []serve.Stage
		}{
			{"lone miss", body, stagesMiss},
			{"body hit", body, stagesBodyHit},
			{"respelled plan hit", append([]byte(" "), body...), stagesPlanHit},
		} {
			if status := call(ctx, s, tc.body); status != http.StatusOK {
				t.Fatalf("%s: status %d", tc.what, status)
			}
			settled(t, s, tc.path)
		}
	})

	t.Run("nothing unattributed", func(t *testing.T) {
		s, _ := newTestServer(t, serve.Options{})
		const n = 16
		for i := 0; i < n; i++ {
			if status := call(ctx, s, predictBody(t, i%8+1, float64(10_000*(i/8+1)))); status != http.StatusOK {
				t.Fatalf("miss %d: status %d", i, status)
			}
		}
		samples := metricsPage(t, s)
		var staged float64
		for _, h := range serve.ReadStages(samples) {
			staged += h.Sum
		}
		whole, _ := obs.FindHistogram(samples, "zerotune_request_duration_seconds", obs.L("endpoint", "predict"))
		// Equal but for the rounding of summing the stages' float seconds.
		if whole.Count != n || math.Abs(staged-whole.Sum) > 1e-9*whole.Sum {
			t.Fatalf("stages of %d misses sum to %.3fµs, their %d requests took %.3fµs; want the same",
				n, staged*1e6, whole.Count, whole.Sum*1e6)
		}
	})

	// Followers and early exits: the scenarios of TestServeArrivalsNeverLeak.
	earlyExits(t, func(*testing.T, *serve.Server) {}, settled)
}
