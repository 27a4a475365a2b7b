package serve_test

import (
	"context"
	"errors"
	"net/http"
	"testing"

	"zerotune/internal/client"
	"zerotune/internal/fault"
	"zerotune/internal/feedback"
	"zerotune/internal/serve"
)

// learnServer builds a file-backed learning server and an in-process client.
func learnServer(t *testing.T, lo serve.LearnOptions) (*serve.Server, *client.Client) {
	t.Helper()
	zt, _ := models(t)
	path := saveModel(t, zt, "learn.json")
	if lo.Learner.Dir == "" {
		lo.Learner.Dir = t.TempDir()
	}
	s := serve.New(serve.Options{Learn: &lo})
	if _, err := s.ServeModelFile(path); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, client.NewForHandler(s)
}

func TestFeedbackDisabledIs503(t *testing.T) {
	s := serve.New(serve.Options{})
	defer s.Close()
	c := client.NewForHandler(s)
	_, err := c.Feedback(context.Background(),
		&serve.FeedbackRequest{Fingerprint: "00", ObservedLatencyMs: 1, ObservedThroughputEPS: 1})
	if !errors.Is(err, serve.ErrLearningDisabled) {
		t.Fatalf("want ErrLearningDisabled, got %v", err)
	}
}

func TestFeedbackValidation(t *testing.T) {
	_, c := learnServer(t, serve.LearnOptions{})
	ctx := context.Background()
	cases := []*serve.FeedbackRequest{
		{}, // missing fingerprint
		{Fingerprint: "zz", ObservedLatencyMs: 1, ObservedThroughputEPS: 1},   // not hex
		{Fingerprint: "0011", ObservedLatencyMs: 1, ObservedThroughputEPS: 1}, // wrong length
		{Fingerprint: "00112233445566778899aabbccddeeff", ObservedLatencyMs: -1, ObservedThroughputEPS: 1},
		{Fingerprint: "00112233445566778899aabbccddeeff", ObservedLatencyMs: 1, ObservedThroughputEPS: 0},
	}
	for i, req := range cases {
		var apiErr *client.APIError
		if _, err := c.Feedback(ctx, req); !errors.As(err, &apiErr) || apiErr.Code != "bad_request" {
			t.Errorf("case %d: want bad_request, got %v", i, err)
		}
	}
	// Well-formed but never served: 404 unknown_fingerprint.
	_, err := c.Feedback(ctx, &serve.FeedbackRequest{
		Fingerprint: "00112233445566778899aabbccddeeff", ObservedLatencyMs: 1, ObservedThroughputEPS: 1})
	if !errors.Is(err, serve.ErrUnknownFingerprint) {
		t.Fatalf("want ErrUnknownFingerprint, got %v", err)
	}
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("unknown fingerprint should be 404, got %+v", apiErr)
	}
}

// TestFeedbackClosedLoop walks the whole loop in process: predict stamps a
// fingerprint, feedback attributes the observation, the drift detector
// trips on miscalibration, and a learner run promotes a new generation.
func TestFeedbackClosedLoop(t *testing.T) {
	s, c := learnServer(t, serve.LearnOptions{
		// Promotion mechanics are under test, not model quality.
		Learner: feedback.Config{MinSamples: 4, Epochs: 1, MaxShadowRegress: 100},
		Drift:   feedback.DetectorConfig{MinSamples: 4, MAPEThreshold: 0.5},
	})
	ctx := context.Background()

	var fps []string
	var preds []*serve.PredictResponse
	for i := 0; i < 6; i++ {
		resp, err := c.Predict(ctx, &serve.PredictRequest{
			Plan:    testPlan(i%3+1, float64(10000*(i+1))),
			Cluster: serve.ClusterSpec{Workers: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Fingerprint == "" {
			t.Fatal("learning server did not stamp a fingerprint on /v1/predict")
		}
		fps = append(fps, resp.Fingerprint)
		preds = append(preds, resp)
	}

	// Observed = 3× predicted: MAPE 2.0 ≫ 0.5, so the detector must trip.
	for i, fp := range fps {
		resp, err := c.Feedback(ctx, &serve.FeedbackRequest{
			Fingerprint:           fp,
			ObservedLatencyMs:     3 * preds[i].LatencyMs,
			ObservedThroughputEPS: preds[i].ThroughputEPS,
		})
		if err != nil {
			t.Fatalf("feedback %d: %v", i, err)
		}
		if !resp.Accepted {
			t.Fatalf("feedback %d not accepted", i)
		}
	}
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Learn == nil {
		t.Fatal("healthz carries no learn section on a learning server")
	}
	if h.Learn.DriftTrips < 1 {
		t.Fatalf("drift detector did not trip: %+v", h.Learn)
	}
	if s.FeedbackStore().Len() < 4 {
		t.Fatalf("store retained %d samples", s.FeedbackStore().Len())
	}
	genBefore := h.Model.Gen

	// The drift trip kicked the learner; run the queued job synchronously.
	rep, err := s.Learner().RunOnce(ctx)
	if err != nil {
		t.Fatalf("RunOnce: %v (%+v)", err, rep)
	}
	if !rep.Promoted {
		t.Fatalf("no promotion: %+v", rep)
	}
	h2, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Model.Gen <= genBefore {
		t.Fatalf("generation did not advance: %d -> %d", genBefore, h2.Model.Gen)
	}
	if h2.Learn.Promotions != 1 {
		t.Fatalf("promotions = %d, want 1", h2.Learn.Promotions)
	}
	// Feedback for a pre-promotion fingerprint still resolves (the index
	// survives the swap).
	if _, err := c.Feedback(ctx, &serve.FeedbackRequest{
		Fingerprint: fps[0], ObservedLatencyMs: 5, ObservedThroughputEPS: 100}); err != nil {
		t.Fatalf("post-promotion feedback: %v", err)
	}
}

// TestPredictOmitsFingerprintWhenNotLearning pins the hot-path contract:
// without LearnOptions the response carries no fingerprint and the recent
// index costs nothing.
func TestPredictOmitsFingerprintWhenNotLearning(t *testing.T) {
	s, _ := newTestServer(t, serve.Options{})
	c := client.NewForHandler(s)
	resp, err := c.Predict(context.Background(), &serve.PredictRequest{
		Plan:    testPlan(2, 50_000),
		Cluster: serve.ClusterSpec{Workers: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Fingerprint != "" {
		t.Fatalf("non-learning server stamped fingerprint %q", resp.Fingerprint)
	}
}

// TestFeedbackIngestFaultEnveloped: the feedback.ingest fault point answers
// as an enveloped 503, not a torn response.
func TestFeedbackIngestFaultEnveloped(t *testing.T) {
	reg := fault.New(1)
	reg.Install(fault.Schedule{Point: fault.FeedbackIngest, Mode: fault.ModeError, Every: 1})
	fault.Activate(reg)
	t.Cleanup(fault.Deactivate)
	_, c := learnServer(t, serve.LearnOptions{})
	_, err := c.Feedback(context.Background(), &serve.FeedbackRequest{
		Fingerprint: "00112233445566778899aabbccddeeff", ObservedLatencyMs: 1, ObservedThroughputEPS: 1})
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("want fault.ErrInjected, got %v", err)
	}
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("ingest fault should be an enveloped 503, got %+v", apiErr)
	}
}
