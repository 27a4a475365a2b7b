// Cancellation races around the single-flight cache. Run with
// `go test -race -count=2`: the properties under test are (a) a leader
// whose context is cancelled between cache.lookup and batcher.enqueue never
// leaks its single-flight slot — the next request for the same fingerprint
// must lead again — and (b) concurrent circuit-open rejections all carry the
// 503 + stable-code envelope with no data race in the breaker.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"zerotune/internal/core"
	"zerotune/internal/features"
	"zerotune/internal/gnn"
	"zerotune/internal/queryplan"
	"zerotune/internal/workload"
)

// TestCancelledLeaderReleasesSlot drives many goroutines through the
// leader-cancelled-before-enqueue interleaving: every leader completes its
// entry with context.Canceled (what batcher.Predict returns when the client
// goes away pre-flush), and after each storm a fresh Acquire on the same
// fingerprint must become leader — a leaked slot would make it a follower
// waiting on a prediction nobody will compute.
func TestCancelledLeaderReleasesSlot(t *testing.T) {
	cache := NewCache(16)
	fp := Fingerprint{0xAB}
	const rounds = 50
	const workers = 8
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithCancel(context.Background())
				e, leader := cache.Acquire(fp)
				// The client disconnects between cache.lookup and
				// batcher.enqueue.
				cancel()
				if leader {
					cache.Complete(e, gnn.Prediction{}, ctx.Err())
					return
				}
				// Followers must not hang on the dead leader: either the
				// leader's error or a stale-entry signal, promptly.
				waitCtx, waitCancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer waitCancel()
				if _, err := e.Wait(waitCtx); err == nil {
					t.Error("follower got a prediction from a cancelled leader")
				} else if errors.Is(err, context.DeadlineExceeded) {
					t.Error("follower hung on a cancelled leader's slot")
				}
			}()
		}
		wg.Wait()
		// The slot must be free again: a fresh request leads and can serve.
		e, leader := cache.Acquire(fp)
		if !leader {
			t.Fatalf("round %d: cancelled leaders leaked the single-flight slot", round)
		}
		cache.Complete(e, gnn.Prediction{}, context.Canceled)
	}
	// A clean completion still works after the churn.
	e, leader := cache.Acquire(fp)
	if !leader {
		t.Fatal("slot leaked after storm")
	}
	cache.Complete(e, gnn.Prediction{LatencyMs: 1, ThroughputEPS: 2}, nil)
	if _, leader := cache.Acquire(fp); leader {
		t.Fatal("successful completion did not populate the cache")
	}
}

// TestConcurrentCircuitOpenEnvelopes holds the breaker open (threshold 1, a
// model without a fallback, probes effectively disabled) and fires
// concurrent predictions: every rejection must be a 503 wearing the stable
// envelope with a mapped code. The breaker's state is hammered from many
// goroutines, so -race guards its locking.
func TestConcurrentCircuitOpenEnvelopes(t *testing.T) {
	s := New(Options{BatchWindow: -1, CircuitThreshold: 1, CircuitCooldown: time.Hour})
	t.Cleanup(s.Close)
	zt := trainedModelNoFallback(t)
	s.Registry().Install(zt, "bare", "")
	// Trip the breaker deterministically: one forward failure via a forward
	// hook that always errors.
	s.batcher.SetForward(func(*ModelEntry, []*features.Graph) ([]gnn.Prediction, error) {
		return nil, errors.New("forward down")
	})
	body, err := json.Marshal(PredictRequest{
		Plan:    queryplan.NewPQP(queryplan.SpikeDetection(10_000)),
		Cluster: ClusterSpec{Workers: 4, LinkGbps: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	do := func() (int, []byte) {
		r := httptest.NewRequest("POST", "/v1/predict", bytes.NewReader(body))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		return w.Code, w.Body.Bytes()
	}
	if code, _ := do(); code != 503 {
		t.Fatalf("tripping request: status %d, want 503", code)
	}
	if st := s.Circuit(); st != CircuitOpen {
		t.Fatalf("circuit %v after threshold-1 failure", st)
	}

	const n = 24
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, payload := do()
			if status != 503 {
				t.Errorf("circuit-open request: status %d (%s)", status, payload)
				return
			}
			var envelope struct {
				Error ErrorBody `json:"error"`
			}
			if err := json.Unmarshal(payload, &envelope); err != nil {
				t.Errorf("rejection without envelope: %s", payload)
				return
			}
			if envelope.Error.Code != "circuit_open" {
				t.Errorf("rejection code %q, want circuit_open", envelope.Error.Code)
			}
		}()
	}
	wg.Wait()
}

// trainedModelNoFallback trains a minimal model and strips its fallback so
// circuit-open surfaces as an error instead of a degraded answer.
func trainedModelNoFallback(t *testing.T) *core.ZeroTune {
	t.Helper()
	gen := workload.NewSeenGenerator(5)
	items, err := gen.Generate([]string{"linear"}, 20)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultTrainOptions()
	opts.Hidden, opts.EncDepth, opts.HeadHidden = 8, 1, 8
	opts.Epochs = 1
	opts.Seed = 5
	zt, _, err := core.Train(context.Background(), items, opts)
	if err != nil {
		t.Fatal(err)
	}
	zt.Fallback = nil
	return zt
}
