package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"zerotune/internal/artifact"
	"zerotune/internal/fault"
	"zerotune/internal/gnn"
	"zerotune/internal/optimizer"
)

// followerError is what a cache follower receives when its leader failed
// with leaderErr: the error the predict handler hands to the envelope writer.
func followerError(t *testing.T, leaderErr error) error {
	t.Helper()
	c := NewCache(4)
	var fp Fingerprint
	leader, isLeader := c.Acquire(fp)
	follower, isFollowerLeader := c.Acquire(fp)
	if !isLeader || isFollowerLeader {
		t.Fatal("second Acquire of one key did not attach as a follower")
	}
	c.Complete(leader, gnn.Prediction{}, leaderErr)
	_, err := follower.Wait(context.Background())
	if err == nil {
		t.Fatal("follower of a failed leader got no error")
	}
	return err
}

// TestWireCodesPinned pins the (status, code) every error the replica's
// handlers write carries on the wire: each row is one writer call site's
// (status, error) pair, and the status of a failed predict, tune or forward
// is pinned separately below. The rows are what clients and the chaos
// drill rely on; a refactor of how codes are derived must leave them be.
func TestWireCodesPinned(t *testing.T) {
	injected := fmt.Errorf("%w at %s (hit 1)", fault.ErrInjected, fault.CacheAcquire)
	injectedDeadline := fmt.Errorf("%w at %s (hit 1): %w", fault.ErrInjected, fault.GNNForward, context.DeadlineExceeded)
	staleQueueFull := followerError(t, ErrQueueFull)
	plain := errors.New("gnn: forward failed")

	writes := []struct {
		site   string
		status int
		err    error
		code   string
	}{
		{"predict/tune without a model", 503, ErrNoModel, "no_model"},
		{"oversized body", 400, fmt.Errorf("serve: read request: %w", &http.MaxBytesError{Limit: MaxBodyBytes}), "bad_request"},
		{"undecodable body", 400, fmt.Errorf("serve: decode request: %w", errors.New("bad json")), "bad_request"},
		{"request without a plan", 400, errors.New("serve: request has no plan"), "bad_request"},
		{"invalid plan", 400, fmt.Errorf("serve: invalid plan: %w", errors.New("cycle")), "bad_request"},
		{"tune input error", 400, &optimizer.InputError{Err: errors.New("no source")}, "bad_request"},
		{"injected cache-acquire fault", 503, injected, "fault_injected"},
		{"injected forward fault wrapping a deadline", 503, injectedDeadline, "timeout"},
		{"follower of a queue-full leader", 503, staleQueueFull, "stale_entry"},
		{"leader's queue full", 429, ErrQueueFull, "queue_full"},
		{"batcher shut down", 503, ErrBatcherClosed, "shutting_down"},
		{"batch deadline", 503, ErrPredictTimeout, "timeout"},
		{"client went away", 499, context.Canceled, "canceled"},
		{"open circuit without a fallback", 503, ErrCircuitOpen, "circuit_open"},
		{"forward failure without a fallback", 503, plain, "unavailable"},
		{"reload of an invalid model", 422, errors.New("core: load: bad magic"), "invalid_model"},
		{"reload of a corrupt artifact", 422, fmt.Errorf("core: load: %w", artifact.ErrChecksum), "checksum_mismatch"},
		{"unrouted method", 405, errors.New("serve: GET /v1/predict: method not allowed"), "method_not_allowed"},
		{"unrouted path", 404, errors.New("serve: POST /v2/predict: no such endpoint"), "not_found"},
		{"anything else", 500, plain, "internal"},
	}
	for _, c := range writes {
		rec := httptest.NewRecorder()
		WriteError(rec, c.status, c.err)
		var env errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("%s: body is not the envelope: %q", c.site, rec.Body)
		}
		if rec.Code != c.status || env.Error.Code != c.code || env.Error.Message != c.err.Error() {
			t.Errorf("%s: wrote %d %q %q, want %d %q %q", c.site,
				rec.Code, env.Error.Code, env.Error.Message, c.status, c.code, c.err.Error())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", c.site, ct)
		}
	}

	failures := []struct {
		err    error
		status int
	}{
		{ErrQueueFull, 429},
		{context.Canceled, 499},
		{fmt.Errorf("optimizer: sweep: %w", context.Canceled), 499},
		{staleQueueFull, 503},
		{ErrBatcherClosed, 503},
		{ErrPredictTimeout, 503},
		{context.DeadlineExceeded, 503},
		{ErrCircuitOpen, 503},
		{injected, 503},
		{injectedDeadline, 503},
		{plain, 503},
	}
	for _, c := range failures {
		if got := FailureStatus(c.err); got != c.status {
			t.Errorf("failure %q: status %d, want %d", c.err, got, c.status)
		}
	}
}
