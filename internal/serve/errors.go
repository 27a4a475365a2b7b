package serve

import (
	"context"
	"errors"
	"net/http"

	"zerotune/internal/artifact"
	"zerotune/internal/fault"
)

// Sentinel errors of the serving layer. Callers branch on them with
// errors.Is; the HTTP layer maps each to a stable machine-readable code in
// the error envelope (see writeError).
var (
	// ErrBatcherClosed is returned for predictions submitted after
	// shutdown began.
	ErrBatcherClosed = errors.New("serve: batcher closed")
	// ErrQueueFull is returned when the submission queue is at capacity —
	// backpressure the HTTP layer maps to 429 instead of letting requests
	// pile up blocked inside the process.
	ErrQueueFull = errors.New("serve: prediction queue full")
	// ErrPredictTimeout is returned when a submitted prediction's batch
	// did not run within the deadline (a wedged or overloaded flush loop);
	// the HTTP layer maps it to 503 so clients fail fast instead of
	// hanging.
	ErrPredictTimeout = errors.New("serve: prediction deadline exceeded")
	// ErrStaleEntry is what followers of a failed cache leader receive:
	// the leader's entry was deleted on error, so followers that attached
	// before the deletion are waiting on a slot no retry will ever refill.
	// The serving layer re-acquires once instead of propagating a
	// transient inference failure as if it were a cached result.
	ErrStaleEntry = errors.New("serve: stale cache entry (leader failed)")
	// ErrNoModel is returned while the registry has no installed model.
	ErrNoModel = errors.New("serve: no model installed")
	// ErrCircuitOpen is the cause attached to requests rejected by an open
	// circuit breaker. Clients only see it (as a 503 with code
	// "circuit_open") when the served model has no fallback estimator;
	// otherwise the request is answered degraded.
	ErrCircuitOpen = errors.New("serve: circuit open (learned path unavailable)")
	// ErrLearningDisabled is returned for /v1/feedback when the server was
	// built without Options.Learn — there is no store to ingest into.
	ErrLearningDisabled = errors.New("serve: learning disabled")
	// ErrUnknownFingerprint is returned for feedback referencing a plan
	// fingerprint absent from the recent-prediction index (never predicted
	// here, or already evicted).
	ErrUnknownFingerprint = errors.New("serve: unknown plan fingerprint")
)

// StatusClientClosedRequest is nginx's non-standard 499: the client went
// away before the response; no standard code fits a cancelled request.
const StatusClientClosedRequest = 499

// errorCode maps an error (and the status it is served with) to the stable
// `code` field of the error envelope.
func errorCode(status int, err error) string {
	switch {
	case errors.Is(err, ErrQueueFull):
		return "queue_full"
	case errors.Is(err, ErrPredictTimeout) || errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, ErrBatcherClosed):
		return "shutting_down"
	case errors.Is(err, ErrStaleEntry):
		return "stale_entry"
	case errors.Is(err, ErrNoModel):
		return "no_model"
	case errors.Is(err, ErrCircuitOpen):
		return "circuit_open"
	case errors.Is(err, ErrLearningDisabled):
		return "learning_disabled"
	case errors.Is(err, ErrUnknownFingerprint):
		return "unknown_fingerprint"
	case fault.IsInjected(err):
		return "fault_injected"
	case errors.Is(err, artifact.ErrChecksum):
		return "checksum_mismatch"
	}
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusUnprocessableEntity:
		return "invalid_model"
	case http.StatusTooManyRequests:
		return "queue_full"
	case http.StatusServiceUnavailable:
		return "unavailable"
	case StatusClientClosedRequest:
		return "canceled"
	default:
		return "internal"
	}
}

// KnownErrorCodes lists every code errorCode can emit. Harnesses (the chaos
// driver) use it to assert that no error response ever carries an unmapped
// code.
func KnownErrorCodes() []string {
	return []string{
		"queue_full", "timeout", "canceled", "shutting_down", "stale_entry",
		"no_model", "circuit_open", "learning_disabled", "unknown_fingerprint",
		"fault_injected", "checksum_mismatch",
		"bad_request", "invalid_model", "unavailable", "internal",
	}
}
