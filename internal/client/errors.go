package client

import (
	"errors"
	"fmt"
	"net/http"
	"sort"

	"zerotune/internal/serve"
)

// Typed views of the stable wire codes. The serving stack promises that
// every error response, on every endpoint and every tier, is the envelope
// `{"error":{"code","message"}}` with a code drawn from a fixed set; the
// client decodes that envelope into an *APIError whose Unwrap yields the
// sentinel matching the code, so callers branch with errors.Is instead of
// string-matching messages or memorizing status numbers.
var (
	// ErrQueueFull: code "queue_full" — batcher or gateway dispatch queue
	// at capacity (HTTP 429).
	ErrQueueFull = errors.New("client: queue full")
	// ErrTimeout: code "timeout" — the request deadline elapsed server-side.
	ErrTimeout = errors.New("client: request timed out")
	// ErrCanceled: code "canceled" — the client went away (HTTP 499).
	ErrCanceled = errors.New("client: request canceled")
	// ErrShuttingDown: code "shutting_down" — submitted after shutdown began.
	ErrShuttingDown = errors.New("client: server shutting down")
	// ErrStaleEntry: code "stale_entry" — a failed cache leader's followers.
	ErrStaleEntry = errors.New("client: stale cache entry")
	// ErrNoModel: code "no_model" — the registry has no installed model.
	ErrNoModel = errors.New("client: no model installed")
	// ErrCircuitOpen: code "circuit_open" — learned path unavailable and no
	// fallback estimator.
	ErrCircuitOpen = errors.New("client: circuit open")
	// ErrLearningDisabled: code "learning_disabled" — /v1/feedback on a
	// server built without learning.
	ErrLearningDisabled = errors.New("client: learning disabled")
	// ErrUnknownFingerprint: code "unknown_fingerprint" — feedback for a
	// plan absent from the recent-prediction index.
	ErrUnknownFingerprint = errors.New("client: unknown plan fingerprint")
	// ErrFaultInjected: code "fault_injected" — a chaos-injected failure.
	ErrFaultInjected = errors.New("client: injected fault")
	// ErrChecksumMismatch: code "checksum_mismatch" — artifact integrity
	// failure during a reload.
	ErrChecksumMismatch = errors.New("client: artifact checksum mismatch")
	// ErrBadRequest: code "bad_request" — malformed payload.
	ErrBadRequest = errors.New("client: bad request")
	// ErrInvalidModel: code "invalid_model" — the model file failed
	// load-validate during a reload.
	ErrInvalidModel = errors.New("client: invalid model")
	// ErrUnavailable: code "unavailable" — generic 503.
	ErrUnavailable = errors.New("client: service unavailable")
	// ErrInternal: code "internal" — unclassified server error.
	ErrInternal = errors.New("client: internal server error")
	// ErrAdmissionRejected: code "admission_rejected" — the SLO class's
	// token bucket is empty at the gateway.
	ErrAdmissionRejected = errors.New("client: admission rejected")
	// ErrNoReplica: code "no_replica" — no healthy replica behind the
	// gateway.
	ErrNoReplica = errors.New("client: no healthy replica")
	// ErrBackendUnavailable: code "backend_unavailable" — every routable
	// replica failed at the transport level.
	ErrBackendUnavailable = errors.New("client: backend unavailable")
)

// sentinelByCode maps every stable wire code to its exported sentinel.
// serve.KnownErrorCodes and gateway.KnownErrorCodes are the authoritative
// lists; the client tests assert this map covers both.
var sentinelByCode = map[string]error{
	"queue_full":          ErrQueueFull,
	"timeout":             ErrTimeout,
	"canceled":            ErrCanceled,
	"shutting_down":       ErrShuttingDown,
	"stale_entry":         ErrStaleEntry,
	"no_model":            ErrNoModel,
	"circuit_open":        ErrCircuitOpen,
	"learning_disabled":   ErrLearningDisabled,
	"unknown_fingerprint": ErrUnknownFingerprint,
	"fault_injected":      ErrFaultInjected,
	"checksum_mismatch":   ErrChecksumMismatch,
	"bad_request":         ErrBadRequest,
	"invalid_model":       ErrInvalidModel,
	"unavailable":         ErrUnavailable,
	"internal":            ErrInternal,
	"admission_rejected":  ErrAdmissionRejected,
	"no_replica":          ErrNoReplica,
	"backend_unavailable": ErrBackendUnavailable,
}

// SentinelForCode returns the exported sentinel a wire code decodes to.
// The second result is false for codes outside the stable set.
func SentinelForCode(code string) (error, bool) {
	s, ok := sentinelByCode[code]
	return s, ok
}

// KnownCodes returns the stable wire codes this client maps to sentinels,
// sorted; tests assert it stays in sync with the serve and gateway lists.
func KnownCodes() []string {
	out := make([]string, 0, len(sentinelByCode))
	for code := range sentinelByCode {
		out = append(out, code)
	}
	sort.Strings(out)
	return out
}

// APIError is a non-2xx response decoded from the error envelope. Status is
// always set; Code is empty when the body was not a well-formed envelope
// (then the sentinel is derived from the status alone).
type APIError struct {
	Status  int
	Code    string
	Message string
}

func (e *APIError) Error() string {
	if e.Code == "" {
		return fmt.Sprintf("client: http %d: %s", e.Status, e.Message)
	}
	return fmt.Sprintf("client: http %d %s: %s", e.Status, e.Code, e.Message)
}

// Unwrap yields the sentinel for the wire code, so
// errors.Is(err, client.ErrQueueFull) works on any decoded error.
func (e *APIError) Unwrap() error {
	if s, ok := sentinelByCode[e.Code]; ok {
		return s
	}
	// No (or unknown) code: classify by status so transportless callers
	// still get coarse errors.Is behavior.
	switch e.Status {
	case http.StatusTooManyRequests:
		return ErrQueueFull
	case http.StatusBadRequest:
		return ErrBadRequest
	case http.StatusServiceUnavailable:
		return ErrUnavailable
	case serve.StatusClientClosedRequest:
		return ErrCanceled
	}
	return ErrInternal
}
