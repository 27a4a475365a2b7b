package gateway

import (
	"context"
	"errors"
	"net/http"

	"zerotune/internal/fault"
	"zerotune/internal/serve"
)

// Sentinel errors of the gateway layer. Replica-originated errors pass
// through verbatim (the replicas already speak the stable envelope); these
// cover the failures the gateway itself produces.
var (
	// ErrAdmissionRejected is returned when an SLO class's token bucket is
	// empty — the class is over its contracted rate. Mapped to 429 with
	// code "admission_rejected" so clients can distinguish their own
	// over-rate from gateway-wide queue pressure.
	ErrAdmissionRejected = errors.New("gateway: admission rejected (SLO class over rate)")
	// errGatewayQueueFull is returned when the dispatch queue's wait line
	// is at capacity — gateway-wide backpressure, 429 like the replica
	// batcher's own queue-full.
	errGatewayQueueFull = errors.New("gateway: dispatch queue full")
	// ErrNoReplica is returned when no healthy replica remains to route to.
	ErrNoReplica = errors.New("gateway: no healthy replica")
	// ErrBackendUnavailable is returned when every routable replica failed
	// at the transport level for one request (all retries exhausted).
	ErrBackendUnavailable = errors.New("gateway: backend unavailable")
	// errProbeUnhealthy marks a probe that reached a replica that answered
	// non-200 — alive, but not fit to serve.
	errProbeUnhealthy = errors.New("gateway: replica probe answered non-200")
)

// gatewayErrorCode maps a gateway-originated error to the stable code of
// the shared error envelope.
func gatewayErrorCode(status int, err error) string {
	switch {
	case errors.Is(err, ErrAdmissionRejected):
		return "admission_rejected"
	case errors.Is(err, errGatewayQueueFull):
		return "queue_full"
	case errors.Is(err, ErrNoReplica):
		return "no_replica"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, ErrBackendUnavailable):
		return "backend_unavailable"
	case fault.IsInjected(err):
		return "fault_injected"
	}
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusTooManyRequests:
		return "queue_full"
	case serve.StatusClientClosedRequest:
		return "canceled"
	case http.StatusServiceUnavailable:
		return "unavailable"
	default:
		return "internal"
	}
}

// KnownErrorCodes lists every code a gateway response may carry: the
// gateway's own plus everything a fronted replica can emit (replica error
// bodies pass through byte-for-byte). Chaos harnesses assert against this
// set.
func KnownErrorCodes() []string {
	own := []string{"admission_rejected", "no_replica", "backend_unavailable"}
	return append(own, serve.KnownErrorCodes()...)
}

// writeError writes the shared error envelope with the gateway code map.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, struct {
		Error serve.ErrorBody `json:"error"`
	}{serve.ErrorBody{Code: gatewayErrorCode(status, err), Message: err.Error()}})
}
