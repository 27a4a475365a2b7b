package serve

import (
	"context"
	"errors"
	"net/http"

	"zerotune/internal/artifact"
	"zerotune/internal/fault"
)

// Sentinel errors of the serving stack, replica and gateway alike. Callers
// branch on them with errors.Is, on either side of the wire: the envelope
// writer maps each to its code through wireCodes, and a client's decoded
// envelope matches the sentinel of its code.
var (
	// ErrBatcherClosed is returned for predictions submitted after
	// shutdown began.
	ErrBatcherClosed = errors.New("serve: batcher closed")
	// ErrQueueFull is returned when the batcher's submission queue or the
	// gateway's dispatch wait line is at capacity: backpressure answered
	// with 429 instead of letting requests pile up blocked in the process.
	ErrQueueFull = errors.New("serve: queue full")
	// ErrPredictTimeout is returned when a submitted prediction's batch
	// did not run within the deadline (a wedged or overloaded flush loop);
	// it is answered with 503 so clients fail fast instead of hanging.
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
	// circuit breaker. Clients only see it (as a 503) when the served model
	// has no fallback estimator; otherwise the request is answered degraded.
	ErrCircuitOpen = errors.New("serve: circuit open (learned path unavailable)")
	// ErrAdmissionRejected is returned by the gateway when an SLO class's
	// token bucket is empty: the class is over its contracted rate, which
	// its 429 tells apart from gateway-wide queue pressure.
	ErrAdmissionRejected = errors.New("gateway: admission rejected (SLO class over rate)")
	// ErrNoReplica is returned by the gateway when no healthy replica
	// remains to route to.
	ErrNoReplica = errors.New("gateway: no healthy replica")
	// ErrBackendUnavailable is returned by the gateway when every routable
	// replica failed at the transport level for one request.
	ErrBackendUnavailable = errors.New("gateway: backend unavailable")
)

// StatusClientClosedRequest is nginx's non-standard 499: the client went
// away before the response; no standard code fits a cancelled request.
const StatusClientClosedRequest = 499

// wireCode is one row of the wire error vocabulary.
type wireCode struct {
	code   string
	status int
	// err is the sentinel that carries the code, on the serving side and in a
	// client's decoded envelope; nil for a code read from the status alone.
	err error
	// ctxErr is a context error that carries the code on the serving side
	// only: a client's decoded envelope never matches it, so a server's
	// timeout is not mistaken for the caller's own deadline.
	ctxErr error
	// fallback makes the row the code of its status when no row claims the
	// error.
	fallback bool
}

// wireCodes is the wire error vocabulary: every code either tier writes in
// the envelope `{"error":{"code","message"}}`. An error takes the code of the
// first row whose err or ctxErr it wraps, so order decides between errors
// that wrap two sentinels (an injected fault wrapping a deadline is a
// timeout; a transport failure wrapping one is a timeout, and any other is
// backend_unavailable). An error no row claims takes the code of the first
// fallback row with its status, and internal when none has it.
var wireCodes = []wireCode{
	{code: "queue_full", status: http.StatusTooManyRequests, err: ErrQueueFull, fallback: true},
	{code: "timeout", status: http.StatusServiceUnavailable, err: ErrPredictTimeout, ctxErr: context.DeadlineExceeded},
	{code: "canceled", status: StatusClientClosedRequest, ctxErr: context.Canceled, fallback: true},
	{code: "shutting_down", status: http.StatusServiceUnavailable, err: ErrBatcherClosed},
	{code: "stale_entry", status: http.StatusServiceUnavailable, err: ErrStaleEntry},
	{code: "no_model", status: http.StatusServiceUnavailable, err: ErrNoModel},
	{code: "circuit_open", status: http.StatusServiceUnavailable, err: ErrCircuitOpen},
	{code: "admission_rejected", status: http.StatusTooManyRequests, err: ErrAdmissionRejected},
	{code: "no_replica", status: http.StatusServiceUnavailable, err: ErrNoReplica},
	{code: "backend_unavailable", status: http.StatusServiceUnavailable, err: ErrBackendUnavailable},
	{code: "fault_injected", status: http.StatusServiceUnavailable, err: fault.ErrInjected},
	{code: "checksum_mismatch", status: http.StatusUnprocessableEntity, err: artifact.ErrChecksum},
	{code: "bad_request", status: http.StatusBadRequest, fallback: true},
	{code: "invalid_model", status: http.StatusUnprocessableEntity, fallback: true},
	{code: "unavailable", status: http.StatusServiceUnavailable, fallback: true},
	{code: "method_not_allowed", status: http.StatusMethodNotAllowed, fallback: true},
	{code: "not_found", status: http.StatusNotFound, fallback: true},
	{code: "internal", status: http.StatusInternalServerError, fallback: true},
}

// claiming is the first row that claims err, nil when none does.
func claiming(err error) *wireCode {
	for i := range wireCodes {
		row := &wireCodes[i]
		if (row.err != nil && errors.Is(err, row.err)) || (row.ctxErr != nil && errors.Is(err, row.ctxErr)) {
			return row
		}
	}
	return nil
}

// ErrorCode is the code of the envelope answering err with status.
func ErrorCode(status int, err error) string {
	if row := claiming(err); row != nil {
		return row.code
	}
	for _, row := range wireCodes {
		if row.fallback && row.status == status {
			return row.code
		}
	}
	return wireCodes[len(wireCodes)-1].code
}

// FailureStatus is the status of a failed predict, tune or forward: that of
// the first row claiming err, and 503 when none does.
func FailureStatus(err error) int {
	if row := claiming(err); row != nil {
		return row.status
	}
	return http.StatusServiceUnavailable
}

// SentinelFor is the sentinel a decoded envelope carrying code matches with
// errors.Is; nil for a code with none (canceled, bad_request, invalid_model,
// unavailable, method_not_allowed, not_found, internal), which callers read
// from the code itself.
func SentinelFor(code string) error {
	for _, row := range wireCodes {
		if row.code == code {
			return row.err
		}
	}
	return nil
}

// KnownErrorCodes lists every code either tier can write, in table order.
// Harnesses (the chaos drill) use it to assert that no error response ever
// carries an unmapped code.
func KnownErrorCodes() []string {
	codes := make([]string, len(wireCodes))
	for i, row := range wireCodes {
		codes[i] = row.code
	}
	return codes
}

// WriteError writes the error envelope with status, its code derived from
// err and status by ErrorCode. It is the one writer of both tiers' errors.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, errorResponse{Error: ErrorBody{
		Code: ErrorCode(status, err), Message: err.Error(),
	}})
}
