package client

import (
	"fmt"

	"zerotune/internal/serve"
)

// APIError is a non-2xx response decoded from the error envelope
// `{"error":{"code","message"}}`. Status is always set. Code is the
// envelope's, or, for a body that is not the envelope (a proxy's page, a
// panic mid-write), the code serve gives Status alone. Callers branch with
// errors.Is on the serve sentinel of the code (errors.Is(err,
// serve.ErrQueueFull)), or on Code for a code with none (canceled,
// bad_request, ...): see serve.SentinelFor.
type APIError struct {
	Status  int
	Code    string
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: http %d %s: %s", e.Status, e.Code, e.Message)
}

// Unwrap yields the serve sentinel of the code, nil for a code with none. A
// server-side timeout or cancellation never matches the caller's own
// context.DeadlineExceeded or context.Canceled.
func (e *APIError) Unwrap() error { return serve.SentinelFor(e.Code) }
