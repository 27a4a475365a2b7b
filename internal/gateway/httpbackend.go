package gateway

import (
	"context"
	"fmt"
	"net/url"
	"time"

	"zerotune/internal/client"
)

// HTTPBackend fronts one remote serve replica over HTTP — the deployment
// counterpart of serve.InProcessBackend. It delegates the wire work to the
// shared typed client (internal/client), which bounds response reads and
// keeps request construction in one place. Transport errors (dial refused,
// reset, timeout) surface as Go errors so the pool's ejection machinery
// sees them; any HTTP response, error envelopes included, passes through
// as (status, body).
type HTTPBackend struct {
	name string
	c    *client.Client
}

// NewHTTPBackend wraps the replica at baseURL (scheme://host:port). The
// name defaults to the URL's host:port when empty. The client timeout is a
// transport-level backstop; per-request deadlines come from the context.
func NewHTTPBackend(name, baseURL string, timeout time.Duration) (*HTTPBackend, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("gateway: backend url %q: %w", baseURL, err)
	}
	c, err := client.New(baseURL, client.WithTimeout(timeout))
	if err != nil {
		return nil, fmt.Errorf("gateway: backend url %q: %w", baseURL, err)
	}
	if name == "" {
		name = u.Host
	}
	return &HTTPBackend{name: name, c: c}, nil
}

// Name implements serve.Backend.
func (b *HTTPBackend) Name() string { return b.name }

// Call implements serve.Backend: POST for /v1/* endpoints, GET otherwise.
func (b *HTTPBackend) Call(ctx context.Context, path string, body []byte) (int, []byte, error) {
	return b.c.Call(ctx, path, body)
}
