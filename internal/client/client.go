// Package client is the one HTTP client of the zerotune serving stack: a
// typed Go API over /v1/predict, /v1/tune, /v1/reload and /healthz that decodes the stack's stable error envelope
// `{"error":{"code","message"}}` into an *APIError that errors.Is-matches the
// serve sentinel of its code.
//
// A *Client is a serve.Backend: the gateway fronts a remote replica with
// one, `zerotune bench -target` drives one, the chaos drill watches one.
// Requests are serve.NewRequest's, so the SLO class rides on the context
// (serve.WithSLOClass); response reads are bounded at serve.MaxBodyBytes, so
// a misbehaving backend cannot balloon memory; and wire codes map to errors
// through serve's one code table.
//
// Two transports share every code path above them: New dials a base URL
// over HTTP, NewForHandler drives an http.Handler in process. The handler
// transport deliberately shields the handler from the caller's cancellation
// and abandons the in-flight call when that context ends — the semantics a
// watchdog harness needs to detect a wedged handler instead of deadlocking
// on it.
package client

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"zerotune/internal/serve"
)

// Client issues requests against one serving endpoint (a serve replica or a
// gateway — both speak the same protocol) and is itself a serve.Backend, which
// is how the gateway fronts a remote replica. Safe for concurrent use.
type Client struct {
	name    string
	base    string
	handler http.Handler
}

// New builds a client for the endpoint at baseURL (scheme://host[:port]),
// named by its host:port.
func New(baseURL string) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: base url %q: %w", baseURL, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("client: base url %q: scheme must be http or https", baseURL)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("client: base url %q: missing host", baseURL)
	}
	return &Client{name: u.Host, base: strings.TrimRight(u.String(), "/")}, nil
}

// NewForHandler builds a client that drives h in process — no sockets. Each
// call runs serve.ServeInProcess on its own goroutine; the handler sees the
// caller's context without its cancellation, and if the caller's context ends
// first the call is abandoned (the goroutine keeps running, its response is
// discarded) and the context's error is returned as a transport error. That
// makes a wedged handler observable as context.DeadlineExceeded instead of a
// deadlock — exactly what the chaos drill's stuck-request watchdog relies on.
func NewForHandler(h http.Handler) *Client {
	return &Client{name: "in-process", handler: h}
}

// Named returns a copy of c whose serve.Backend name is name.
func (c *Client) Named(name string) *Client {
	cp := *c
	cp.name = name
	return &cp
}

// Name implements serve.Backend.
func (c *Client) Name() string { return c.name }

// Base returns the base URL requests are issued against ("" in process).
func (c *Client) Base() string { return c.base }

// Call is the raw protocol primitive and implements serve.Backend: the
// request is serve.NewRequest's; transport-level failures return err; any
// HTTP response — error envelopes included — passes through as (status,
// body), the body read bounded at serve.MaxBodyBytes. The typed methods are
// built on it.
func (c *Client) Call(ctx context.Context, path string, body []byte) (int, []byte, error) {
	if c.handler != nil {
		return c.callHandler(ctx, path, body)
	}
	req, err := serve.NewRequest(ctx, c.base, path, body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, serve.MaxBodyBytes))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}

// handlerResult is one in-process call's outcome, handed over the channel
// so an abandoned call's response is never touched by the caller again.
type handlerResult struct {
	status int
	body   []byte
	err    error
}

// callHandler serves one call on the in-process handler, honoring the
// caller's context by abandonment (see NewForHandler).
func (c *Client) callHandler(ctx context.Context, path string, body []byte) (int, []byte, error) {
	// The handler must not observe the caller's cancellation: the watchdog
	// contract is "detect a stuck handler", and cancelling the request would
	// instead unwedge handlers that respect their context.
	inner := context.WithoutCancel(ctx)
	done := make(chan handlerResult, 1)
	go func() {
		status, resp, err := serve.ServeInProcess(inner, c.handler, path, body, false)
		done <- handlerResult{status, resp[:min(len(resp), serve.MaxBodyBytes)], err}
	}()
	select {
	case res := <-done:
		return res.status, res.body, res.err
	case <-ctx.Done():
		return 0, nil, ctx.Err()
	}
}

// do runs one typed round trip: marshal in (nil means empty body), issue
// the call, and either decode a 2xx body into out or decode the error
// envelope into an *APIError.
func (c *Client) do(ctx context.Context, path string, in, out any) error {
	var body []byte
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encode %s request: %w", path, err)
		}
		body = b
	}
	status, data, err := c.Call(ctx, path, body)
	if err != nil {
		return err
	}
	if status < 200 || status > 299 {
		return decodeAPIError(status, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("client: decode %s response: %w", path, err)
		}
	}
	return nil
}

// maxRawMessage bounds, in bytes, the APIError.Message taken from a body that
// is not the error envelope.
const maxRawMessage = 256

// decodeAPIError turns a non-2xx response into an *APIError, tolerating
// bodies that are not the envelope (proxies, panics mid-write).
func decodeAPIError(status int, body []byte) error {
	var env struct {
		Error serve.ErrorBody `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err == nil && env.Error.Code != "" {
		return &APIError{Status: status, Code: env.Error.Code, Message: env.Error.Message}
	}
	msg := strings.TrimSpace(string(body))
	if len(msg) > maxRawMessage {
		// The cut may split a rune; drop what is left of it.
		msg = strings.ToValidUTF8(msg[:maxRawMessage], "")
	}
	return &APIError{Status: status, Code: serve.ErrorCode(status, nil), Message: msg}
}
