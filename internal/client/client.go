// Package client is the one HTTP client of the zerotune serving stack: a
// typed Go API over /v1/predict, /v1/tune, /v1/feedback, /v1/reload and
// /healthz that decodes the stack's stable error envelope
// `{"error":{"code","message"}}` into exported sentinel errors.
//
// Everything in the repo that speaks the wire protocol — the gateway's
// remote-replica backend, the load harness's remote target, the chaos
// driver — goes through this package, so there is exactly one place that
// builds requests, bounds response reads (io.LimitReader; a misbehaving
// backend cannot balloon memory), and maps wire codes to errors.
//
// Two transports share every code path above them: New dials a base URL
// over a real *http.Client, NewForHandler drives an http.Handler in
// process. The handler transport deliberately shields the handler from the
// caller's context and abandons the in-flight call when that context ends —
// the semantics a watchdog harness needs to detect a wedged handler instead
// of deadlocking on it.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"zerotune/internal/serve"
)

// Client issues requests against one serving endpoint (a serve replica or a
// gateway — both speak the same protocol). Safe for concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	handler http.Handler
	maxBody int64
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (connection pools,
// custom transports). Ignored by handler-backed clients.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) {
		if hc != nil {
			c.hc = hc
		}
	}
}

// WithTimeout sets a transport-level per-request backstop on the underlying
// HTTP client. Per-call deadlines still come from the context.
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.hc.Timeout = d }
}

// WithMaxResponseBytes bounds response-body reads (default
// serve.MaxBodyBytes, the server's own request-body cap).
func WithMaxResponseBytes(n int64) Option {
	return func(c *Client) {
		if n > 0 {
			c.maxBody = n
		}
	}
}

// New builds a client for the endpoint at baseURL (scheme://host[:port]).
func New(baseURL string, opts ...Option) (*Client, error) {
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
	c := &Client{
		base:    strings.TrimRight(u.String(), "/"),
		hc:      &http.Client{},
		maxBody: serve.MaxBodyBytes,
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// NewForHandler builds a client that drives h in process — no sockets. Each
// call runs h.ServeHTTP on its own goroutine against a private recorder;
// the handler sees an uncancellable context, and if the caller's context
// ends first the call is abandoned (the goroutine keeps running, its
// response is discarded) and the context's error is returned as a transport
// error. That makes a wedged handler observable as context.DeadlineExceeded
// instead of a deadlock — exactly what the chaos driver's stuck-request
// watchdog relies on.
func NewForHandler(h http.Handler, opts ...Option) *Client {
	c := &Client{
		base:    "http://in-process",
		hc:      &http.Client{},
		handler: h,
		maxBody: serve.MaxBodyBytes,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Base returns the base URL requests are issued against.
func (c *Client) Base() string { return c.base }

// CallOption adjusts one request.
type CallOption func(*http.Request)

// WithSLOClass stamps the request with the gateway's SLO-class header.
func WithSLOClass(class string) CallOption {
	return func(r *http.Request) {
		if class != "" {
			r.Header.Set(serve.SLOClassHeader, class)
		}
	}
}

// WithHeader sets one request header.
func WithHeader(key, value string) CallOption {
	return func(r *http.Request) { r.Header.Set(key, value) }
}

// Call is the raw protocol primitive, mirroring serve.Backend.Call: the
// method is serve.MethodFor(path); transport-level failures return err; any
// HTTP response — error envelopes included — passes through as (status,
// body) with the body read bounded. The typed methods are built on it.
func (c *Client) Call(ctx context.Context, path string, body []byte, opts ...CallOption) (int, []byte, error) {
	method := serve.MethodFor(path)
	var rd io.Reader
	if method == http.MethodPost {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if method == http.MethodPost {
		req.Header.Set("Content-Type", "application/json")
	}
	for _, o := range opts {
		o(req)
	}
	if c.handler != nil {
		return c.callHandler(req)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, c.maxBody))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}

// handlerResult is one in-process call's outcome, handed over the channel
// so an abandoned call's recorder is never touched by the caller again.
type handlerResult struct {
	status int
	body   []byte
}

// callHandler serves req on the in-process handler, honoring the request
// context by abandonment (see NewForHandler).
func (c *Client) callHandler(req *http.Request) (int, []byte, error) {
	// The handler must not observe the caller's cancellation: the watchdog
	// contract is "detect a stuck handler", and cancelling the request would
	// instead unwedge handlers that respect their context.
	inner := req.WithContext(context.WithoutCancel(req.Context()))
	if inner.Body == nil {
		// Handlers are written against net/http's guarantee of a non-nil
		// Body; uphold it on the in-process transport too.
		inner.Body = http.NoBody
	}
	done := make(chan handlerResult, 1)
	go func() {
		var rec serve.Recorder
		c.handler.ServeHTTP(&rec, inner)
		body := rec.Body()
		if int64(len(body)) > c.maxBody {
			body = body[:c.maxBody]
		}
		done <- handlerResult{status: rec.Status(), body: body}
	}()
	select {
	case res := <-done:
		return res.status, res.body, nil
	case <-req.Context().Done():
		return 0, nil, req.Context().Err()
	}
}

// do runs one typed round trip: marshal in (nil means empty body), issue
// the call, and either decode a 2xx body into out or decode the error
// envelope into an *APIError.
func (c *Client) do(ctx context.Context, path string, in, out any, opts ...CallOption) error {
	var body []byte
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encode %s request: %w", path, err)
		}
		body = b
	}
	status, data, err := c.Call(ctx, path, body, opts...)
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
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err == nil && env.Error.Code != "" {
		return &APIError{Status: status, Code: env.Error.Code, Message: env.Error.Message}
	}
	msg := strings.TrimSpace(string(body))
	if len(msg) > maxRawMessage {
		// The cut may split a rune; drop what is left of it.
		msg = strings.ToValidUTF8(msg[:maxRawMessage], "")
	}
	return &APIError{Status: status, Message: msg}
}
