package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
)

// Backend is the one interface anything uses to call a serving tier: the
// gateway forwarding to and probing a replica, the load generator driving a
// target, the chaos drill's watchdog. Its implementations are
// InProcessBackend (a *Server, in process), loadgen.HandlerTarget (any
// handler, status only) and the typed *client.Client (a base URL, or a handler
// behind a watchdog). Every one of them builds its request with NewRequest, so
// the method, the content type and the SLO class are the same however a tier
// is reached. Per-call metadata rides on the context: WithSLOClass.
type Backend interface {
	// Name identifies the replica. Names must be unique within a pool:
	// affinity routing rendezvous-hashes them, and the pool's metrics label
	// series by them.
	Name() string
	// Call sends body to the replica endpoint at path ("/v1/predict",
	// "/healthz", ...) and returns the HTTP status and response payload.
	// Transport-level failures — the replica process is gone, the
	// connection died — surface as err; application-level failures are a
	// non-2xx status wearing the stable error envelope, with err nil.
	Call(ctx context.Context, path string, body []byte) (status int, resp []byte, err error)
}

// sloClassKey is the context key of WithSLOClass.
type sloClassKey struct{}

// WithSLOClass returns ctx carrying class as the SLO class of every Backend
// call made with it: NewRequest sends it as the SLOClassHeader. An empty
// class returns ctx unchanged.
func WithSLOClass(ctx context.Context, class string) context.Context {
	if class == "" {
		return ctx
	}
	return context.WithValue(ctx, sloClassKey{}, class)
}

// sloClass is the class WithSLOClass put on ctx, "" when none.
func sloClass(ctx context.Context) string {
	class, _ := ctx.Value(sloClassKey{}).(string)
	return class
}

// MethodFor is the one rule by which a call's method is picked: POST for the
// /v1/* API, whatever the body (an empty /v1/reload is valid), GET for
// everything else. The path decides, so a recorded trace replays the same in
// process and over HTTP.
func MethodFor(path string) string {
	if strings.HasPrefix(path, "/v1/") {
		return http.MethodPost
	}
	return http.MethodGet
}

// NewRequest builds the request of every Backend call, in process (base "")
// and over HTTP: method MethodFor(path), URL base+path, body as the payload,
// the JSON content type on a POST, and ctx's SLO class, if any, as the
// SLOClassHeader.
func NewRequest(ctx context.Context, base, path string, body []byte) (*http.Request, error) {
	method := MethodFor(path)
	req, err := http.NewRequestWithContext(ctx, method, base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if method == http.MethodPost {
		req.Header.Set("Content-Type", "application/json")
	}
	if class := sloClass(ctx); class != "" {
		req.Header.Set(SLOClassHeader, class)
	}
	return req, nil
}

// ServeInProcess is the in-process call: it runs h on NewRequest's request in
// the calling goroutine and returns the status and what h wrote. With
// discard, what h writes is dropped, for callers that read only the status.
func ServeInProcess(ctx context.Context, h http.Handler, path string, body []byte, discard bool) (int, []byte, error) {
	req, err := NewRequest(ctx, "", path, body)
	if err != nil {
		return 0, nil, err
	}
	w := recorder{discard: discard}
	h.ServeHTTP(&w, req)
	return w.Status(), w.body.Bytes(), nil
}

// InProcessBackend adapts a *Server to the Backend interface by driving its
// handler directly — no sockets, no serialization beyond the body bytes the
// caller already holds. SetDown simulates a hard replica loss (SIGKILL): every
// Call fails at the transport level until the backend is brought back up,
// which is what lets tests and benchmarks exercise ejection, rerouting and
// rejoin deterministically inside one process.
type InProcessBackend struct {
	name string
	srv  *Server
	down atomic.Bool
}

// NewInProcessBackend wraps srv as a named replica.
func NewInProcessBackend(name string, srv *Server) *InProcessBackend {
	return &InProcessBackend{name: name, srv: srv}
}

// Name implements Backend.
func (b *InProcessBackend) Name() string { return b.name }

// Server returns the wrapped server (tests reach through to install models).
func (b *InProcessBackend) Server() *Server { return b.srv }

// SetDown toggles simulated replica loss: while down, every Call returns a
// transport error without touching the server, exactly like a connection
// refused from a killed process.
func (b *InProcessBackend) SetDown(down bool) { b.down.Store(down) }

// Call implements Backend by synchronously running the server's handler.
func (b *InProcessBackend) Call(ctx context.Context, path string, body []byte) (int, []byte, error) {
	if b.down.Load() {
		return 0, nil, fmt.Errorf("serve: backend %s is down", b.name)
	}
	status, resp, err := ServeInProcess(ctx, b.srv, path, body, false)
	if err != nil {
		return 0, nil, fmt.Errorf("serve: backend %s: %w", b.name, err)
	}
	return status, resp, nil
}

// recorder is the in-process http.ResponseWriter (net/http/httptest is
// test-flavored and allocates more than the hot path wants). It keeps
// net/http's rule that the first WriteHeader, or a Write that comes before
// any, fixes the status.
type recorder struct {
	discard bool
	header  http.Header
	status  int
	body    bytes.Buffer
}

// Header implements http.ResponseWriter.
func (r *recorder) Header() http.Header {
	if r.header == nil {
		r.header = make(http.Header)
	}
	return r.header
}

// WriteHeader implements http.ResponseWriter.
func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

// Write implements http.ResponseWriter.
func (r *recorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	if r.discard {
		return len(p), nil
	}
	return r.body.Write(p)
}

// Status is the response status: 200 when the handler never set one.
func (r *recorder) Status() int {
	if r.status == 0 {
		return http.StatusOK
	}
	return r.status
}
