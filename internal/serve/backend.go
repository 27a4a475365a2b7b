package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
)

// Backend is the surface a fronting tier (the gateway) needs from one serve
// replica: a stable identity, request forwarding, and nothing else — health
// probing rides the same Call path against /healthz. Two implementations
// exist: InProcessBackend wraps a *Server directly (tests, benchmarks,
// single-binary deployments) and the gateway package's HTTPBackend dials a
// remote replica.
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

// Recorder is the in-process http.ResponseWriter: what InProcessBackend, the
// client's handler transport and the load generator's HandlerTarget hand a
// handler in place of a connection (net/http/httptest is test-flavored and
// allocates more than these hot paths want). It keeps net/http's rule that
// the first WriteHeader, or a Write that comes before any, fixes the status.
// The zero value is ready to use.
type Recorder struct {
	// DiscardBody drops what the handler writes, for callers that read only
	// the status.
	DiscardBody bool

	header http.Header
	status int
	body   bytes.Buffer
}

// Header implements http.ResponseWriter.
func (r *Recorder) Header() http.Header {
	if r.header == nil {
		r.header = make(http.Header)
	}
	return r.header
}

// WriteHeader implements http.ResponseWriter.
func (r *Recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

// Write implements http.ResponseWriter.
func (r *Recorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	if r.DiscardBody {
		return len(p), nil
	}
	return r.body.Write(p)
}

// Status is the response status: 200 when the handler never set one.
func (r *Recorder) Status() int {
	if r.status == 0 {
		return http.StatusOK
	}
	return r.status
}

// Body is what the handler wrote; it shares the recorder's storage.
func (r *Recorder) Body() []byte { return r.body.Bytes() }

// MethodFor is the one rule by which every transport of the repo — this
// in-process backend, the typed client, the load generator's handler target —
// picks a request's method: POST for the /v1/* API, whatever the body (an
// empty /v1/reload is valid), GET for everything else. The path decides, so a
// recorded trace replays the same in process and over HTTP.
func MethodFor(path string) string {
	if strings.HasPrefix(path, "/v1/") {
		return http.MethodPost
	}
	return http.MethodGet
}

// Call implements Backend by synchronously running the server's handler.
func (b *InProcessBackend) Call(ctx context.Context, path string, body []byte) (int, []byte, error) {
	if b.down.Load() {
		return 0, nil, fmt.Errorf("serve: backend %s is down", b.name)
	}
	req, err := http.NewRequestWithContext(ctx, MethodFor(path), "http://"+b.name+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, fmt.Errorf("serve: backend %s: %w", b.name, err)
	}
	var w Recorder
	b.srv.ServeHTTP(&w, req)
	return w.Status(), append([]byte(nil), w.Body()...), nil
}
