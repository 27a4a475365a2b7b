package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
)

// Backend is the one interface anything uses to call a serving tier: the
// gateway forwarding to and probing a replica, the load generator driving a
// target, the chaos drill's watchdog. Its implementations are
// InProcessBackend (a *Server, in process), loadgen.HandlerTarget (any
// handler, status only) and the typed *client.Client (a base URL, or a handler
// behind a watchdog). Every one of them sends the request NewRequest builds,
// over HTTP or, through ServeInProcess, from pooled storage, so the method,
// the content type and the SLO class are the same however a tier is reached.
// Per-call metadata rides on the context: WithSLOClass.
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
// call made with it: the call's request carries it as the SLOClassHeader. An
// empty class returns ctx unchanged.
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

// setCallHeader writes into h what every Backend call's request carries, in
// process and over HTTP: the JSON content type on a POST, and class[0], when
// set, as the SLOClassHeader. h keeps class's storage, which it may share
// with nothing else.
func setCallHeader(h http.Header, method string, class *[1]string) {
	if method == http.MethodPost {
		SetJSONContentType(h)
	}
	if class[0] != "" {
		h[SLOClassHeader] = class[:]
	}
}

// NewRequest builds the request of every call over HTTP (base is the
// replica's URL): method MethodFor(path), URL base+path, body as the
// payload, and the header setCallHeader writes. ServeInProcess builds the
// same request in process, from pooled storage.
func NewRequest(ctx context.Context, base, path string, body []byte) (*http.Request, error) {
	method := MethodFor(path)
	req, err := http.NewRequestWithContext(ctx, method, base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	setCallHeader(req.Header, method, &[1]string{sloClass(ctx)})
	return req, nil
}

// ServeInProcess is the in-process call: it runs h in the calling goroutine
// on the request NewRequest would build with base "", and returns the status
// and a copy of what h wrote. With discard, what h writes is dropped, for
// callers that read only the status.
//
// The request, its header, its body reader and the response writer come from
// a pool and go back to it once h returns, so a call allocates only the
// request copy that carries ctx and the answer's copy. body itself is the
// caller's: h reads it in place, and a handler abandoned while it still runs
// (client.NewForHandler abandons a wedged one) still holds it, so the caller
// must not reuse it.
func ServeInProcess(ctx context.Context, h http.Handler, path string, body []byte, discard bool) (int, []byte, error) {
	c := inProcessCalls.Get().(*inProcessCall)
	defer c.release()
	req, err := c.request(ctx, path, body)
	if err != nil {
		return 0, nil, err
	}
	c.w.discard = discard
	h.ServeHTTP(&c.w, req)
	var resp []byte
	if !discard {
		resp = bytes.Clone(c.w.body.Bytes())
	}
	return c.w.Status(), resp, nil
}

// inProcessCalls holds the storage of ServeInProcess's calls.
var inProcessCalls = sync.Pool{New: func() any { return new(inProcessCall) }}

// maxPooledAnswer bounds, in bytes, the answer buffer a pooled call keeps; a
// call that wrote more gives its storage to the collector instead.
const maxPooledAnswer = 64 << 10

// inProcessCall is one in-process call's storage: the last path called and
// its parsed URL, the request's URL, header map and body reader, the class
// value the header points at, and the response writer.
type inProcessCall struct {
	path   string
	parsed url.URL // path, parsed
	url    url.URL // the request's copy, reset from parsed on every call
	header http.Header
	body   callBody
	class  [1]string
	w      recorder
}

// callBody is an in-process request's body: the caller's bytes, read in
// place.
type callBody struct{ bytes.Reader }

// Close implements io.Closer; there is nothing to release.
func (*callBody) Close() error { return nil }

// request builds, on c's storage, the request of a call to path carrying body
// under ctx. Everything a handler could have changed in c's last call is
// reset here: the URL from its parse, the header map cleared.
func (c *inProcessCall) request(ctx context.Context, path string, body []byte) (*http.Request, error) {
	if c.path != path {
		u, err := url.Parse(path)
		if err != nil {
			return nil, err
		}
		c.path, c.parsed = path, *u
	}
	if c.header == nil {
		c.header = make(http.Header)
	}
	clear(c.header)
	method := MethodFor(path)
	c.class[0] = sloClass(ctx)
	setCallHeader(c.header, method, &c.class)
	c.url = c.parsed
	c.body.Reset(body)
	tmpl := http.Request{
		Method:        method,
		URL:           &c.url,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        c.header,
		Body:          &c.body,
		ContentLength: int64(len(body)),
	}
	return tmpl.WithContext(ctx), nil
}

// release drops what c refers to of its last call and returns it to the pool.
func (c *inProcessCall) release() {
	c.body.Reset(nil)
	c.class[0] = ""
	if c.w.body.Cap() > maxPooledAnswer {
		return
	}
	c.w.reset()
	inProcessCalls.Put(c)
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

// reset readies r for another call: no status, nothing written, an empty
// header map.
func (r *recorder) reset() {
	r.status = 0
	r.body.Reset()
	clear(r.header)
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
