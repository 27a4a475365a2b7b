package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"zerotune/internal/fault"
	"zerotune/internal/serve"
)

// funcBackend is a replica whose every call is answered by call.
type funcBackend struct {
	name string
	call func(ctx context.Context) (int, []byte, error)
}

func (b funcBackend) Name() string { return b.name }

func (b funcBackend) Call(ctx context.Context, _ string, _ []byte) (int, []byte, error) {
	return b.call(ctx)
}

// failing is a replica whose transport always fails with err.
func failing(err error) serve.Backend {
	return funcBackend{"r", func(context.Context) (int, []byte, error) { return 0, nil, err }}
}

// blocking is a replica whose calls report on entered, then hold until
// release closes or the call's context ends.
func blocking(entered chan<- struct{}, release <-chan struct{}) serve.Backend {
	return funcBackend{"r", func(ctx context.Context) (int, []byte, error) {
		entered <- struct{}{}
		select {
		case <-release:
			return http.StatusOK, []byte("{}\n"), nil
		case <-ctx.Done():
			return 0, nil, ctx.Err()
		}
	}}
}

// pinGateway is a one-replica gateway with probes off.
func pinGateway(t *testing.T, b serve.Backend, opts Options) *Gateway {
	t.Helper()
	opts.ProbeInterval = -1
	g, err := New([]serve.Backend{b}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

// post sends one /v1/predict through g and returns its status and envelope
// code ("" for a body that is not the envelope).
func post(ctx context.Context, g *Gateway, class string, body []byte) (int, string) {
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)).WithContext(ctx)
	if class != "" {
		req.Header.Set(serve.SLOClassHeader, class)
	}
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, req)
	var env envelope
	_ = json.Unmarshal(rec.Body.Bytes(), &env)
	return rec.Code, env.Error.Code
}

// parkBehind fills g's only dispatch slot with a request that holds until
// the test ends, then parks a request with ctx behind it and returns what
// that request got once park has run on the parked gateway.
func parkBehind(t *testing.T, ctx context.Context, park func(*Gateway)) (int, string) {
	t.Helper()
	entered, release := make(chan struct{}, 1), make(chan struct{})
	g := pinGateway(t, blocking(entered, release), Options{MaxConcurrent: 1, QueueDepth: 1})
	holder := make(chan struct{})
	go func() { post(context.Background(), g, "", []byte("{}")); close(holder) }()
	<-entered
	type answer struct {
		status int
		code   string
	}
	parked := make(chan answer, 1)
	go func() { s, c := post(ctx, g, "", []byte("{}")); parked <- answer{s, c} }()
	for g.queue.depth() != 1 {
		time.Sleep(100 * time.Microsecond)
	}
	park(g)
	a := <-parked
	close(release)
	<-holder
	return a.status, a.code
}

// TestGatewayWireCodesPinned pins the (status, code) of every error the
// gateway writes itself, driven through its HTTP surface with replicas that
// fail on cue: its admission, dispatch-queue and forward failures, the three
// ways a forward ends in backend_unavailable, and a replica's own envelope
// passing through. A refactor of how codes are derived must leave them be.
func TestGatewayWireCodesPinned(t *testing.T) {
	ok := funcBackend{"r", func(context.Context) (int, []byte, error) { return http.StatusOK, []byte("{}\n"), nil }}
	cases := []struct {
		name   string
		run    func(t *testing.T) (int, string)
		status int
		code   string
	}{
		{"oversized body", func(t *testing.T) (int, string) {
			return post(context.Background(), pinGateway(t, ok, Options{}), "", make([]byte, serve.MaxBodyBytes+1))
		}, 400, "bad_request"},
		{"class over rate", func(t *testing.T) (int, string) {
			now := time.Unix(0, 0)
			g := pinGateway(t, ok, Options{Classes: []ClassConfig{{Name: "gold", Rate: 1, Burst: 1}}})
			g.now = func() time.Time { return now }
			post(context.Background(), g, "gold", []byte("{}"))
			return post(context.Background(), g, "gold", []byte("{}"))
		}, 429, "admission_rejected"},
		{"dispatch queue full", func(t *testing.T) (int, string) {
			var status int
			var code string
			ctx, cancel := context.WithCancel(context.Background())
			parkBehind(t, ctx, func(g *Gateway) {
				status, code = post(context.Background(), g, "", []byte("{}"))
				cancel()
			})
			return status, code
		}, 429, "queue_full"},
		{"client gone while parked", func(t *testing.T) (int, string) {
			ctx, cancel := context.WithCancel(context.Background())
			return parkBehind(t, ctx, func(*Gateway) { cancel() })
		}, 499, "canceled"},
		{"deadline while parked", func(t *testing.T) (int, string) {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			return parkBehind(t, ctx, func(*Gateway) {})
		}, 503, "timeout"},
		{"replica transport fails", func(t *testing.T) (int, string) {
			return post(context.Background(), pinGateway(t, failing(errors.New("connection refused")), Options{}), "", []byte("{}"))
		}, 503, "backend_unavailable"},
		{"replica transport times out", func(t *testing.T) (int, string) {
			g := pinGateway(t, failing(fmt.Errorf("post: %w", context.DeadlineExceeded)), Options{})
			return post(context.Background(), g, "", []byte("{}"))
		}, 503, "timeout"},
		{"injected route fault", func(t *testing.T) (int, string) {
			reg := fault.New(1)
			reg.Install(fault.Schedule{Point: fault.GatewayRoute, Mode: fault.ModeError, Every: 1})
			fault.Activate(reg)
			defer fault.Deactivate()
			return post(context.Background(), pinGateway(t, ok, Options{}), "", []byte("{}"))
		}, 503, "backend_unavailable"},
		{"every replica ejected", func(t *testing.T) (int, string) {
			g := pinGateway(t, failing(errors.New("connection refused")), Options{FailThreshold: 1})
			post(context.Background(), g, "", []byte("{}"))
			return post(context.Background(), g, "", []byte("{}"))
		}, 503, "no_replica"},
		{"client gone mid-forward", func(t *testing.T) (int, string) {
			entered, release := make(chan struct{}, 1), make(chan struct{})
			defer close(release)
			g := pinGateway(t, blocking(entered, release), Options{})
			ctx, cancel := context.WithCancel(context.Background())
			go func() { <-entered; cancel() }()
			return post(ctx, g, "", []byte("{}"))
		}, 499, "canceled"},
		{"replica envelope passes through", func(t *testing.T) (int, string) {
			g := pinGateway(t, funcBackend{"r", func(context.Context) (int, []byte, error) {
				return http.StatusServiceUnavailable, []byte(`{"error":{"code":"no_model","message":"m"}}`), nil
			}}, Options{})
			return post(context.Background(), g, "", []byte("{}"))
		}, 503, "no_model"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if status, code := c.run(t); status != c.status || code != c.code {
				t.Errorf("got %d %q, want %d %q", status, code, c.status, c.code)
			}
		})
	}
}

// bodyBackend is a replica that answers 200 and keeps the last body it was
// sent.
type bodyBackend struct{ got *[]byte }

func (bodyBackend) Name() string { return "r" }

func (b bodyBackend) Call(_ context.Context, _ string, body []byte) (int, []byte, error) {
	*b.got = bytes.Clone(body)
	return http.StatusOK, []byte("{}\n"), nil
}

// TestGatewayBodyEdges: the gateway forwards exactly the bytes it read, up to
// and including MaxBodyBytes, whatever the request declares as its length; a
// body past the limit is the 400 envelope with http.MaxBytesReader's text; and
// a declared length past maxPresize is not taken as the size to read into.
func TestGatewayBodyEdges(t *testing.T) {
	const small = 3000
	cases := []struct {
		name     string
		size     int
		declared int64 // the request's ContentLength; 0 declares the size sent
		status   int
		maxAlloc uint64 // bytes the request may allocate; 0 is unchecked
	}{
		{"exactly the limit", serve.MaxBodyBytes, 0, http.StatusOK, 0},
		{"undeclared length", small, -1, http.StatusOK, 0},
		{"undeclared length past the limit", serve.MaxBodyBytes + 1, -1, http.StatusBadRequest, 0},
		{"declared shorter than sent", small, 10, http.StatusOK, 0},
		{"declared longer than sent", small, 2 * small, http.StatusOK, 0},
		{"declared past the presize bound", small, serve.MaxBodyBytes, http.StatusOK, 1 << 20},
		{"declared past the limit", small, serve.MaxBodyBytes + 1, http.StatusOK, 1 << 20},
		{"declared beyond any buffer", small, 1 << 62, http.StatusOK, 1 << 20},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var got []byte
			g := pinGateway(t, bodyBackend{&got}, Options{})
			body := make([]byte, c.size)
			for i := range body {
				body[i] = byte('a' + i%26)
			}
			req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
			if c.declared != 0 {
				req.ContentLength = c.declared
			}
			rec := httptest.NewRecorder()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			g.ServeHTTP(rec, req)
			runtime.ReadMemStats(&after)
			if rec.Code != c.status {
				t.Fatalf("status %d (%.200s), want %d", rec.Code, rec.Body.Bytes(), c.status)
			}
			if c.status == http.StatusOK && !bytes.Equal(got, body) {
				t.Errorf("forwarded %d bytes, want the %d sent", len(got), len(body))
			}
			if c.status == http.StatusBadRequest {
				var env envelope
				_ = json.Unmarshal(rec.Body.Bytes(), &env)
				if want := "gateway: read request: http: request body too large"; env.Error.Code != "bad_request" || env.Error.Message != want {
					t.Errorf("envelope %+v, want bad_request %q", env.Error, want)
				}
				if got != nil {
					t.Errorf("the replica was sent %d bytes", len(got))
				}
			}
			if n := after.TotalAlloc - before.TotalAlloc; c.maxAlloc != 0 && n > c.maxAlloc {
				t.Errorf("the request allocated %d bytes, want at most %d", n, c.maxAlloc)
			}
		})
	}
}
