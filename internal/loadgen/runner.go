package loadgen

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"zerotune/internal/client"
	"zerotune/internal/serve"
)

// Target abstracts the system under load: an in-process handler (serve
// replica or gateway driven directly, no sockets) or a remote HTTP base URL.
type Target interface {
	// Do sends body to path with the given SLO class and returns the HTTP
	// status. Transport-level failures return err; application errors are a
	// non-2xx status with err nil (mirroring serve.Backend).
	Do(ctx context.Context, path, class string, body []byte) (status int, err error)
}

// HandlerTarget drives an http.Handler in-process — both *serve.Server and
// *gateway.Gateway implement http.Handler, so one adapter load-tests either
// tier without network noise.
type HandlerTarget struct{ Handler http.Handler }

// Do implements Target.
func (t HandlerTarget) Do(ctx context.Context, path, class string, body []byte) (int, error) {
	req, err := http.NewRequestWithContext(ctx, serve.MethodFor(path), "http://loadgen"+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if class != "" {
		req.Header.Set(serve.SLOClassHeader, class)
	}
	w := serve.Recorder{DiscardBody: true}
	t.Handler.ServeHTTP(&w, req)
	return w.Status(), nil
}

// HTTPTarget sends requests to a remote base URL through the shared typed
// client (internal/client) — the one request/decode implementation of the
// repo, which also bounds response reads. Build it with NewHTTPTarget.
type HTTPTarget struct {
	c *client.Client
}

// NewHTTPTarget wraps the endpoint at base ("http://host:port"). A nil hc
// uses the client's default *http.Client.
func NewHTTPTarget(base string, hc *http.Client) (*HTTPTarget, error) {
	opts := []client.Option{}
	if hc != nil {
		opts = append(opts, client.WithHTTPClient(hc))
	}
	c, err := client.New(base, opts...)
	if err != nil {
		return nil, fmt.Errorf("loadgen: %w", err)
	}
	return &HTTPTarget{c: c}, nil
}

// Do implements Target.
func (t *HTTPTarget) Do(ctx context.Context, path, class string, body []byte) (int, error) {
	status, _, err := t.c.Call(ctx, path, body, client.WithSLOClass(class))
	if err != nil {
		return 0, err
	}
	return status, nil
}

// Result is one request's outcome. Latency is measured from the *intended*
// send time, so scheduler or client-side backpressure shows up in the
// numbers instead of being coordinated away.
type Result struct {
	Seq    int           // schedule position
	Offset time.Duration // intended send time (from run start)
	Class  string
	Status int  // HTTP status; 0 on transport error
	Err    bool // transport-level failure

	// Latency = completion − intended send (coordinated-omission-free).
	Latency time.Duration
	// Service = completion − actual send: what a closed-loop client would
	// have reported. The gap between the two is the queueing delay the
	// correction recovers.
	Service time.Duration
	// SendLag = actual send − intended send (scheduler + in-flight-cap
	// backpressure).
	SendLag time.Duration
}

// DefaultMaxInFlight caps the requests one run keeps outstanding.
const DefaultMaxInFlight = 1024

// RunOptions configures one open-loop run.
type RunOptions struct {
	Target Target
	// MaxInFlight caps outstanding requests (default DefaultMaxInFlight).
	// When the cap is hit the sender blocks — the wait is charged to the
	// affected requests' latency via the intended-time measurement, so the
	// cap degrades gracefully instead of hiding overload.
	MaxInFlight int
	// Timeout bounds each request (serve.DefaultRequestTimeout; <0 disables).
	Timeout time.Duration
}

// WithDefaults fills unset options.
func (o RunOptions) WithDefaults() RunOptions {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = DefaultMaxInFlight
	}
	if o.Timeout == 0 {
		o.Timeout = serve.DefaultRequestTimeout
	}
	return o
}

// Run fires the schedule open-loop against the target and returns one
// Result per request, in schedule order. Requests are dispatched at their
// intended offsets regardless of earlier responses; completions land
// concurrently. ctx cancellation stops the sender between dispatches.
func Run(ctx context.Context, reqs []Request, opts RunOptions) ([]Result, error) {
	if opts.Target == nil {
		return nil, fmt.Errorf("loadgen: RunOptions.Target is required")
	}
	opts = opts.WithDefaults()

	results := make([]Result, len(reqs))
	sem := make(chan struct{}, opts.MaxInFlight)
	var wg sync.WaitGroup
	start := time.Now()

	for i, r := range reqs {
		intended := start.Add(r.Offset)
		if d := time.Until(intended); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				wg.Wait()
				return results[:i], ctx.Err()
			}
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			wg.Wait()
			return results[:i], ctx.Err()
		}
		wg.Add(1)
		go func(seq int, req Request, intended time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			rctx := ctx
			var cancel context.CancelFunc
			if opts.Timeout > 0 {
				rctx, cancel = context.WithTimeout(ctx, opts.Timeout)
				defer cancel()
			}
			sent := time.Now()
			status, err := opts.Target.Do(rctx, req.Path, req.Class, req.Body)
			done := time.Now()
			results[seq] = Result{
				Seq:     seq,
				Offset:  req.Offset,
				Class:   req.Class,
				Status:  status,
				Err:     err != nil,
				Latency: done.Sub(intended),
				Service: done.Sub(sent),
				SendLag: sent.Sub(intended),
			}
		}(i, r, intended)
	}
	wg.Wait()
	return results, nil
}
