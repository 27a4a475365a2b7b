package loadgen

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"zerotune/internal/serve"
)

// HandlerTarget drives an http.Handler in process as a serve.Backend — both
// *serve.Server and *gateway.Gateway implement http.Handler, so one adapter
// load-tests either tier without network noise. It reads only the status:
// Call returns no payload.
type HandlerTarget struct{ Handler http.Handler }

// Name implements serve.Backend.
func (HandlerTarget) Name() string { return "in-process" }

// Call implements serve.Backend.
func (t HandlerTarget) Call(ctx context.Context, path string, body []byte) (int, []byte, error) {
	return serve.ServeInProcess(ctx, t.Handler, path, body, true)
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
	// Target is what the run drives; each request's Class rides on its
	// context (serve.WithSLOClass).
	Target serve.Backend
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
			rctx := serve.WithSLOClass(ctx, req.Class)
			var cancel context.CancelFunc
			if opts.Timeout > 0 {
				rctx, cancel = context.WithTimeout(rctx, opts.Timeout)
				defer cancel()
			}
			sent := time.Now()
			status, _, err := opts.Target.Call(rctx, req.Path, req.Body)
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
