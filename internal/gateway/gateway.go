// Package gateway is the scale-out serving tier: one endpoint surface
// (/v1/predict, /v1/tune, /healthz, /metrics) fronting N serve replicas —
// in-process backends for tests and single-binary deployments, a
// *client.Client per remote replica for real clusters.
//
// The request path composes four stages:
//
//  1. Admission: a token bucket per SLO class (declared via the X-SLO-Class
//     header, default best-effort) rejects over-rate classes with the
//     stable 429 envelope before they consume any gateway resources.
//  2. Queueing: admitted requests take a bounded dispatch slot, parking when
//     the replicas are saturated — higher class priority first, arrival
//     order within a priority.
//  3. Routing: body-fingerprint affinity (rendezvous hashing, so each
//     replica's plan and body caches shard naturally) picks a healthy
//     replica; transport failures retry on the next-best replica and feed
//     consecutive-failure ejection.
//  4. Forwarding: the raw body and the X-SLO-Class header are proxied
//     through serve.Backend.Call; replica responses, including error
//     envelopes, pass through byte-for-byte with an X-Gateway-Replica header
//     naming the backend that answered.
//
// Health is active and passive: a probe loop ejects replicas that fail
// consecutively (probes or forwards) and readmits them after a seeded
// jittered backoff, with every probabilistic decision drawn from the
// fault package's deterministic uniform stream. The gateway.route and
// gateway.probe injection points make replica loss and rebalancing
// chaos-testable with byte-stable event logs.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"zerotune/internal/fault"
	"zerotune/internal/obs"
	"zerotune/internal/serve"
)

// endpointNames fixes the per-endpoint stat keys and render order.
var endpointNames = []string{"predict", "tune", "healthz", "metrics"}

// Defaults of Options, declared here and nowhere else; the CLI's flags read
// them.
const (
	DefaultQueueDepth           = 256
	DefaultConcurrentPerReplica = 8 // MaxConcurrent per replica fronted
	DefaultFailThreshold        = 3
	DefaultProbeInterval        = time.Second
	DefaultSeed                 = 1
)

// forwardRetries is how many more replicas a request tries after a transport
// failure, at most one fewer than the pool holds.
const forwardRetries = 2

// SelfMetric is the histogram, in seconds, of what a proxied request costs at
// the gateway itself: its handler time less the time it parked for a dispatch
// slot (zerotune_gateway_queue_wait_seconds) and the time its forwards took
// (zerotune_gateway_forward_duration_seconds) — admission, routing, the body
// read and the response write.
const SelfMetric = "zerotune_gateway_self_seconds"

// Options configures a Gateway.
type Options struct {
	// QueueDepth bounds how many admitted requests may park waiting for a
	// slot (default DefaultQueueDepth); beyond it requests get 429 queue_full.
	QueueDepth int
	// MaxConcurrent bounds forwards in flight across all replicas
	// (default DefaultConcurrentPerReplica × replicas).
	MaxConcurrent int
	// Classes is the SLO class set (default: one unlimited best-effort
	// class). The best-effort class is appended when absent.
	Classes []ClassConfig
	// FailThreshold ejects a replica after this many consecutive
	// transport/probe failures (default DefaultFailThreshold).
	FailThreshold int
	// ProbeInterval is the background health-probe period (default
	// DefaultProbeInterval). Negative disables the loop — tests drive
	// Pool().Probe directly for determinism.
	ProbeInterval time.Duration
	// RequestTimeout bounds each forward attempt (default
	// serve.DefaultRequestTimeout; negative disables).
	RequestTimeout time.Duration
	// Seed drives every probabilistic health decision (rejoin backoff jitter,
	// default DefaultSeed); same seed + same failure sequence = same transitions.
	Seed uint64
}

// WithDefaults fills unset options for a gateway over this many replicas.
func (o Options) WithDefaults(replicas int) Options {
	if o.QueueDepth < 1 {
		o.QueueDepth = DefaultQueueDepth
	}
	if o.MaxConcurrent < 1 {
		o.MaxConcurrent = DefaultConcurrentPerReplica * replicas
	}
	if o.FailThreshold < 1 {
		o.FailThreshold = DefaultFailThreshold
	}
	if o.ProbeInterval == 0 {
		o.ProbeInterval = DefaultProbeInterval
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = serve.DefaultRequestTimeout
	} else if o.RequestTimeout < 0 {
		o.RequestTimeout = 0
	}
	if o.Seed == 0 {
		o.Seed = DefaultSeed
	}
	return o
}

// Gateway fronts a replica pool behind one HTTP surface.
type Gateway struct {
	opts       Options
	maxRetries int // forwardRetries, capped by the pool
	reg        *obs.Registry
	pool       *Pool
	adm        *admission
	queue      *dispatchQueue
	routes     *serve.RouteTable
	now        func() time.Time // the admission clock; package tests drive it

	endpoints map[string]*obs.Endpoint
	self      *obs.Histogram // SelfMetric
	spillover *obs.Counter
	routed    map[string]*obs.Counter // per-replica routing decisions
	retries   *obs.Counter

	start     time.Time
	boundAddr atomic.Pointer[string]

	stopOnce sync.Once
	stop     chan struct{}
	probes   sync.WaitGroup
}

// New builds a gateway over the given replicas. Backend names must be
// unique — affinity hashes them and metrics label by them.
func New(backends []serve.Backend, opts Options) (*Gateway, error) {
	if len(backends) == 0 {
		return nil, errors.New("gateway: no backends")
	}
	if len(backends) > 64 {
		return nil, fmt.Errorf("gateway: %d backends exceeds the 64-replica pool bound", len(backends))
	}
	seen := make(map[string]bool, len(backends))
	for _, b := range backends {
		if b.Name() == "" {
			return nil, errors.New("gateway: backend with empty name")
		}
		if seen[b.Name()] {
			return nil, fmt.Errorf("gateway: duplicate backend name %q", b.Name())
		}
		seen[b.Name()] = true
	}
	opts = opts.WithDefaults(len(backends))
	reg := obs.NewRegistry()
	adm, err := newAdmission(opts.Classes, reg)
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		opts:       opts,
		maxRetries: min(forwardRetries, len(backends)-1),
		reg:        reg,
		pool:       newPool(backends, opts.Seed, opts.FailThreshold, reg),
		adm:        adm,
		queue:      newDispatchQueue(opts.MaxConcurrent, opts.QueueDepth),
		routes:     serve.NewRouteTable(),
		now:        time.Now,
		endpoints:  make(map[string]*obs.Endpoint, len(endpointNames)),
		self:       reg.Histogram(SelfMetric),
		spillover:  reg.Counter("zerotune_gateway_spillover_total"),
		retries:    reg.Counter("zerotune_gateway_forward_retries_total"),
		routed:     make(map[string]*obs.Counter, len(backends)),
		start:      time.Now(),
		stop:       make(chan struct{}),
	}
	for _, name := range endpointNames {
		g.endpoints[name] = obs.NewEndpoint(reg, "zerotune_gateway", name)
	}
	for _, r := range g.pool.Replicas() {
		g.routed[r.Name()] = reg.Counter("zerotune_gateway_route_decisions_total", obs.L("replica", r.Name()))
	}
	reg.GaugeFunc("zerotune_gateway_fairness_jain", g.adm.jainFairness)
	reg.GaugeFunc("zerotune_gateway_queue_depth", func() float64 { return float64(g.queue.depth()) })
	reg.GaugeFunc("zerotune_gateway_replicas_healthy", func() float64 { return float64(g.pool.HealthyCount()) })
	reg.GaugeFunc("zerotune_gateway_uptime_seconds", func() float64 { return time.Since(g.start).Seconds() })
	obs.RegisterRuntime(reg)

	g.routes.HandleFunc("POST /v1/predict", g.endpoints["predict"].Wrap(g.proxyHandler("predict")))
	g.routes.HandleFunc("POST /v1/tune", g.endpoints["tune"].Wrap(g.proxyHandler("tune")))
	g.routes.HandleFunc("GET /healthz", g.endpoints["healthz"].Wrap(g.handleHealthz))
	g.routes.HandleFunc("GET /metrics", g.endpoints["metrics"].Wrap(g.handleMetrics))
	return g, nil
}

// Start launches the background probe loop (no-op when ProbeInterval < 0).
func (g *Gateway) Start() {
	if g.opts.ProbeInterval <= 0 {
		return
	}
	g.probes.Add(1)
	go func() {
		defer g.probes.Done()
		t := time.NewTicker(g.opts.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-t.C:
				ctx, cancel := forwardContext(context.Background(), g.opts.RequestTimeout)
				g.pool.Probe(ctx)
				cancel()
			}
		}
	}()
}

// Close stops the probe loop. In-flight requests are the HTTP server's to
// drain; the gateway holds no request state of its own.
func (g *Gateway) Close() {
	g.stopOnce.Do(func() { close(g.stop) })
	g.probes.Wait()
}

// Pool exposes the replica pool (tests drive probes through it).
func (g *Gateway) Pool() *Pool { return g.pool }

// Routes is the route table ServeHTTP answers from.
func (g *Gateway) Routes() *serve.RouteTable { return g.routes }

// Metrics returns the gateway's metrics registry.
func (g *Gateway) Metrics() *obs.Registry { return g.reg }

// SetBoundAddr records the gateway's own listener address for /healthz.
func (g *Gateway) SetBoundAddr(addr string) { g.boundAddr.Store(&addr) }

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.routes.ServeHTTP(w, r) }

// forwardContext bounds one forward attempt; a non-positive timeout means
// no per-attempt deadline beyond the parent's.
func forwardContext(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return context.WithCancel(parent)
	}
	return context.WithTimeout(parent, d)
}

// maxPresize bounds, in bytes, the declared request length the gateway
// allocates before reading: a plan body is a few KB, and a longer declared
// length is taken as a claim, not a size, so that a client that declares
// MaxBodyBytes and sends nothing does not hold that much of the heap. Such a
// body is read into storage that grows with what arrives.
const maxPresize = 64 << 10

// replicaHeader is the answer header naming the replica that answered, in
// canonical form.
const replicaHeader = "X-Gateway-Replica"

// proxyHandler builds the forwarding handler for one /v1 endpoint.
func (g *Gateway) proxyHandler(endpoint string) http.HandlerFunc {
	path := "/v1/" + endpoint
	return func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		// away is the time this request spends parked or at a replica; the
		// rest of the handler is the gateway's own.
		var away time.Duration
		defer func() {
			g.self.Observe((time.Since(w.(*obs.StatusWriter).Started()) - away).Seconds())
		}()
		// The body is read into storage of its own, presized to a declared
		// length up to maxPresize, and never recycled: a replica abandoned
		// mid-call (client.NewForHandler's watchdog) or a RoundTripper may
		// still read it after the forward returns.
		var buf []byte
		if n := r.ContentLength; n >= 0 && n <= maxPresize {
			buf = make([]byte, 0, n+1) // the spare byte reads the EOF
		}
		body, err := serve.ReadBody(r, buf)
		if err != nil {
			serve.WriteError(w, http.StatusBadRequest, fmt.Errorf("gateway: read request: %w", err))
			return
		}

		// Stage 1: admission. The class header goes on to the replica with
		// every forward, carried by the context.
		var class string
		if v := r.Header[serve.SLOClassHeader]; len(v) > 0 {
			class = v[0]
		}
		ctx = serve.WithSLOClass(ctx, class)
		cls := g.adm.class(class)
		if !cls.Allow(g.now()) {
			cls.rejected.Inc()
			serve.WriteError(w, http.StatusTooManyRequests, serve.ErrAdmissionRejected)
			return
		}
		cls.admitted.Inc()

		// Stage 2: a dispatch slot, in class-priority order.
		enq := time.Now()
		if err := g.queue.acquire(ctx, cls.cfg.Priority); err != nil {
			serve.WriteError(w, serve.FailureStatus(err), err)
			return
		}
		defer g.queue.release()
		parked := time.Since(enq)
		away += parked
		cls.queueWait.Observe(parked.Seconds())

		// Stages 3+4: route and forward, retrying transport failures on the
		// next-best replica. The affinity key is the replica body cache's
		// own key, so byte-identical requests always route together;
		// semantically-identical-but-differently-encoded requests still
		// coalesce inside whichever replica owns each encoding.
		key := serve.HashBody(body)
		replicas := g.pool.Replicas()
		var tried uint64
		var lastErr error
		for failures := 0; failures <= g.maxRetries; {
			rep, spill := pick(replicas, key, tried)
			if rep == nil {
				break
			}
			if tried != 0 {
				g.retries.Inc()
			}
			tried |= 1 << uint(rep.idx)
			if spill {
				g.spillover.Inc()
			}
			g.routed[rep.Name()].Inc()
			if err := fault.Inject(fault.GatewayRoute); err != nil {
				g.pool.recordFailure(rep)
				lastErr = err
				failures++
				continue
			}
			rep.requests.Inc()
			rep.noteDispatch()
			fctx, cancel := forwardContext(ctx, g.opts.RequestTimeout)
			fstart := time.Now()
			status, resp, err := rep.backend.Call(fctx, path, body)
			cancel()
			rep.noteDone()
			took := time.Since(fstart)
			away += took
			rep.forwardS.Observe(took.Seconds())
			if err != nil {
				// Transport failure: the replica never answered. Feed
				// ejection and try the next-best replica — unless the client
				// itself is gone.
				g.pool.recordFailure(rep)
				lastErr = err
				if ctx.Err() != nil {
					break
				}
				failures++
				continue
			}
			g.pool.recordSuccess(rep)
			if status >= 200 && status < 300 {
				cls.goodput.Inc()
			}
			writeReplica(w, rep, status, resp)
			return
		}

		switch {
		case ctx.Err() != nil && errors.Is(ctx.Err(), context.Canceled):
			err = context.Canceled
		case lastErr == nil:
			err = serve.ErrNoReplica
		default:
			err = fmt.Errorf("%w: %w", serve.ErrBackendUnavailable, lastErr)
		}
		serve.WriteError(w, serve.FailureStatus(err), err)
	}
}

// writeReplica passes a replica's answer through byte-for-byte, naming the
// replica.
func writeReplica(w http.ResponseWriter, rep *Replica, status int, resp []byte) {
	h := w.Header()
	serve.SetJSONContentType(h)
	h[replicaHeader] = rep.header
	w.WriteHeader(status)
	_, _ = w.Write(resp)
}

// HealthResponse is the gateway's /healthz payload.
type HealthResponse struct {
	// Status is "ok" (all healthy), "degraded" (some ejected) or
	// "unavailable" (nothing routable; served as 503).
	Status string `json:"status"`
	// Addr is the gateway's own bound listener address, when recorded.
	Addr     string          `json:"addr,omitempty"`
	Replicas []ReplicaHealth `json:"replicas"`
}

// ReplicaHealth is one pool member's health view.
type ReplicaHealth struct {
	Name        string `json:"name"`
	State       string `json:"state"` // "healthy" | "ejected"
	Outstanding int64  `json:"outstanding"`
	Ejections   uint64 `json:"ejections"`
	Rejoins     uint64 `json:"rejoins"`
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	var resp HealthResponse
	if p := g.boundAddr.Load(); p != nil {
		resp.Addr = *p
	}
	healthy := 0
	for _, rep := range g.pool.Replicas() {
		state := "ejected"
		if rep.Healthy() {
			state = "healthy"
			healthy++
		}
		resp.Replicas = append(resp.Replicas, ReplicaHealth{
			Name:        rep.Name(),
			State:       state,
			Outstanding: rep.Outstanding(),
			Ejections:   rep.ejections.Load(),
			Rejoins:     rep.rejoins.Load(),
		})
	}
	status := http.StatusOK
	switch {
	case healthy == 0:
		resp.Status = "unavailable"
		status = http.StatusServiceUnavailable
	case healthy < len(resp.Replicas):
		resp.Status = "degraded"
	default:
		resp.Status = "ok"
	}
	serve.WriteJSON(w, status, resp)
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = g.reg.WritePrometheus(w)
}

// Summary renders the shutdown digest: per-endpoint traffic, per-class
// admission/goodput, per-replica routing and health transitions, and the
// final fairness index.
func (g *Gateway) Summary() string {
	var b []byte
	w := func(format string, args ...any) { b = fmt.Appendf(b, format, args...) }
	w("gateway: uptime %s, %d/%d replicas healthy\n",
		time.Since(g.start).Round(time.Millisecond), g.pool.HealthyCount(),
		len(g.pool.Replicas()))
	for _, name := range endpointNames {
		ep := g.endpoints[name]
		if n := ep.Requests(); n > 0 {
			w("gateway: %-8s %6d requests, %d errors\n", name, n, ep.Errors.Load())
		}
	}
	for _, c := range g.adm.ordered {
		w("gateway: class %-12s admitted=%d rejected=%d goodput=%d\n",
			c.cfg.Name, c.admitted.Load(), c.rejected.Load(), c.goodput.Load())
	}
	for _, r := range g.pool.Replicas() {
		w("gateway: replica %-12s routed=%d failures=%d ejections=%d rejoins=%d\n",
			r.Name(), g.routed[r.Name()].Load(), r.failures.Load(),
			r.ejections.Load(), r.rejoins.Load())
	}
	w("gateway: spillovers=%d retries=%d fairness=%.3f", g.spillover.Load(),
		g.retries.Load(), g.adm.jainFairness())
	return string(b)
}
