// Package serve exposes a trained ZeroTune model as an online HTTP
// prediction/tuning service — the request path of the north-star system:
// many small cost queries over a shared read-only model.
//
// The pipeline per /v1/predict request:
//
//  1. Wire: decode the plan + cluster spec (the canonical queryplan JSON).
//  2. Encode: featurize the plan under the model's mask — the same graph a
//     direct core.Predict call would evaluate — into storage the request
//     borrows from the server and returns once the batcher is done with it.
//     A placed plan is read by node name; any other is placed as
//     cluster.PlaceWith would place it, in the graph, not in the request.
//  3. Fingerprint + cache: a canonical hash over the featurized graph
//     keys a bounded LRU with single-flight semantics, so repeated and
//     concurrent-identical plans cost one forward pass.
//  4. Micro-batching: cache leaders queue for the flush loop, which takes
//     whatever is queued (up to 64 plans) and holds the batch open only
//     while another request is on its way here — past the body cache, not
//     yet queued — and then for 2ms at most; a lone request is never held.
//     A flush is one PredictEncodedInto call: the whole batch goes through
//     the compiled engine's fused GEMM instead of N independent forward
//     passes.
//
// /v1/tune runs the optimizer's candidate sweep (itself batched through
// the same inference path). /v1/reload hot-swaps the served model via
// load-validate-swap on an atomic pointer — in-flight predictions keep the
// revision they started with. /healthz reports the active model identity
// and /metrics exports every instrument of the central obs.Registry in the
// Prometheus text format.
//
// Observability is context-first: every handler derives a request context
// that carries the trace (when the server runs in debug mode) and the client's
// cancellation. A disconnected client aborts its queued prediction before
// it joins a batch; a traced request records http.<endpoint> →
// encode.plan / cache.lookup / batcher.enqueue → gnn.forward spans,
// retrievable from /debug/traces when the server runs in debug mode. Traced
// or not, every predict request is timed stage by stage where it runs (Stage)
// into the one set of histograms /metrics and `zerotune bench` read.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"zerotune/internal/cluster"
	"zerotune/internal/fault"
	"zerotune/internal/features"
	"zerotune/internal/gnn"
	"zerotune/internal/obs"
	"zerotune/internal/optimizer"
	"zerotune/internal/queryplan"
	"zerotune/internal/tensor"
)

// The serving pipeline's sizing defaults: the zero Options and the serve
// command's flags both resolve to them.
const (
	// DefaultBatchWindow is the longest the coalescer holds a micro-batch
	// for requests that have announced themselves and not yet enqueued.
	DefaultBatchWindow = 2 * time.Millisecond
	// DefaultMaxBatch flushes a batch early once this many plans queued.
	DefaultMaxBatch = 64
	// DefaultQueueFactor sizes the submitted-but-unflushed queue bound as a
	// multiple of MaxBatch.
	DefaultQueueFactor = 4
	// DefaultCacheSize bounds the plan-fingerprint and response caches.
	DefaultCacheSize = 4096
	// DefaultCircuitThreshold is the consecutive-failure count that trips
	// the circuit breaker.
	DefaultCircuitThreshold = 5
	// DefaultCircuitCooldown is how long an open circuit waits before
	// admitting a half-open probe.
	DefaultCircuitCooldown = 5 * time.Second
	// DefaultRequestTimeout bounds one request at every tier that waits on
	// one: a replica's predict, a gateway forward, a load-generator call.
	DefaultRequestTimeout = 30 * time.Second
)

// Options configures the server.
type Options struct {
	// BatchWindow is the upper bound on how long the coalescer holds a batch
	// for requests that are on their way to it; with nobody on the way a
	// batch flushes at once, whatever this says (default DefaultBatchWindow;
	// negative never waits, flushing whatever has queued).
	BatchWindow time.Duration
	// MaxBatch flushes a batch early once this many plans queued
	// (default DefaultMaxBatch).
	MaxBatch int
	// CacheSize bounds the plan-fingerprint cache (default DefaultCacheSize entries).
	CacheSize int
	// RequestTimeout bounds how long a predict request waits for its
	// micro-batch to run before failing with 503 — a wedged or overloaded
	// flush loop must not hang clients (default DefaultRequestTimeout;
	// negative disables the deadline).
	RequestTimeout time.Duration
	// Debug records request traces and exposes the debug surface: GET
	// /debug/traces (the completed trace ring as JSON) and /debug/pprof/.
	// Off by default — pprof and traces can leak operational detail, so
	// exposing them is a deliberate operator choice.
	Debug bool
	// CircuitThreshold is how many consecutive forward-path failures
	// (inference errors or timeouts) trip the circuit breaker, after which
	// predictions degrade to the model's fallback estimator until a probe
	// succeeds (default DefaultCircuitThreshold; negative disables the breaker).
	CircuitThreshold int
	// CircuitCooldown is how long an open circuit waits before admitting a
	// half-open probe onto the learned path (default DefaultCircuitCooldown).
	CircuitCooldown time.Duration
	// Compiled is accepted and ignored: every model the registry takes is
	// compiled (see Registry), so there is nothing left to switch. The field
	// survives only because benchmark/fixture.go sets it and a change to the
	// serving code may not edit the benchmark that measures it; the next
	// benchmark change deletes both (ROADMAP item 3(b)).
	Compiled bool
}

// WithDefaults fills unset options.
func (o Options) WithDefaults() Options {
	if o.BatchWindow == 0 {
		o.BatchWindow = DefaultBatchWindow
	}
	if o.MaxBatch < 1 {
		o.MaxBatch = DefaultMaxBatch
	}
	if o.CacheSize < 1 {
		o.CacheSize = DefaultCacheSize
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = DefaultRequestTimeout
	} else if o.RequestTimeout < 0 {
		o.RequestTimeout = 0
	}
	if o.CircuitThreshold == 0 {
		o.CircuitThreshold = DefaultCircuitThreshold
	} else if o.CircuitThreshold < 0 {
		o.CircuitThreshold = 0 // disabled
	}
	if o.CircuitCooldown <= 0 {
		o.CircuitCooldown = DefaultCircuitCooldown
	}
	return o
}

// Server is the HTTP serving layer over a model registry.
type Server struct {
	opts     Options
	reg      *Registry
	cache    *Cache
	resp     *respCache
	stages   [NumStages]*obs.Histogram // StageMetric, by Stage
	bodyBufs sync.Pool                 // *[]byte request-body read buffers
	scratch  sync.Pool                 // *predictScratch
	batcher  *Batcher
	stats    *Stats
	breaker  *breaker
	tracer   *obs.Tracer
	routes   *RouteTable
	// boundAddr is the listener address actually serving this server, set by
	// the cmd layer once the listener is bound. With -addr :0 the kernel
	// picks the port, and /healthz is where tests and a fronting gateway
	// read it back without parsing logs.
	boundAddr atomic.Pointer[string]
}

// fusedCounts reads the fusion counters of the serving revision's engine
// (zero before the first install; they restart with every revision).
func (s *Server) fusedCounts() (graphs, passes uint64) {
	if entry := s.reg.Current(); entry != nil {
		return entry.ZT.Compiled().FusedCounts()
	}
	return 0, 0
}

// New builds a server around an empty registry; install a model with
// Registry().Install or ServeModelFile before serving predictions.
func New(opts Options) *Server {
	opts = opts.WithDefaults()
	reg := obs.NewRegistry()
	s := &Server{
		opts:   opts,
		reg:    NewRegistry(),
		stats:  NewStats(reg),
		routes: NewRouteTable(),
	}
	if opts.Debug {
		s.tracer = obs.NewTracer(obs.DefaultRingSize)
	}
	s.resp = newRespCache(opts.CacheSize)
	for _, st := range Stages() {
		s.stages[st] = reg.Histogram(StageMetric, obs.L("stage", st.String()))
	}
	// Every body hit is timed once as StageBodyHit, so that count is the hits.
	reg.CounterFunc("zerotune_respcache_body_hits_total", s.stages[StageBodyHit].Count)
	s.bodyBufs.New = func() any { b := make([]byte, 0, 4096); return &b }
	s.scratch.New = func() any { return &predictScratch{item: batchItem{done: make(chan struct{}, 1)}} }
	s.cache = NewCacheWithCounters(opts.CacheSize, CacheCounters{
		Hits:      reg.Counter("zerotune_cache_hits_total"),
		Coalesced: reg.Counter("zerotune_cache_coalesced_total"),
		Misses:    reg.Counter("zerotune_cache_misses_total"),
		Evictions: reg.Counter("zerotune_cache_evictions_total"),
	})
	reg.GaugeFunc("zerotune_cache_size", func() float64 { return float64(s.cache.Stats().Size) })
	// Fusion of the serving revision's compiled engine: graphs / passes is
	// how many graphs share a pass of GEMMs; near 1 means nothing fuses.
	reg.GaugeFunc("zerotune_fused_graphs_total", func() float64 {
		graphs, _ := s.fusedCounts()
		return float64(graphs)
	})
	reg.GaugeFunc("zerotune_fused_passes_total", func() float64 {
		_, passes := s.fusedCounts()
		return float64(passes)
	})
	// Which GEMM kernel this process selected: a p50 that differs between two
	// boxes can be pinned on the ISA from outside.
	reg.SetInfo("zerotune_gemm_kernel_info", obs.L("kernel", tensor.Kernel()))
	if s.tracer != nil {
		reg.GaugeFunc("zerotune_traces_completed_total", func() float64 {
			completed, _ := s.tracer.Stats()
			return float64(completed)
		})
		reg.GaugeFunc("zerotune_traces_dropped_total", func() float64 {
			_, dropped := s.tracer.Stats()
			return float64(dropped)
		})
	}
	s.breaker = newBreaker(breakerConfig{
		Threshold: opts.CircuitThreshold,
		Cooldown:  opts.CircuitCooldown,
		OnOpen:    func() { s.stats.CircuitOpens.Inc() },
	})
	reg.GaugeFunc("zerotune_circuit_state", func() float64 { return float64(s.breaker.State()) })
	// Queue bound 0: DefaultQueueFactor×MaxBatch.
	s.batcher = NewBatcher(opts.BatchWindow, opts.MaxBatch, 0, opts.RequestTimeout, func(n int) {
		s.stats.Batches.Add(1)
		s.stats.Inferences.Add(uint64(n))
		s.stats.BatchSizes.Observe(float64(n))
	})
	// Why a batch had the size it had, from outside the process: how many
	// requests are on their way to the batcher right now, and which clause of
	// collectDecision released each batch.
	reg.GaugeFunc("zerotune_predict_arriving", func() float64 { return float64(s.batcher.Arriving()) })
	for _, r := range []FlushReason{FlushIdle, FlushFull, FlushWindow} {
		reg.GaugeFunc("zerotune_batch_flush_total",
			func() float64 { return float64(s.batcher.flushes[r].Load()) }, obs.L("reason", r.String()))
	}
	// The forward pass runs through the gnn.forward injection point so chaos
	// and tests can fail or stall inference without touching the model. The
	// prediction slice persists across flushes — the closure runs only on the
	// batcher's single flush goroutine, and the batcher copies results out
	// before the next flush — so a compiled model's steady-state flush path
	// does not allocate.
	var flushPreds []gnn.Prediction
	s.batcher.SetForward(func(entry *ModelEntry, graphs []*features.Graph) ([]gnn.Prediction, error) {
		if err := fault.Inject(fault.GNNForward); err != nil {
			return nil, err
		}
		flushPreds = entry.ZT.PredictEncodedInto(flushPreds, graphs)
		return flushPreds, nil
	})
	s.routes.HandleFunc("POST /v1/predict", s.instrument("predict", s.handlePredict))
	s.routes.HandleFunc("POST /v1/tune", s.instrument("tune", s.handleTune))
	s.routes.HandleFunc("POST /v1/reload", s.instrument("reload", s.handleReload))
	s.routes.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.routes.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	if opts.Debug {
		obs.RegisterDebug(s.routes, s.tracer)
	}
	return s
}

// Tracer returns the server's tracer, nil when tracing is disabled.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// Metrics returns the metrics registry serving /metrics.
func (s *Server) Metrics() *obs.Registry { return s.stats.Registry() }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.routes.ServeHTTP(w, r) }

// Routes is the route table ServeHTTP answers from.
func (s *Server) Routes() *RouteTable { return s.routes }

// Registry exposes the model registry (startup installs, tests).
func (s *Server) Registry() *Registry { return s.reg }

// Circuit reports the breaker's current position.
func (s *Server) Circuit() CircuitState { return s.breaker.State() }

// SetBoundAddr records the listener address this server is reachable at
// (host:port after the kernel resolved a :0 ephemeral port); /healthz
// reports it.
func (s *Server) SetBoundAddr(addr string) { s.boundAddr.Store(&addr) }

// BoundAddr returns the recorded listener address, "" when never set.
func (s *Server) BoundAddr() string {
	if p := s.boundAddr.Load(); p != nil {
		return *p
	}
	return ""
}

// ServeModelFile loads, validates and installs the model at path.
func (s *Server) ServeModelFile(path string) (*ModelEntry, error) {
	_, e, err := s.reg.Swap(path)
	if err != nil {
		return nil, err
	}
	s.cache.Clear()
	s.resp.clear()
	return e, nil
}

// Close drains the coalescer. Call after the HTTP listener has shut down
// (handlers must be done submitting).
func (s *Server) Close() { s.batcher.Close() }

// Summary renders the shutdown digest of every counter.
func (s *Server) Summary() string {
	return s.stats.Summary(s.cache.Stats(), s.bodyHits(), s.batcher.Flushes(), s.reg.Current())
}

// Snapshot flattens the counters for tests and callers.
func (s *Server) Snapshot() Snapshot {
	snap := Snapshot{
		Requests:     make(map[string]uint64, len(endpointNames)),
		Errors:       make(map[string]uint64, len(endpointNames)),
		Batches:      s.stats.Batches.Load(),
		Inferences:   s.stats.Inferences.Load(),
		MaxBatch:     s.stats.BatchSizes.Snapshot().Max,
		Flushes:      s.batcher.Flushes(),
		Arriving:     s.batcher.Arriving(),
		Reloads:      s.stats.Reloads.Load(),
		Degraded:     s.stats.Degraded.Load(),
		CircuitOpens: s.stats.CircuitOpens.Load(),
		Cache:        s.cache.Stats(),
		BodyHits:     s.bodyHits(),
	}
	for _, name := range endpointNames {
		ep := s.stats.Endpoint(name)
		snap.Requests[name] = ep.Requests()
		snap.Errors[name] = ep.Errors.Load()
	}
	return snap
}

// bodyHits is how many requests the body cache answered.
func (s *Server) bodyHits() uint64 { return s.stages[StageBodyHit].Count() }

// instrument wraps a handler with request accounting and — when a tracer is
// configured — a root span per request whose trace ID is reflected back in
// the X-Trace-Id response header. With tracing disabled the wrapper adds one
// nil check and nothing else.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	return s.stats.Endpoint(name).Wrap(func(w http.ResponseWriter, r *http.Request) {
		if s.tracer != nil {
			ctx, span := obs.StartTrace(r.Context(), s.tracer, "http."+name)
			w.Header().Set("X-Trace-Id", span.TraceID)
			r = r.WithContext(ctx)
			defer func() {
				span.SetAttr("status", w.(*obs.StatusWriter).Status())
				span.End()
			}()
		}
		h(w, r)
	})
}

// activeModel fetches the served model or reports 503.
func (s *Server) activeModel(w http.ResponseWriter) *ModelEntry {
	entry := s.reg.Current()
	if entry == nil {
		WriteError(w, http.StatusServiceUnavailable, ErrNoModel)
		return nil
	}
	return entry
}

// acquireRetries bounds how many stale-entry or injected-acquire failures a
// predict request retries (with jittered backoff) before surfacing the error.
const acquireRetries = 3

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	// The request's stages are timed from where its endpoint latency is, and
	// its latency ends where its last stage does.
	sw := w.(*obs.StatusWriter)
	clock := stageClock{hist: &s.stages, w: sw, last: sw.Started()}
	// The body is read once: its raw bytes key the outermost response cache,
	// and on a miss the same bytes are decoded. A byte-identical repeat of a
	// recent request skips decode, placement, featurization and inference
	// entirely — the stored response embeds the model ID and the whole cache
	// clears on swap, so it can never outlive its model.
	bufp := s.bodyBufs.Get().(*[]byte)
	defer s.bodyBufs.Put(bufp)
	body, err := readBody(r, (*bufp)[:0])
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	*bufp = body[:0]
	data, bodyKey, ok := s.resp.get(body)
	if ok {
		setJSONContentType(w.Header())
		_, _ = w.Write(data)
		clock.mark(StageBodyHit)
		return
	}
	clock.mark(StageFront)
	// Whatever is left when the handler returns — the answer, or the step that
	// failed and its error — is the request's last stage.
	defer clock.mark(StageRespond)
	// From here the request is on its way to the batcher, and a batch being
	// collected waits for it. Every exit that does not enqueue — each 4xx, no
	// model, a degraded answer, a plan-cache hit, backpressure, a panic —
	// takes the announcement back through this one defer.
	arrival := s.batcher.Announce()
	defer arrival.Withdraw()
	var req PredictRequest
	if err := req.UnmarshalJSON(body); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("serve: decode request: %w", err))
		return
	}
	clock.mark(StageDecode)
	if req.Plan == nil {
		WriteError(w, http.StatusBadRequest, errors.New("serve: request has no plan"))
		return
	}
	// Decoding validates nothing. The plan is judged here, ahead of the
	// breaker, so an invalid one is a 400 whether the learned path or the
	// fallback would have priced it; this is the request's one analysis of
	// its query, and encoding below reuses it and the degree vector.
	sc := s.scratch.Get().(*predictScratch)
	defer s.putScratch(sc)
	deg, err := req.Plan.AnalyzeIn(&sc.topo, sc.deg)
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("serve: invalid plan: %w", err))
		return
	}
	sc.deg = deg
	instances := 0
	for _, d := range req.Plan.Parallelism {
		if instances += d; d > MaxPlanInstances || instances > MaxPlanInstances {
			WriteError(w, http.StatusBadRequest,
				fmt.Errorf("serve: plan exceeds the limit of %d operator instances", MaxPlanInstances))
			return
		}
	}
	c, err := req.Cluster.BuildIn(&sc.cluster)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	entry := s.activeModel(w)
	if entry == nil {
		return
	}
	allowed, probe := s.breaker.Admit()
	if !allowed {
		// Circuit open: the learned path is sidestepped entirely; the
		// request is answered by the fallback estimator (or 503 without one).
		s.serveDegraded(w, ctx, entry, req.Plan, c, ErrCircuitOpen)
		return
	}
	clock.mark(StageAnalyse)
	if probe {
		// A probe that exits below without reaching RecordSuccess or
		// RecordFailure (encode error, cache hit, backpressure, injected
		// acquire fault) must hand the half-open slot back, or the breaker
		// would reject every request forever. No-op once the probe resolved.
		defer s.breaker.AbandonProbe()
	}
	// Encode once; the graph is both the cache key and the model input.
	g, err := entry.ZT.EncodePlan(ctx, &sc.enc, &sc.arena, &sc.topo, req.Plan, sc.deg, c)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	clock.mark(StageEncode)
	fp := PlanFingerprint(g, entry.ZT.Mask)
	clock.mark(StageFingerprint)
	acquired := false
	for attempt := 0; ; attempt++ {
		if err := fault.Inject(fault.CacheAcquire); err != nil {
			if attempt < acquireRetries {
				// Nobody should wait for a request that is backing off; when
				// it returns it enqueues unannounced.
				arrival.Withdraw()
				sleepBackoff(attempt)
				continue
			}
			WriteError(w, FailureStatus(err), err)
			return
		}
		_, lookup := obs.StartSpan(ctx, "cache.lookup")
		e, leader := s.cache.Acquire(fp)
		lookup.SetAttr("leader", leader)
		lookup.End()
		if !acquired {
			// Once a request: a stale-entry retry's backoff and re-acquire
			// count towards the wait they end in.
			clock.mark(StagePlanCache)
			acquired = true
		}
		var pred gnn.Prediction
		if leader {
			sc.item.entry, sc.item.g = entry, g
			if pred, err = s.batcher.predict(ctx, &sc.item, &arrival); err == nil {
				clock.markAt(StageQueueWait, arrival.flush.start)
				clock.markAt(StageForward, arrival.flush.end)
				clock.mark(StageWake)
			}
			s.cache.Complete(e, pred, err)
			if err != nil {
				s.finishPredict(w, ctx, entry, req.Plan, c, err)
				return
			}
			s.breaker.RecordSuccess()
		} else {
			// A follower waits on its leader's batch, which must not in turn
			// be waiting for the follower.
			arrival.Withdraw()
			waits := !e.Filled() // a filled entry is a plan-cache hit
			if pred, err = e.Wait(ctx); err != nil {
				// The leader this request attached to failed; its entry is gone,
				// so a bounded number of re-acquires (with jittered backoff, to
				// avoid a retry stampede) run or join a fresh inference instead
				// of reporting the dead leader's transient error as our own.
				if errors.Is(err, ErrStaleEntry) && attempt < acquireRetries {
					sleepBackoff(attempt)
					continue
				}
				WriteError(w, FailureStatus(err), err)
				return
			}
			if waits {
				clock.mark(StageCoalesceWait)
			}
		}
		s.writePredict(w, sc, bodyKey, body, pred, !leader, entry)
		return
	}
}

// predictScratch is the storage a cold predict borrows from the server: the
// plan's analysis and degree vector, a shorthand cluster's nodes, the
// encoder's tables, the graph's arena (the graph's data edges are the
// analysis's), the batch item that carries the graph to the flush loop, and
// the answer's bytes. It goes back to the pool only once the batcher has let
// go of the graph — the item's result was received, or the item was never
// enqueued. A request that leaves on a cancelled context or on
// ErrPredictTimeout while its item is still queued leaves the scratch to the
// collector (putScratch).
type predictScratch struct {
	topo    queryplan.Topology
	cluster cluster.Cluster
	enc     features.Encoder
	arena   features.Arena
	deg     []int
	item    batchItem
	out     []byte
}

// putScratch returns sc to the pool unless the batcher may still read it.
func (s *Server) putScratch(sc *predictScratch) {
	if sc.item.abandoned {
		return
	}
	sc.arena.Reset()
	sc.item.ctx, sc.item.g, sc.item.entry = nil, nil, nil
	s.scratch.Put(sc)
}

// writePredict writes a successful prediction, flagged cached when it came
// from the plan cache, and retains it in the body-level response cache under
// bodyKey, the key its lookup computed, flagged cached for the repeats it
// will answer. Both are one build of the answer, byte for byte what
// encoding/json writes for the PredictResponse: the head with the numbers,
// then "true" or "false", then the model's tail (ModelEntry.predictTail).
func (s *Server) writePredict(w http.ResponseWriter, sc *predictScratch, bodyKey uint64, body []byte,
	pred gnn.Prediction, cached bool, entry *ModelEntry) {
	head := appendPredictHead(sc.out[:0], pred.LatencyMs, pred.ThroughputEPS)
	stored := make([]byte, 0, len(head)+len("true")+len(entry.predictTail))
	stored = append(append(append(stored, head...), "true"...), entry.predictTail...)
	sent := stored
	if !cached {
		sent = append(append(head, "false"...), entry.predictTail...)
		sc.out = sent
	}
	setJSONContentType(w.Header())
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(sent)
	s.resp.put(bodyKey, body, stored)
}

// finishPredict handles a cache leader's forward-path failure: genuine
// inference failures feed the circuit breaker and degrade to the fallback
// estimator; everything else (backpressure, client cancellation, shutdown)
// maps straight to its error status.
func (s *Server) finishPredict(w http.ResponseWriter, ctx context.Context, entry *ModelEntry,
	p *queryplan.PQP, c *cluster.Cluster, err error) {
	if !isForwardFailure(err) {
		WriteError(w, FailureStatus(err), err)
		return
	}
	s.breaker.RecordFailure()
	s.serveDegraded(w, ctx, entry, p, c, err)
}

// isForwardFailure classifies errors that indict the learned forward path —
// inference errors, panics, injected faults, and batch deadline expiry — as
// opposed to conditions the breaker must not trip on: queue backpressure,
// client cancellation, shutdown, and stale cache entries.
func isForwardFailure(err error) bool {
	switch {
	case errors.Is(err, ErrQueueFull),
		errors.Is(err, ErrBatcherClosed),
		errors.Is(err, ErrStaleEntry),
		errors.Is(err, context.Canceled):
		return false
	default:
		return true
	}
}

// serveDegraded answers a predict request from the model's fallback
// estimator with "degraded": true. Without a fallback (old artifacts) the
// cause is surfaced as a 503 with its mapped error code.
func (s *Server) serveDegraded(w http.ResponseWriter, ctx context.Context, entry *ModelEntry,
	p *queryplan.PQP, c *cluster.Cluster, cause error) {
	fb := entry.ZT.Fallback
	if fb == nil {
		WriteError(w, FailureStatus(cause), cause)
		return
	}
	_, span := obs.StartSpan(ctx, "fallback.predict")
	lat, tpt := fb.Predict(p, c)
	span.End()
	s.stats.Degraded.Inc()
	WriteJSON(w, http.StatusOK, PredictResponse{
		LatencyMs: lat, ThroughputEPS: tpt,
		ModelID: entry.ID, Degraded: true, Fallback: fb.Kind,
	})
}

// MaxRandomCandidates bounds TuneRequest.RandomCandidates. Every candidate
// costs an encode and a forward pass and /v1/tune runs under no deadline, so
// an unbounded count would let one request pin a core for as long as it
// liked; 64 times the default explores far past where the winner moves.
const MaxRandomCandidates = 1024

func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) {
	// Read and decoded as /v1/predict's body is: the pooled buffer, the
	// request's own decoder, the same two errors.
	bufp := s.bodyBufs.Get().(*[]byte)
	defer s.bodyBufs.Put(bufp)
	body, err := readBody(r, (*bufp)[:0])
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	*bufp = body[:0]
	var req TuneRequest
	if err := req.UnmarshalJSON(body); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("serve: decode request: %w", err))
		return
	}
	c, err := req.Cluster.Build()
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	entry := s.activeModel(w)
	if entry == nil {
		return
	}
	opts := optimizer.DefaultTuneOptions()
	if req.Weight != nil {
		opts.Weight = *req.Weight
	}
	if req.RandomCandidates != nil {
		if n := *req.RandomCandidates; n < 0 || n > MaxRandomCandidates {
			WriteError(w, http.StatusBadRequest,
				fmt.Errorf("serve: random_candidates %d outside [0,%d]", n, MaxRandomCandidates))
			return
		}
		opts.RandomCandidates = *req.RandomCandidates
	}
	if req.Seed != 0 {
		opts.Seed = req.Seed
	}
	// The what-if sweep is the model's forward pass, so it answers to the
	// same injection point as the batcher's.
	var res *optimizer.TuneResult
	if err = fault.Inject(fault.GNNForward); err == nil {
		res, err = entry.ZT.Tune(r.Context(), req.Query, c, opts)
	}
	if err != nil {
		// What the request got wrong is a 400; a client that hung up or a
		// sweep that failed is not the caller's bad request.
		status := FailureStatus(err)
		var input *optimizer.InputError
		if errors.As(err, &input) {
			status = http.StatusBadRequest
		}
		WriteError(w, status, err)
		return
	}
	WriteJSON(w, http.StatusOK, TuneResponse{
		Degrees:       degreesByOp(res.Plan),
		DegreesVector: res.Plan.DegreesVector(),
		LatencyMs:     res.Estimate.LatencyMs,
		ThroughputEPS: res.Estimate.ThroughputEPS,
		Candidates:    res.Candidates,
		Cost:          res.Cost,
		ModelID:       entry.ID,
	})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	defer drainBody(r)
	var req ReloadRequest
	// An empty body is a valid "reload what you're serving" request.
	if err := decodeJSON(w, r, &req); err != nil && !errors.Is(err, io.EOF) {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	path := req.Path
	if path == "" {
		if cur := s.reg.Current(); cur != nil {
			path = cur.Path
		}
	}
	if path == "" {
		WriteError(w, http.StatusBadRequest, errors.New("serve: reload needs a model path"))
		return
	}
	old, cur, err := s.reg.Swap(path)
	if err != nil {
		// Load-validate-swap: a bad file leaves the old model serving.
		WriteError(w, http.StatusUnprocessableEntity, err)
		return
	}
	s.cache.Clear()
	s.resp.clear()
	s.stats.Reloads.Add(1)
	resp := ReloadResponse{ModelID: cur.ID, Path: cur.Path}
	if old != nil {
		resp.PreviousModelID = old.ID
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	defer drainBody(r)
	entry := s.reg.Current()
	if entry == nil {
		WriteJSON(w, http.StatusServiceUnavailable, HealthResponse{Status: "no model", Addr: s.BoundAddr()})
		return
	}
	WriteJSON(w, http.StatusOK, HealthResponse{
		Status:  "ok",
		Addr:    s.BoundAddr(),
		Circuit: s.breaker.State().String(),
		Model: ModelInfo{
			ID: entry.ID, Path: entry.Path, Params: entry.ZT.Model.NumParams(),
			Mask: entry.ZT.Mask.String(), Engine: entry.Engine(), Gen: entry.Gen,
			LoadedAt:  entry.LoadedAt.UTC().Format(time.RFC3339),
			UptimeSec: int64(time.Since(entry.LoadedAt).Seconds()),
		},
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	defer drainBody(r)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.stats.WriteMetrics(w, s.reg.Current())
}
