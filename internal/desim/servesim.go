package desim

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"zerotune/internal/cluster"
	"zerotune/internal/core"
	"zerotune/internal/fault"
	"zerotune/internal/features"
	"zerotune/internal/gateway"
	"zerotune/internal/gnn"
	"zerotune/internal/loadgen"
	"zerotune/internal/obs"
	"zerotune/internal/queryplan"
	"zerotune/internal/serve"
)

// This file is the serve-tier discrete-event simulator: the same gateway →
// replica → micro-batcher → cache → forward-pass pipeline the live system
// runs, executed against a virtual clock. It consumes the exact request
// schedules internal/loadgen generates for `zerotune bench`, so one seeded
// workload can be replayed against the simulator or the live server and the
// two compared — that pairing is what the calibration tests pin down.
//
// Determinism contract: SimulateServe is a pure function of (schedule,
// ServeConfig). All randomness (forward-pass failures) comes from the fault
// package's seeded uniform streams, the virtual clock is integer
// nanoseconds, and equal-time events process in scheduling order via the
// shared Timeline — so the same seed and spec produce byte-identical
// decision traces, which CI enforces with cmp.
//
// Shared with the live tier — the simulator holds the live type and calls it
// on the virtual clock, so these cannot drift from what they model:
//   - Admission: one gateway.TokenBucket per class from
//     gateway.NormalizeClasses, asked Allow(time.Unix(0, nowNs)).
//   - Circuit breaker: one serve.Breaker per replica on its count-based
//     ProbeEvery schedule (never reads a clock); OnOpen feeds CircuitOpens.
//   - Single-flight LRU: one serve.Cache per replica, in the live order —
//     front-door Lookup → breaker → encode → Acquire → queue bound → batch →
//     Complete. Hit, coalesce and eviction counts are read from its counters.
//   - Keys and placement: serve.HashBody and gateway.AffinityScore.
//   - The batching rule: serve.CollectDecision, asked where the live flush
//     loop asks it — when a batch opens, on every enqueue, whenever a request
//     that was on its way leaves without enqueueing (follower, filled hit,
//     429), and when the window runs out. "On its way" is counted per replica
//     from the front-door miss to onEnqueue, the span a live request holds
//     its serve.Arrival for.
//
// Modelled here rather than shared (fidelity notes):
//   - Least-loaded routing ranks replicas by instantaneous outstanding
//     requests; the live router ranks by its load EWMA first.
//   - The one serve.Cache per replica stands in for both the body-level
//     response cache and the plan-fingerprint cache (bench workloads are
//     keyed by body bytes, where the two coincide).
//   - Coalesced followers complete together with their leader; a failed
//     leader degrades its followers instead of replaying the live
//     stale-entry re-acquire loop.
//   - Request deadlines and the gateway dispatch queue (MaxConcurrent, queue
//     policy) are not modelled: outcomes are 200 (ok or degraded) or 429
//     (admission / replica queue backpressure).

// ServiceModel is the simulator's cost table: integer nanoseconds of
// virtual time per pipeline stage. The per-request terms are read from the
// live tier's own stage histograms (ServiceModelFromStages); the forward pass
// is batch-size-linear, matching the fused-batch engine's measured profile
// (FitForward fits the line on the model). There is no default table: a
// simulation priced from nothing answers for no system.
type ServiceModel struct {
	// GatewayNs is routing + admission overhead per request.
	GatewayNs int64 `json:"gateway_ns"`
	// EncodeNs is everything a miss costs its replica outside the forward
	// pass and the waits the simulator models itself (EncodeStages).
	EncodeNs int64 `json:"encode_ns"`
	// ForwardBaseNs + n·ForwardPerItemNs is the cost of a batch of n.
	ForwardBaseNs    int64 `json:"forward_base_ns"`
	ForwardPerItemNs int64 `json:"forward_per_item_ns"`
	// CacheHitNs answers a request from a completed cache entry.
	CacheHitNs int64 `json:"cache_hit_ns"`
	// FallbackNs answers a request from the degraded-mode estimator.
	FallbackNs int64 `json:"fallback_ns"`
}

// EncodeStages are the stages a simulated miss pays as EncodeNs: every stage
// of the miss path but the three the simulator produces itself — the batcher's
// queue wait, the forward pass, and a follower's wait for its leader.
func EncodeStages() (out []serve.Stage) {
	for _, st := range serve.Stages() {
		switch st {
		case serve.StageBodyHit, serve.StageQueueWait, serve.StageForward, serve.StageCoalesceWait:
		default:
			out = append(out, st)
		}
	}
	return out
}

// CalibrationSpec is the run a cost table is read from: spec's own corpus
// and class mix, four requests per body so nearly every body is both missed
// and hit, evenly spaced at 500 req/s — slow enough that every request finds
// the tier quiet and is timed alone, as the per-request terms are meant.
func CalibrationSpec(spec loadgen.Spec) loadgen.Spec {
	const rate = 500
	spec.Arrival, spec.Rate, spec.DiurnalAmplitude = loadgen.ArrivalUniform, rate, 0
	spec.MaxRequests = 4 * len(spec.Bodies)
	spec.Duration = time.Duration(spec.MaxRequests+1) * time.Second / rate
	return spec
}

// ServiceModelFromStages reads the per-request terms of the cost table off a
// parsed /metrics page (or several, concatenated) of the tier to be simulated:
// CacheHitNs is the mean body_hit, EncodeNs the sum of the EncodeStages means,
// GatewayNs the mean of gateway.SelfMetric — zero when the page has no such
// series, which is a tier with no gateway. The forward line and FallbackNs are
// not request stages and stay zero. A page on which any of those histograms is
// empty is an error: a term priced from a request that never happened would
// silently be free.
func ServiceModelFromStages(samples []obs.Sample) (m ServiceModel, err error) {
	meanNs := func(h obs.HistogramStat, what string) int64 {
		if h.Count == 0 && err == nil {
			err = fmt.Errorf("desim: service model: the metrics page has no %s observation", what)
		}
		return int64(h.Mean() * 1e9)
	}
	stages := serve.ReadStages(samples)
	m.CacheHitNs = meanNs(stages[serve.StageBodyHit], serve.StageBodyHit.String())
	for _, st := range EncodeStages() {
		m.EncodeNs += meanNs(stages[st], st.String())
	}
	if self, ok := obs.FindHistogram(samples, gateway.SelfMetric); ok {
		m.GatewayNs = meanNs(self, gateway.SelfMetric)
	}
	if err != nil {
		return ServiceModel{}, err
	}
	return m, nil
}

// FitForward times the model's forward pass at a batch of one and of
// serve.DefaultMaxBatch and returns the line through the two points, the
// base + per-item cost the batcher's service time follows. The line is a
// property of the model and the machine, not of the request path, so it is
// fitted on the engine: each size keeps the fastest of five passes, the
// uncontended cost the single-threaded replica model wants. plans (a few
// suffice) are placed on c and cycled to fill the large batch; zt must be
// compiled, as a replica serving it would have. Wall-clock, so not
// deterministic: a byte-reproducible plan pins the line.
func FitForward(ctx context.Context, zt *core.ZeroTune, plans []*queryplan.PQP, c *cluster.Cluster) (baseNs, perItemNs int64, err error) {
	if len(plans) == 0 {
		return 0, 0, errors.New("desim: fit forward: no plans")
	}
	batch := make([]*features.Graph, serve.DefaultMaxBatch)
	for i := range batch {
		if i >= len(plans) {
			batch[i] = batch[i-len(plans)]
			continue
		}
		p := plans[i].Clone() // encoding places the plan
		t, err := p.Query.Analyze()
		if err == nil {
			batch[i], err = zt.EncodePlan(ctx, t, p, c)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("desim: fit forward: encode plan %d: %w", i, err)
		}
	}
	var preds []gnn.Prediction
	fastest := func(graphs []*features.Graph) int64 {
		best := int64(math.MaxInt64)
		for r := 0; r < 5; r++ {
			start := time.Now()
			preds = zt.PredictEncodedInto(preds, graphs)
			best = min(best, time.Since(start).Nanoseconds())
		}
		return best
	}
	t1, tN := fastest(batch[:1]), fastest(batch)
	perItemNs = max((tN-t1)/int64(len(batch)-1), 1)
	return max(t1-perItemNs, 1), perItemNs, nil
}

// ServeConfig describes one simulated serve tier — the counterfactual knobs
// a `zerotune plan` run varies. The zero value of each field means "the
// live tier's default" (serve.Default*), so a zero ServeConfig simulates a
// single stock replica.
type ServeConfig struct {
	// Replicas is the pool size behind the gateway (default 1).
	Replicas int
	// BatchWindow is the micro-batcher's collection window (0 →
	// serve.DefaultBatchWindow; negative → no waiting, opportunistic flush).
	BatchWindow time.Duration
	// MaxBatch flushes a collecting batch early at this size (default
	// serve.DefaultMaxBatch).
	MaxBatch int
	// QueueDepth bounds each replica's submitted-but-unflushed queue
	// (default serve.DefaultQueueFactor × MaxBatch); overflow answers 429.
	QueueDepth int
	// CacheEntries bounds each replica's serve.Cache (0 →
	// serve.DefaultCacheSize; negative disables caching).
	CacheEntries int
	// Route selects the gateway routing policy (default affinity —
	// rendezvous hashing via gateway.AffinityScore, the live function).
	Route gateway.RoutePolicy
	// Classes configures per-SLO-class token-bucket admission, normalized
	// by gateway.NormalizeClasses exactly as gateway.Options.Classes is.
	Classes []gateway.ClassConfig
	// Service is the stage cost table. It has no default: the zero table is
	// an error.
	Service ServiceModel
	// CircuitThreshold trips a replica's breaker after this many
	// consecutive forward failures (0 → serve.DefaultCircuitThreshold;
	// negative disables).
	CircuitThreshold int
	// CircuitProbeEvery admits every Nth rejected request as the half-open
	// probe (default DefaultCircuitProbeEvery). Count-based, like chaos runs, so breaker
	// transitions are a pure function of the request sequence.
	CircuitProbeEvery int
	// FailureProb is the per-flush probability of a forward-pass failure,
	// drawn from the seeded "desim.forward" uniform stream (default 0).
	FailureProb float64
	// Seed drives the failure stream (the arrival schedule carries its own
	// seed inside the loadgen.Spec it was built from).
	Seed uint64
	// MaxEvents aborts runaway simulations with ErrEventBudget
	// (default DefaultMaxEvents).
	MaxEvents int
	// Trace receives the decision trace; nil disables tracing.
	Trace io.Writer
}

// Defaults of the two ServeConfig knobs the live tier has no counterpart of.
const (
	DefaultCircuitProbeEvery = 100
	DefaultMaxEvents         = 10_000_000
)

// withDefaults fills unset knobs. Those the live tier shares go through the
// live tier's own rules — serve.Options.WithDefaults and the batcher's
// serve.QueueBound — so zero and negative mean here what they mean to
// `zerotune serve`; the one counterfactual is a negative CacheEntries, a
// replica with no cache at all.
func (c ServeConfig) withDefaults() ServeConfig {
	live := serve.Options{
		BatchWindow: c.BatchWindow, MaxBatch: c.MaxBatch,
		CacheSize: c.CacheEntries, CircuitThreshold: c.CircuitThreshold,
	}.WithDefaults()
	c.BatchWindow, c.MaxBatch, c.CircuitThreshold = live.BatchWindow, live.MaxBatch, live.CircuitThreshold
	if c.CacheEntries >= 0 {
		c.CacheEntries = live.CacheSize
	}
	c.QueueDepth = serve.QueueBound(c.QueueDepth, c.MaxBatch)
	c.Replicas = max(c.Replicas, 1)
	if c.Route == "" {
		c.Route = gateway.RouteAffinity
	}
	if c.CircuitProbeEvery < 1 {
		c.CircuitProbeEvery = DefaultCircuitProbeEvery
	}
	if c.MaxEvents == 0 {
		c.MaxEvents = DefaultMaxEvents
	}
	return c
}

// RequestOutcome is one simulated request's fate, with the decision context
// (replica, cache, batch) that produced it.
type RequestOutcome struct {
	Seq     int    `json:"seq"`
	Class   string `json:"class,omitempty"`
	Replica int    `json:"replica"` // -1 when rejected before routing
	Status  int    `json:"status"`
	// Degraded marks fallback-estimator answers (breaker open or forward
	// failure); they are 200s, like the live tier's.
	Degraded bool `json:"degraded,omitempty"`
	// CacheHit marks completed-entry hits; Coalesced marks followers that
	// attached to an in-flight leader.
	CacheHit  bool `json:"cache_hit,omitempty"`
	Coalesced bool `json:"coalesced,omitempty"`
	// BatchSize is the forward-pass batch this request rode (0 when it
	// never reached the batcher).
	BatchSize int `json:"batch_size,omitempty"`
	// ArrivalNs is the intended send time (the schedule offset); DoneNs the
	// virtual completion time; QueueWaitNs the enqueue→flush-start wait of
	// batched leaders.
	ArrivalNs   int64 `json:"arrival_ns"`
	DoneNs      int64 `json:"done_ns"`
	QueueWaitNs int64 `json:"queue_wait_ns,omitempty"`
}

// LatencyNs is the open-loop latency: completion − intended send.
func (o RequestOutcome) LatencyNs() int64 { return o.DoneNs - o.ArrivalNs }

// ReplicaStats aggregates one simulated replica.
type ReplicaStats struct {
	Name         string `json:"name"`
	Requests     int    `json:"requests"`
	Batches      int    `json:"batches"`
	Inferences   int    `json:"inferences"`
	CacheHits    int    `json:"cache_hits"`
	Coalesced    int    `json:"coalesced"`
	Evictions    int    `json:"evictions"`
	QueueBusts   int    `json:"queue_busts"`
	CircuitOpens int    `json:"circuit_opens"`
	MaxQueue     int    `json:"max_queue"`
	// Flushes splits Batches by the clause of serve.CollectDecision that
	// released each one — the live replica's zerotune_batch_flush_total.
	Flushes serve.FlushCounts `json:"flushes"`
}

// ServeStats aggregates a run.
type ServeStats struct {
	Requests          int            `json:"requests"`
	OK                int            `json:"ok"`
	Degraded          int            `json:"degraded"`
	AdmissionRejected int            `json:"admission_rejected"`
	QueueRejected     int            `json:"queue_rejected"`
	CacheHits         int            `json:"cache_hits"`
	Coalesced         int            `json:"coalesced"`
	Batches           int            `json:"batches"`
	Inferences        int            `json:"inferences"`
	CircuitOpens      int            `json:"circuit_opens"`
	PerReplica        []ReplicaStats `json:"per_replica,omitempty"`
}

// RunResult is a completed simulation.
type RunResult struct {
	Outcomes []RequestOutcome
	Stats    ServeStats
	// EndNs is the virtual completion time of the last request.
	EndNs int64
	// Events is how many simulation events were processed.
	Events int
}

// Results projects outcomes into loadgen's per-request record, so simulated
// runs flow through the same percentile/report machinery as live bench
// runs. Simulated latency has no send lag: Service equals Latency.
func (r *RunResult) Results() []loadgen.Result {
	out := make([]loadgen.Result, len(r.Outcomes))
	for i, o := range r.Outcomes {
		lat := time.Duration(o.LatencyNs())
		out[i] = loadgen.Result{
			Seq:     o.Seq,
			Offset:  time.Duration(o.ArrivalNs),
			Class:   o.Class,
			Status:  o.Status,
			Latency: lat,
			Service: lat,
		}
	}
	return out
}

// --- events -----------------------------------------------------------------

type svArrive struct{ req int }

type svAtReplica struct {
	req     int
	replica int
}

type svEnqueue struct {
	req     int
	replica int
	probe   bool
}

type svBatchTimer struct {
	replica int
	gen     int
}

type svFlushDone struct {
	replica int
	batch   []*svItem
	fail    bool
}

type svComplete struct {
	req       int
	status    int
	degraded  bool
	cacheHit  bool
	coalesced bool
	batchSize int
	queueWait int64
}

// svItem is one request waiting in (or riding through) a replica's batcher.
type svItem struct {
	req        int
	enqueuedNs int64
	probe      bool
	entry      *serve.CacheEntry // the slot this leader must Complete; nil when caching is disabled
}

// --- replica-local state ----------------------------------------------------

const (
	replicaIdle = iota
	replicaCollecting
	replicaFlushing
)

type svReplica struct {
	idx         int
	name        string
	mode        int
	queue       []*svItem
	batch       []*svItem
	openedNs    int64 // when the batch being collected took its first item
	timerGen    int
	arriving    int          // past the front door, not yet at onEnqueue
	outstanding int          // routed-but-uncompleted, for least-loaded
	cache       *serve.Cache // nil when caching is disabled
	// followers lists the requests coalesced onto each in-flight entry. The
	// live followers block in CacheEntry.Wait; a simulator cannot block, so
	// it parks them here until the leader's flush completes.
	followers map[*serve.CacheEntry][]int
	breaker   *serve.Breaker
	stats     ReplicaStats
}

// errForward is what a failed flush publishes through Cache.Complete, so the
// cache drops the entry the way it drops a live leader's failed one.
var errForward = errors.New("desim: simulated forward failure")

// cacheKey widens a body hash into the live cache's key type.
func cacheKey(h uint64) (fp serve.Fingerprint) {
	binary.LittleEndian.PutUint64(fp[:], h)
	return fp
}

// --- the simulator ----------------------------------------------------------

type serveSim struct {
	cfg      ServeConfig
	sched    []loadgen.Request
	keys     []uint64 // per-request body fingerprint
	tl       Timeline
	replicas []*svReplica
	buckets  map[string]*gateway.TokenBucket // normalized: always holds the default class
	rrNext   int
	flushes  uint64 // failure-stream cursor
	outcomes []RequestOutcome
	stats    ServeStats
	trace    *decisionTrace
	endNs    int64
	events   int
}

// SimulateServe runs the schedule through the simulated serve tier and
// returns per-request outcomes plus aggregate stats. It is deterministic:
// equal (sched, cfg) produce identical results and byte-identical decision
// traces. A budget abort returns partial results wrapped in ErrEventBudget.
func SimulateServe(sched []loadgen.Request, cfg ServeConfig) (*RunResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Service == (ServiceModel{}) {
		return nil, errors.New("desim: ServeConfig.Service is the zero cost table; read one from a live tier (ServiceModelFromStages) or pin its terms")
	}
	if cfg.Replicas > 64 {
		return nil, fmt.Errorf("desim: %d replicas exceed the routing bitmask width (64)", cfg.Replicas)
	}
	classes, err := gateway.NormalizeClasses(cfg.Classes)
	if err != nil {
		return nil, err
	}
	s := &serveSim{
		cfg:      cfg,
		sched:    sched,
		keys:     make([]uint64, len(sched)),
		outcomes: make([]RequestOutcome, len(sched)),
		buckets:  make(map[string]*gateway.TokenBucket, len(classes)),
		trace:    newDecisionTrace(cfg.Trace),
	}
	for _, cc := range classes {
		s.buckets[cc.Name] = gateway.NewTokenBucket(cc)
	}
	for i := range s.outcomes {
		s.outcomes[i] = RequestOutcome{Seq: i, Replica: -1, Class: sched[i].Class, ArrivalNs: int64(sched[i].Offset)}
	}
	for i, r := range sched {
		s.keys[i] = serve.HashBody(r.Body)
	}
	for i := 0; i < cfg.Replicas; i++ {
		rep := &svReplica{idx: i, name: fmt.Sprintf("replica-%d", i)}
		rep.breaker = serve.NewBreaker(serve.BreakerConfig{
			Threshold:  cfg.CircuitThreshold,
			ProbeEvery: cfg.CircuitProbeEvery,
			OnOpen: func() {
				rep.stats.CircuitOpens++
				s.stats.CircuitOpens++
				s.trace.repEvent(int64(s.tl.Now()), "circuit", rep.idx, "state", "open")
			},
		})
		if cfg.CacheEntries > 0 {
			rep.cache = serve.NewCache(cfg.CacheEntries)
			rep.followers = make(map[*serve.CacheEntry][]int)
		}
		rep.stats.Name = rep.name
		s.replicas = append(s.replicas, rep)
	}

	for i, r := range sched {
		s.tl.Schedule(float64(int64(r.Offset)), svArrive{req: i})
	}
	err = s.run()
	if ferr := s.trace.flush(); ferr != nil && err == nil {
		err = fmt.Errorf("desim: flush decision trace: %w", ferr)
	}
	res := &RunResult{Outcomes: s.outcomes, Stats: s.stats, EndNs: s.endNs, Events: s.events}
	for _, rep := range s.replicas {
		if rep.cache != nil {
			cs := rep.cache.Stats()
			rep.stats.CacheHits, rep.stats.Coalesced, rep.stats.Evictions = int(cs.Hits), int(cs.Coalesced), int(cs.Evictions)
			res.Stats.CacheHits += rep.stats.CacheHits
			res.Stats.Coalesced += rep.stats.Coalesced
		}
		res.Stats.PerReplica = append(res.Stats.PerReplica, rep.stats)
	}
	return res, err
}

func (s *serveSim) run() error {
	for s.tl.Len() > 0 {
		_, payload, _ := s.tl.Pop()
		s.events++
		if s.events > s.cfg.MaxEvents {
			return fmt.Errorf("desim: %w (%d events); offered load likely diverges", ErrEventBudget, s.cfg.MaxEvents)
		}
		now := int64(s.tl.Now())
		switch e := payload.(type) {
		case svArrive:
			s.onArrive(now, e.req)
		case svAtReplica:
			s.onAtReplica(now, e.req, e.replica)
		case svEnqueue:
			s.onEnqueue(now, e.req, e.replica, e.probe)
		case svBatchTimer:
			rep := s.replicas[e.replica]
			if rep.mode == replicaCollecting && rep.timerGen == e.gen {
				s.collect(now, rep)
			}
		case svFlushDone:
			s.onFlushDone(now, e)
		case svComplete:
			s.onComplete(now, e)
		}
	}
	return nil
}

// onArrive is the gateway stage: admission, then routing.
func (s *serveSim) onArrive(now int64, req int) {
	r := s.sched[req]
	s.stats.Requests++
	s.trace.reqEvent(now, "arrive", req, "class", className(r.Class), "key", s.keys[req])
	bucket := s.buckets[r.Class]
	if bucket == nil {
		bucket = s.buckets[gateway.DefaultClassName]
	}
	if !bucket.Allow(time.Unix(0, now)) {
		s.stats.AdmissionRejected++
		s.trace.reqEvent(now, "admit", req, "ok", false)
		s.complete(now, now, svComplete{req: req, status: 429})
		return
	}
	s.trace.reqEvent(now, "admit", req, "ok", true)
	rep := s.route(req)
	rep.outstanding++
	rep.stats.Requests++
	s.outcomes[req].Replica = rep.idx
	s.trace.reqEvent(now, "route", req, "replica", rep.idx, "policy", string(s.cfg.Route))
	s.tl.Schedule(float64(now+s.cfg.Service.GatewayNs), svAtReplica{req: req, replica: rep.idx})
}

// route picks a replica with the gateway's policies. Every simulated
// replica is healthy, so affinity always lands on the rendezvous owner.
func (s *serveSim) route(req int) *svReplica {
	switch s.cfg.Route {
	case gateway.RouteRoundRobin:
		rep := s.replicas[s.rrNext%len(s.replicas)]
		s.rrNext++
		return rep
	case gateway.RouteLeastLoaded:
		best := s.replicas[0]
		for _, rep := range s.replicas[1:] {
			if rep.outstanding < best.outstanding {
				best = rep
			}
		}
		return best
	default: // affinity: rendezvous hashing with the live scoring function
		best, bestScore := s.replicas[0], gateway.AffinityScore(s.keys[req], s.replicas[0].name)
		for _, rep := range s.replicas[1:] {
			if sc := gateway.AffinityScore(s.keys[req], rep.name); sc > bestScore {
				best, bestScore = rep, sc
			}
		}
		return best
	}
}

// onAtReplica is the replica's front door: filled-entry cache hits answer
// immediately; the breaker gates the learned path; everything else heads
// for the encoder.
func (s *serveSim) onAtReplica(now int64, req, replica int) {
	rep := s.replicas[replica]
	if rep.cache != nil && rep.cache.Lookup(cacheKey(s.keys[req])) != nil {
		s.trace.reqEvent(now, "cache", req, "replica", replica, "result", "hit")
		s.complete(now, now+s.cfg.Service.CacheHitNs, svComplete{req: req, status: 200, cacheHit: true})
		return
	}
	allowed, probe := rep.breaker.Admit()
	if !allowed {
		s.trace.reqEvent(now, "breaker", req, "replica", replica, "action", "reject")
		s.degrade(now, now+s.cfg.Service.FallbackNs, req, 0)
		return
	}
	if probe {
		s.trace.reqEvent(now, "breaker", req, "replica", replica, "action", "probe")
	}
	rep.arriving++
	s.tl.Schedule(float64(now+s.cfg.Service.EncodeNs), svEnqueue{req: req, replica: replica, probe: probe})
}

// onEnqueue is the post-encode cache acquire + batcher submission. However
// the request leaves it — queued, coalesced, answered, refused — it is no
// longer on its way, and a batch that was held for it is judged again.
func (s *serveSim) onEnqueue(now int64, req, replica int, probe bool) {
	rep := s.replicas[replica]
	rep.arriving--
	defer s.collect(now, rep)
	it := &svItem{req: req, enqueuedNs: now, probe: probe}
	if rep.cache != nil {
		e, leader := rep.cache.Acquire(cacheKey(s.keys[req]))
		if !leader {
			if probe {
				rep.breaker.AbandonProbe()
			}
			if e.Filled() {
				// Completed while this request encoded.
				s.trace.reqEvent(now, "cache", req, "replica", replica, "result", "hit")
				s.complete(now, now+s.cfg.Service.CacheHitNs, svComplete{req: req, status: 200, cacheHit: true, coalesced: true})
			} else {
				rep.followers[e] = append(rep.followers[e], req)
				s.trace.reqEvent(now, "cache", req, "replica", replica, "result", "coalesce")
			}
			return
		}
		it.entry = e
		s.trace.reqEvent(now, "cache", req, "replica", replica, "result", "miss")
	}
	if len(rep.queue) >= s.cfg.QueueDepth {
		rep.stats.QueueBusts++
		s.stats.QueueRejected++
		s.trace.reqEvent(now, "reject", req, "replica", replica, "reason", "queue_full")
		if it.entry != nil {
			rep.cache.Complete(it.entry, gnn.Prediction{}, serve.ErrQueueFull)
		}
		if probe {
			rep.breaker.AbandonProbe()
		}
		s.complete(now, now, svComplete{req: req, status: 429})
		return
	}
	rep.queue = append(rep.queue, it)
	if len(rep.queue) > rep.stats.MaxQueue {
		rep.stats.MaxQueue = len(rep.queue)
	}
	s.trace.reqEvent(now, "enqueue", req, "replica", replica, "depth", len(rep.queue))
}

// collect is the flush loop's turn on the virtual clock: move what is queued
// into the open batch (opening one if the loop was idle) and do what the live
// tier's rule says — flush, or hold until the next enqueue, the next
// withdrawal, or the end of the window.
func (s *serveSim) collect(now int64, rep *svReplica) {
	if rep.mode == replicaFlushing || len(rep.queue)+len(rep.batch) == 0 {
		return
	}
	opening := rep.mode == replicaIdle
	if opening {
		rep.openedNs = now
	}
	n := min(len(rep.queue), s.cfg.MaxBatch-len(rep.batch))
	rep.batch = append(rep.batch, rep.queue[:n]...)
	rep.queue = rep.queue[n:]
	if opening {
		s.trace.repEvent(now, "collect", rep.idx, "size", len(rep.batch))
	}
	reason, hold := serve.CollectDecision(len(rep.batch), s.cfg.MaxBatch, rep.arriving,
		time.Duration(now-rep.openedNs), s.cfg.BatchWindow)
	if reason != serve.Hold {
		s.beginFlush(now, rep, reason)
		return
	}
	if opening {
		rep.mode = replicaCollecting
		rep.timerGen++
		s.tl.Schedule(float64(now+int64(hold)), svBatchTimer{replica: rep.idx, gen: rep.timerGen})
	}
}

// beginFlush runs the batched forward pass; the failure draw is one seeded
// uniform per flush.
func (s *serveSim) beginFlush(now int64, rep *svReplica, reason serve.FlushReason) {
	batch := rep.batch
	rep.batch = nil
	rep.mode = replicaFlushing
	rep.timerGen++ // invalidate any pending window timer
	s.flushes++
	fail := s.cfg.FailureProb > 0 &&
		fault.Uniform(s.cfg.Seed, "desim.forward", s.flushes) < s.cfg.FailureProb
	dur := s.cfg.Service.ForwardBaseNs + int64(len(batch))*s.cfg.Service.ForwardPerItemNs
	rep.stats.Batches++
	rep.stats.Inferences += len(batch)
	rep.stats.Flushes.Count(reason)
	s.stats.Batches++
	s.stats.Inferences += len(batch)
	s.trace.repEvent(now, "flush", rep.idx, "size", len(batch), "reason", reason.String(), "service", dur)
	s.tl.Schedule(float64(now+dur), svFlushDone{replica: rep.idx, batch: batch, fail: fail})
}

// onFlushDone completes a batch (and every coalesced follower), feeds the
// breaker, and starts the next collection if work queued up meanwhile.
func (s *serveSim) onFlushDone(now int64, e svFlushDone) {
	rep := s.replicas[e.replica]
	s.trace.repEvent(now, "flushdone", rep.idx, "size", len(e.batch), "ok", !e.fail)
	var flushErr error
	if e.fail {
		flushErr = errForward
	}
	for _, it := range e.batch {
		followers := rep.followers[it.entry]
		if e.fail {
			// The live leader's finishPredict: record the failure, answer
			// from the fallback; followers degrade too.
			rep.breaker.RecordFailure()
			s.degrade(now, now+s.cfg.Service.FallbackNs, it.req, len(e.batch))
			for _, w := range followers {
				s.degrade(now, now+s.cfg.Service.FallbackNs, w, len(e.batch))
			}
		} else {
			rep.breaker.RecordSuccess()
			wait := max(0, now-it.enqueuedNs-(s.cfg.Service.ForwardBaseNs+int64(len(e.batch))*s.cfg.Service.ForwardPerItemNs))
			s.complete(now, now, svComplete{req: it.req, status: 200, batchSize: len(e.batch), queueWait: wait})
			for _, w := range followers {
				s.complete(now, now, svComplete{req: w, status: 200, coalesced: true, batchSize: len(e.batch)})
			}
		}
		if it.entry != nil {
			// Publishes the result (LRU insert + eviction), or drops the
			// entry when the flush failed.
			delete(rep.followers, it.entry)
			rep.cache.Complete(it.entry, gnn.Prediction{}, flushErr)
		}
	}
	rep.mode = replicaIdle
	s.collect(now, rep)
}

// degrade answers a request from the simulated fallback estimator.
func (s *serveSim) degrade(now, doneNs int64, req, batchSize int) {
	s.complete(now, doneNs, svComplete{req: req, status: 200, degraded: true, batchSize: batchSize})
}

// complete schedules the request's completion event at doneNs, so outcome
// recording (and its trace line) happens in virtual-time order.
func (s *serveSim) complete(now, doneNs int64, c svComplete) {
	if doneNs < now {
		doneNs = now
	}
	s.tl.Schedule(float64(doneNs), c)
}

func (s *serveSim) onComplete(now int64, c svComplete) {
	o := &s.outcomes[c.req]
	o.Status = c.status
	o.Degraded = c.degraded
	o.CacheHit = c.cacheHit
	o.Coalesced = c.coalesced
	o.BatchSize = c.batchSize
	o.DoneNs = now
	o.QueueWaitNs = c.queueWait
	if o.Replica >= 0 {
		s.replicas[o.Replica].outstanding--
	}
	switch {
	case c.status == 200 && c.degraded:
		s.stats.Degraded++
		s.stats.OK++
	case c.status == 200:
		s.stats.OK++
	}
	if now > s.endNs {
		s.endNs = now
	}
	s.trace.reqEvent(now, "complete", c.req,
		"status", c.status, "latency", o.LatencyNs(), "batch", c.batchSize,
		"hit", c.cacheHit, "degraded", c.degraded)
}

// className renders the default for unclassed requests, keeping trace
// fields non-empty.
func className(c string) string {
	if c == "" {
		return gateway.DefaultClassName
	}
	return c
}
