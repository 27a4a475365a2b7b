package serve

import (
	"fmt"
	"io"
	"time"

	"zerotune/internal/obs"
)

// LatencyBounds are the latency bucket edges in seconds of every duration
// histogram in both tiers, so dashboards can overlay replica and gateway.
var LatencyBounds = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// batchBounds are the micro-batch-size bucket edges.
var batchBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// endpointNames fixes the per-endpoint stat keys and render order.
var endpointNames = []string{"predict", "tune", "feedback", "reload", "healthz", "metrics"}

// EndpointStats counts requests and errors and tracks latency for one
// endpoint.
type EndpointStats struct {
	Requests *obs.Counter
	Errors   *obs.Counter
	Latency  *obs.Histogram
}

// Stats is the server's observability state: every instrument lives on a
// central obs.Registry (which renders /metrics), and this struct keeps the
// hot-path handles so request accounting stays lock-free atomic operations.
type Stats struct {
	start     time.Time
	reg       *obs.Registry
	endpoints map[string]*EndpointStats

	BatchSizes *obs.Histogram
	Batches    *obs.Counter // flushed micro-batches
	Inferences *obs.Counter // graphs pushed through the model
	Reloads    *obs.Counter // successful hot swaps

	Degraded     *obs.Counter // predictions answered by the fallback estimator
	CircuitOpens *obs.Counter // closed/half-open → open transitions
}

// NewStats registers the serving instruments on reg (a private registry
// when nil). Every series a dashboard might watch exists from startup —
// zero-valued, not absent.
func NewStats(reg *obs.Registry) *Stats {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Stats{
		start:      time.Now(),
		reg:        reg,
		endpoints:  make(map[string]*EndpointStats, len(endpointNames)),
		BatchSizes: reg.Histogram("zerotune_batch_size", batchBounds, 1024),
		Batches:    reg.Counter("zerotune_batches_total"),
		Inferences: reg.Counter("zerotune_inferences_total"),
		Reloads:    reg.Counter("zerotune_model_reloads_total"),

		Degraded:     reg.Counter("zerotune_serve_degraded_total"),
		CircuitOpens: reg.Counter("zerotune_circuit_open_total"),
	}
	for _, name := range endpointNames {
		l := obs.L("endpoint", name)
		s.endpoints[name] = &EndpointStats{
			Requests: reg.Counter("zerotune_requests_total", l),
			Errors:   reg.Counter("zerotune_request_errors_total", l),
			Latency:  reg.Histogram("zerotune_request_duration_seconds", LatencyBounds, 1024, l),
		}
	}
	reg.GaugeFunc("zerotune_uptime_seconds", func() float64 { return time.Since(s.start).Seconds() })
	return s
}

// Registry exposes the underlying metrics registry.
func (s *Stats) Registry() *obs.Registry { return s.reg }

// Endpoint returns the named endpoint's stats (must be one of the fixed
// endpoints).
func (s *Stats) Endpoint(name string) *EndpointStats { return s.endpoints[name] }

// Snapshot is the flattened counter view used by tests and the shutdown
// summary.
type Snapshot struct {
	Requests   map[string]uint64
	Errors     map[string]uint64
	Batches    uint64
	Inferences uint64
	MaxBatch   float64
	// Flushes splits Batches by what released each batch; Arriving is the
	// number of predict requests between their body-cache miss and the
	// batcher right now (zero once the server is quiet).
	Flushes      FlushCounts
	Arriving     int64
	Reloads      uint64
	Degraded     uint64
	CircuitOpens uint64
	Cache        CacheStats
	// BodyHits counts repeats answered by the raw-body response cache,
	// which sits in front of the plan-fingerprint cache.
	BodyHits uint64
}

// WriteMetrics renders the registry in the Prometheus text format plus the
// model-identity series of the currently served revision. The identity line
// is rendered at scrape time from the model registry, so it is correct even
// when models are installed behind the server's back (tests, warm starts).
// It goes through obs.InfoLine for exposition-format label escaping: Go's
// %q turns backslashes, quotes and non-ASCII bytes in a model path into
// escapes the strict parser (and real Prometheus) reject.
func (s *Stats) WriteMetrics(w io.Writer, model *ModelEntry) {
	_ = s.reg.WritePrometheus(w)
	if model != nil {
		_, _ = io.WriteString(w, obs.InfoLine("zerotune_model_info",
			obs.L("id", model.ID), obs.L("path", model.Path), obs.L("gen", fmt.Sprint(model.Gen))))
	}
}

// Summary renders a compact human-readable digest, logged on graceful
// shutdown. bodyHits is the raw-body response cache's hit count — it lives
// outside CacheStats (the respCache fronts the fingerprint cache) and was
// historically dropped from the digest.
func (s *Stats) Summary(cache CacheStats, bodyHits uint64, flushes FlushCounts, model *ModelEntry) string {
	var b []byte
	w := func(format string, args ...any) { b = fmt.Appendf(b, format, args...) }
	w("serve: uptime %s", time.Since(s.start).Round(time.Millisecond))
	if model != nil {
		w(", model %s (gen %d)", model.ID, model.Gen)
	}
	w("\n")
	for _, name := range endpointNames {
		ep := s.endpoints[name]
		n := ep.Requests.Load()
		if n == 0 {
			continue
		}
		ls := ep.Latency.Snapshot()
		w("serve: %-8s %6d requests, %d errors", name, n, ep.Errors.Load())
		appendQuantileDigest(w, ls)
		w("\n")
	}
	bs := s.BatchSizes.Snapshot()
	if bs.Count > 0 {
		w("serve: %d batches, %d graphs inferred, mean batch %.2f, max batch %.0f; flushed %d idle, %d full, %d at the window\n",
			s.Batches.Load(), s.Inferences.Load(), bs.Sum/float64(bs.Count), bs.Max,
			flushes.Idle, flushes.Full, flushes.Window)
	}
	w("serve: cache %d entries, %d hits, %d coalesced, %d misses, %d evictions, %d body hits, %d reloads",
		cache.Size, cache.Hits, cache.Coalesced, cache.Misses, cache.Evictions, bodyHits, s.Reloads.Load())
	return string(b)
}

// appendQuantileDigest renders the ", p50 …ms p99 …ms" tail of one endpoint
// line. Every quantile is ok-checked independently: a snapshot carrying p50
// but not p99 prints only p50 instead of a silent `p99 0.000ms`.
func appendQuantileDigest(w func(format string, args ...any), ls obs.HistogramSnapshot) {
	if p50, ok := ls.Quantiles[0.5]; ok {
		w(", p50 %.3fms", p50*1e3)
	}
	if p99, ok := ls.Quantiles[0.99]; ok {
		w(" p99 %.3fms", p99*1e3)
	}
}

// maxBatch reports the largest flushed batch so far (0 before the first).
func (s *Stats) maxBatch() float64 {
	bs := s.BatchSizes.Snapshot()
	if bs.Count == 0 {
		return 0
	}
	return bs.Max
}
