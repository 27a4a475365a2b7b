package serve

import (
	"fmt"
	"io"
	"time"

	"zerotune/internal/obs"
)

// endpointNames fixes the per-endpoint stat keys and render order.
var endpointNames = []string{"predict", "tune", "reload", "healthz", "metrics"}

// Stats is the server's observability state: every instrument lives on a
// central obs.Registry (which renders /metrics), and this struct keeps the
// hot-path handles so request accounting stays lock-free atomic operations.
type Stats struct {
	start     time.Time
	reg       *obs.Registry
	endpoints map[string]*obs.Endpoint

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
		endpoints:  make(map[string]*obs.Endpoint, len(endpointNames)),
		BatchSizes: reg.Histogram("zerotune_batch_size"),
		Batches:    reg.Counter("zerotune_batches_total"),
		Inferences: reg.Counter("zerotune_inferences_total"),
		Reloads:    reg.Counter("zerotune_model_reloads_total"),

		Degraded:     reg.Counter("zerotune_serve_degraded_total"),
		CircuitOpens: reg.Counter("zerotune_circuit_open_total"),
	}
	for _, name := range endpointNames {
		s.endpoints[name] = obs.NewEndpoint(reg, "zerotune", name)
	}
	reg.GaugeFunc("zerotune_uptime_seconds", func() float64 { return time.Since(s.start).Seconds() })
	obs.RegisterRuntime(reg)
	return s
}

// Registry exposes the underlying metrics registry.
func (s *Stats) Registry() *obs.Registry { return s.reg }

// Endpoint returns the named endpoint's stats (must be one of the fixed
// endpoints).
func (s *Stats) Endpoint(name string) *obs.Endpoint { return s.endpoints[name] }

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
		ls := ep.Latency.Snapshot() // its count is the endpoint's requests
		if ls.Count == 0 {
			continue
		}
		w("serve: %-8s %6d requests, %d errors, p50 %.3fms p99 %.3fms\n", name, ls.Count, ep.Errors.Load(),
			ls.Quantile(0.5)*1e3, ls.Quantile(0.99)*1e3)
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
