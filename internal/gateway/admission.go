package gateway

import (
	"fmt"
	"math"
	"sync"
	"time"

	"zerotune/internal/obs"
)

// DefaultClassName is the class unlabelled traffic belongs to.
const DefaultClassName = "best-effort"

// ClassConfig describes one SLO class: its admission budget (a token
// bucket) and its standing in the dispatch queue.
type ClassConfig struct {
	Name string
	// Rate is the sustained admission budget in requests/second. Zero or
	// negative means unlimited — the class is never admission-rejected.
	Rate float64
	// Burst is the bucket capacity: how many requests above the sustained
	// rate a quiet class may fire at once. Defaults to max(Rate, 1).
	Burst float64
	// Priority orders the dispatch queue: a parked request of a higher
	// priority is served first, and equal priorities (the default) are
	// served in arrival order.
	Priority int
}

// DefaultClasses is the zero-config class set: one unlimited best-effort
// class, so a gateway without -slo flags admits everything.
func DefaultClasses() []ClassConfig {
	return []ClassConfig{{Name: DefaultClassName}}
}

// normalizeClasses validates a class set and fills its defaults: an empty
// set becomes DefaultClasses, a rate-limited class without a Burst gets
// max(Rate, 1), and the best-effort class is appended when absent so
// unlabelled traffic always has a home. Names must be non-empty and unique,
// and Rate and Burst finite: a NaN compares false against every bound and
// would silently turn the class's budget off.
func normalizeClasses(classes []ClassConfig) ([]ClassConfig, error) {
	if len(classes) == 0 {
		return DefaultClasses(), nil
	}
	out := make([]ClassConfig, 0, len(classes)+1)
	seen := make(map[string]bool, len(classes))
	for _, cfg := range classes {
		if cfg.Name == "" {
			return nil, fmt.Errorf("gateway: SLO class with empty name")
		}
		if seen[cfg.Name] {
			return nil, fmt.Errorf("gateway: duplicate SLO class %q", cfg.Name)
		}
		seen[cfg.Name] = true
		if math.IsNaN(cfg.Rate) || math.IsInf(cfg.Rate, 0) || math.IsNaN(cfg.Burst) || math.IsInf(cfg.Burst, 0) {
			return nil, fmt.Errorf("gateway: SLO class %q: rate %v and burst %v must be finite", cfg.Name, cfg.Rate, cfg.Burst)
		}
		if cfg.Rate > 0 && cfg.Burst < 1 {
			cfg.Burst = max(cfg.Rate, 1)
		}
		out = append(out, cfg)
	}
	if !seen[DefaultClassName] {
		out = append(out, ClassConfig{Name: DefaultClassName})
	}
	return out, nil
}

// tokenBucket is one class's admission budget. The caller supplies the
// clock on every call: the gateway's admission clock, so a test can drive it.
type tokenBucket struct {
	rate, burst float64

	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// newTokenBucket builds a full bucket from a normalized ClassConfig.
func newTokenBucket(cfg ClassConfig) *tokenBucket {
	return &tokenBucket{rate: cfg.Rate, burst: cfg.Burst, tokens: cfg.Burst}
}

// Allow takes one token if the bucket has it, refilling by the time elapsed
// since the previous call first. Unlimited classes always admit.
func (b *tokenBucket) Allow(now time.Time) bool {
	if b.rate <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		b.tokens += float64(now.Sub(b.last).Seconds() * b.rate) // never fused (arm64 would)
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// classState is one class's bucket plus its instruments.
type classState struct {
	cfg ClassConfig
	*tokenBucket

	admitted  *obs.Counter
	rejected  *obs.Counter
	goodput   *obs.Counter // 2xx responses delivered to this class
	queueWait *obs.Histogram
}

// admission holds the per-class token buckets, keyed by the SLO class
// header.
type admission struct {
	classes map[string]*classState
	ordered []*classState // configuration order, for fairness + summaries
	def     *classState
}

// newAdmission registers one bucket and instrument set per normalized class.
func newAdmission(classes []ClassConfig, reg *obs.Registry) (*admission, error) {
	classes, err := normalizeClasses(classes)
	if err != nil {
		return nil, err
	}
	a := &admission{classes: make(map[string]*classState, len(classes))}
	for _, cfg := range classes {
		l := obs.L("class", cfg.Name)
		c := &classState{
			cfg:         cfg,
			tokenBucket: newTokenBucket(cfg),
			admitted:    reg.Counter("zerotune_gateway_class_admitted_total", l),
			rejected:    reg.Counter("zerotune_gateway_class_rejected_total", l),
			goodput:     reg.Counter("zerotune_gateway_class_goodput_total", l),
			queueWait:   reg.Histogram("zerotune_gateway_queue_wait_seconds", l),
		}
		a.classes[cfg.Name] = c
		a.ordered = append(a.ordered, c)
	}
	a.def = a.classes[DefaultClassName]
	return a, nil
}

// class resolves a header value to its class, defaulting unknown and empty
// names to best-effort rather than rejecting them — an unrecognized label is
// a client with no contract, not an error.
func (a *admission) class(name string) *classState {
	if c, ok := a.classes[name]; ok {
		return c
	}
	return a.def
}

// jainFairness computes Jain's fairness index J = (Σx)² / (n·Σx²) over the
// per-class goodput counters: 1.0 when every class receives identical
// goodput, approaching 1/n as one class monopolizes the gateway. Classes
// are weighted equally — the index is a detector for starvation introduced
// by admission or priority configuration, exported as a gauge on /metrics.
func (a *admission) jainFairness() float64 {
	var sum, sumSq float64
	for _, c := range a.ordered {
		x := float64(c.goodput.Load())
		sum += x
		sumSq += float64(x * x) // never fused (arm64 would)
	}
	if sumSq == 0 {
		return 1 // no traffic: trivially fair
	}
	return sum * sum / (float64(len(a.ordered)) * sumSq)
}
