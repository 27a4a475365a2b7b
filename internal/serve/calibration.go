package serve

import (
	"context"
	"fmt"
	"time"

	"zerotune/internal/cluster"
	"zerotune/internal/core"
	"zerotune/internal/features"
	"zerotune/internal/gnn"
	"zerotune/internal/queryplan"
)

// The serving pipeline's sizing defaults, exported so the capacity planner
// (internal/desim) simulates the same tier it predicts for: a simulator
// calibrated against different batcher or cache constants than the live
// server answers capacity questions about a system that does not exist.
const (
	// DefaultBatchWindow is how long the coalescer holds the first request
	// of a micro-batch waiting for companions.
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

// ServiceTimings is the measured per-stage cost of the predict path, the
// calibration input of the serve-tier discrete-event simulator. All values
// are nanoseconds of single-threaded work:
//
//   - EncodeNs: decode + placement + featurization of one plan (the work
//     between the wire and the fingerprint).
//   - ForwardBaseNs: the fixed cost of one batched forward pass.
//   - ForwardPerItemNs: the marginal cost per plan in the batch. A batch of
//     n costs ForwardBaseNs + n·ForwardPerItemNs.
//   - CacheHitNs: answering a request from a completed cache entry.
type ServiceTimings struct {
	EncodeNs         int64 `json:"encode_ns"`
	ForwardBaseNs    int64 `json:"forward_base_ns"`
	ForwardPerItemNs int64 `json:"forward_per_item_ns"`
	CacheHitNs       int64 `json:"cache_hit_ns"`
}

// MeasureServiceTimings times the live model's predict stages and fits the
// batch-size-linear forward-cost model from two operating points (batch of 1
// and batch of DefaultMaxBatch). Each stage takes the minimum over reps
// repetitions — the minimum estimates the uncontended cost, which is what
// the simulator's single-threaded replica model wants. plans supplies
// representative query plans (a few suffice); c is the cluster they are
// placed on.
//
// The measurement is wall-clock and therefore NOT deterministic: a seeded
// `zerotune plan` run that must produce byte-identical decision traces
// across invocations pins the timings explicitly instead of re-measuring.
func MeasureServiceTimings(ctx context.Context, zt *core.ZeroTune, plans []*queryplan.PQP, c *cluster.Cluster, reps int) (ServiceTimings, error) {
	if len(plans) == 0 {
		return ServiceTimings{}, fmt.Errorf("serve: measure timings: no plans")
	}
	if reps < 1 {
		reps = 5
	}
	graphs := make([]*features.Graph, 0, len(plans))
	var encodeNs int64
	for i, p := range plans {
		p = p.Clone()
		start := time.Now()
		t, err := p.Query.Analyze()
		var g *features.Graph
		if err == nil {
			g, err = zt.EncodePlan(ctx, t, p, c)
		}
		if err != nil {
			return ServiceTimings{}, fmt.Errorf("serve: measure timings: encode plan %d: %w", i, err)
		}
		if d := time.Since(start).Nanoseconds(); i == 0 || d < encodeNs {
			encodeNs = d
		}
		graphs = append(graphs, g)
	}
	// Forward cost at batch sizes 1 and DefaultMaxBatch; the two points fit
	// the base + per-item line the batcher's service time follows.
	big := make([]*features.Graph, DefaultMaxBatch)
	for i := range big {
		big[i] = graphs[i%len(graphs)]
	}
	var preds []gnn.Prediction
	minForward := func(batch []*features.Graph) int64 {
		best := int64(0)
		for r := 0; r < reps; r++ {
			start := time.Now()
			preds = zt.PredictEncodedInto(preds, batch)
			if d := time.Since(start).Nanoseconds(); r == 0 || d < best {
				best = d
			}
		}
		return best
	}
	t1 := minForward(big[:1])
	tN := minForward(big)
	perItem := (tN - t1) / int64(DefaultMaxBatch-1)
	if perItem < 1 {
		perItem = 1
	}
	base := t1 - perItem
	if base < 1 {
		base = 1
	}
	// The completed-entry hit path is a fingerprint lookup plus a marshaled
	// response write — small and flat. Charge a fixed floor rather than
	// timing a sub-microsecond path through the wall clock's noise.
	return ServiceTimings{
		EncodeNs:         maxInt64(encodeNs, 1_000),
		ForwardBaseNs:    base,
		ForwardPerItemNs: perItem,
		CacheHitNs:       3_000,
	}, nil
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
