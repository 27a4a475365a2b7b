// Package desim is a discrete-event simulator of the same data-parallel
// streaming engine the analytical model in internal/simulator describes —
// tuples actually flow, queue, fill windows and join here. Its purpose is
// cross-validation: the analytical engine computes expected values in
// closed form; desim executes the semantics event by event. Tests assert
// that the two agree on stable configurations (latency within a small
// factor, throughput exactly) and that both flag the same saturation.
//
// Scope (deliberately narrower than the analytical engine, matching the
// configurations the validation tests use): deterministic inter-arrival
// times, round-robin partitioning (hash skew is an analytical-only
// refinement), no output-buffer batching (compare against a CostModel with
// BufferFlushMs = 0), chained operators processed back-to-back on one
// logical thread, and unbounded queues whose growth *detects* saturation
// rather than throttling sources.
package desim

import (
	"fmt"

	"zerotune/internal/cluster"
	"zerotune/internal/queryplan"
	"zerotune/internal/simulator"
)

// Options configures a run.
type Options struct {
	// Cost supplies service-time constants (nil = DefaultCostModel with
	// buffering and noise disabled, mirroring what desim implements).
	Cost *simulator.CostModel
	// DurationMs is the simulated horizon after warm-up.
	DurationMs float64
	// WarmupMs discards initial transients.
	WarmupMs float64
	// MaxEvents aborts runaway simulations (0 = 5,000,000).
	MaxEvents int
}

// DefaultOptions simulates five seconds after a one-second warm-up.
func DefaultOptions() Options {
	return Options{DurationMs: 5000, WarmupMs: 1000}
}

// Metrics is the measured outcome.
type Metrics struct {
	// AvgLatencyMs averages the end-to-end latency of sink deliveries
	// (delivery time − mean birth time of contributing source tuples).
	AvgLatencyMs float64
	// P95LatencyMs is the 95th percentile of the same distribution.
	P95LatencyMs float64
	// SinkDeliveries counts results delivered after warm-up.
	SinkDeliveries int
	// IngestedEPS is the source emission rate actually simulated.
	IngestedEPS float64
	// MaxQueueLen is the largest instantaneous queue observed anywhere
	// (window emissions cause benign transient bursts; see Saturated).
	MaxQueueLen int
	// Saturated is true when total queue occupancy grew over the horizon —
	// the discrete signature of backpressure. Transient bursts from window
	// emissions drain between samples and do not trigger it.
	Saturated bool
}

// tuple is one in-flight record (possibly an aggregate carrying the mean
// birth time of its contributors).
type tuple struct {
	birthMs float64
}

// event is a scheduled simulation step. Determinism tie-breaking lives in
// the timeline (insertion order at equal times).
type event struct {
	atMs float64
	kind eventKind
	op   int // operator position (arrival, timer) or chain group (service done)
	inst int
	tup  tuple
	side int // join input side (0/1)
}

type eventKind int

const (
	evArrival eventKind = iota
	evServiceDone
	evWindowTimer
	evSample // periodic queue-occupancy sample for saturation detection
)

// Run executes the plan tuple-by-tuple and returns measured metrics. When
// the event budget aborts a diverging run, the returned error wraps
// ErrEventBudget and the metrics are partial — never read them as a
// converged measurement.
func Run(p *queryplan.PQP, c *cluster.Cluster, opts Options) (*Metrics, error) {
	if opts.DurationMs <= 0 {
		opts = DefaultOptions()
	}
	if opts.MaxEvents == 0 {
		opts.MaxEvents = 5_000_000
	}
	cm := opts.Cost
	if cm == nil {
		d := simulator.DefaultCostModel()
		d.NoiseSigma = 0
		d.BufferFlushMs = 0
		cm = &d
	}
	t, err := p.Analyze()
	if err != nil {
		return nil, fmt.Errorf("desim: %w", err)
	}
	if len(p.Placement) != len(t.Ops) {
		if err := cluster.PlaceWith(t, p, c); err != nil {
			return nil, err
		}
	}
	return newSim(t, p, c, cm, opts).run()
}
