// Package simulator is the ground-truth cost engine of this reproduction:
// an analytical/queueing model of a data-parallel distributed stream
// processing engine (Flink-like) that, given a parallel query plan placed on
// a cluster, produces the end-to-end latency and throughput the paper
// measures on its CloudLab testbed.
//
// The model captures the phenomena ZeroTune's experiments rely on:
//
//   - per-tuple CPU service costs per operator type, scaled by CPU frequency
//   - partitioning skew (hash > rebalance/forward) growing with parallelism
//   - operator chaining (no network/serde between chained operators)
//   - queueing delay as instances approach saturation, and backpressure
//     once the offered rate exceeds the bottleneck capacity
//   - network transfer per non-chained edge, dependent on tuple width, data
//     type and link speed
//   - window wait times for count- and time-based tumbling/sliding windows
//   - synchronization/coordination overhead growing with parallelism
//   - slot contention when a node hosts more task slots than cores
//   - deterministic measurement noise, seeded per plan
package simulator

import "zerotune/internal/queryplan"

// CostModel holds the calibration constants of the analytical engine. All
// CPU costs are microseconds per tuple on a 1 GHz reference core; they are
// divided by the node's clock frequency at use.
type CostModel struct {
	// Per-tuple base CPU costs by operator type (µs at 1 GHz).
	SourceBase float64 // deserialization + emission
	FilterBase float64 // predicate evaluation
	AggBase    float64 // window accumulate
	JoinBase   float64 // window insert
	SinkBase   float64 // collection + write-out

	// Width-dependent CPU cost (µs per attribute at 1 GHz).
	PerAttr float64

	// Data-type cost multipliers for comparisons/hashing.
	IntFactor    float64
	DoubleFactor float64
	StringFactor float64

	// Join probe cost per candidate tuple scanned in the opposite window
	// (µs at 1 GHz, per expected match candidate).
	JoinProbe float64
	// Cost per emitted result from a window operator (µs at 1 GHz).
	EmitCost float64
	// Keyed-window hashing overhead (µs at 1 GHz).
	KeyHash float64

	// Network: fixed per-hop latency (ms) and per-byte transfer time derived
	// from the link speed at use.
	HopLatencyMs float64
	// BufferFlushMs is the output-buffer flush timeout per non-chained
	// hand-off (Flink's network buffer timeout): at low channel rates a
	// tuple waits up to this long for its buffer to be flushed; at high
	// rates the buffer fills and ships earlier.
	BufferFlushMs float64
	// BufferBytesPerChannel is the output buffer size per channel.
	BufferBytesPerChannel float64
	// Serialization cost per byte when a tuple crosses the network
	// (µs at 1 GHz per byte).
	SerdePerByte float64

	// Coordination overhead added to an operator's latency per unit of
	// parallelism (ms per instance) — models barrier/merge costs that make
	// very high degrees counterproductive.
	SyncPerInstanceMs float64

	// Hash-partitioning skew: the most loaded instance receives
	// (1+skew)/P of the stream, skew = SkewBase + SkewGrowth·ln(P).
	SkewBase   float64
	SkewGrowth float64

	// Utilization at which queueing delay is capped (ρ clamp).
	MaxRho float64
	// BurstFactor scales queueing delay above the M/M/1 baseline to model
	// bursty arrivals and buffer batching: queued tuples ≈
	// BurstFactor·ρ²/(1−ρ). This is what makes utilization matter at
	// millisecond scale, as it does in real engines with network buffers.
	BurstFactor float64
	// BufferTuples caps the queued tuples per instance (bounded channel /
	// network buffer pool).
	BufferTuples float64
	// Latency penalty multiplier applied per unit of overload when the
	// offered load exceeds capacity (backpressure).
	BackpressurePenalty float64

	// Multiplicative log-normal measurement noise (σ of log). Zero disables.
	NoiseSigma float64
}

// DefaultCostModel returns constants calibrated so that a single 2 GHz core
// filters roughly 300k simple tuples per second — the right order of
// magnitude for the paper's event-rate grid (100 ev/s … 4M ev/s) to span
// everything from idle to heavily backpressured plans on Table II clusters.
func DefaultCostModel() CostModel {
	return CostModel{
		SourceBase:            2.0,
		FilterBase:            3.0,
		AggBase:               5.0,
		JoinBase:              6.0,
		SinkBase:              2.0,
		PerAttr:               0.5,
		IntFactor:             1.0,
		DoubleFactor:          1.15,
		StringFactor:          2.2,
		JoinProbe:             0.04,
		EmitCost:              1.5,
		KeyHash:               1.2,
		HopLatencyMs:          0.25,
		BufferFlushMs:         10,
		BufferBytesPerChannel: 32 * 1024,
		SerdePerByte:          0.004,
		SyncPerInstanceMs:     0.045,
		SkewBase:              0.12,
		SkewGrowth:            0.06,
		MaxRho:                0.97,
		BurstFactor:           400,
		BufferTuples:          65536,
		BackpressurePenalty:   8.0,
		NoiseSigma:            0.06,
	}
}

// typeFactor maps a tuple data-type class to its comparison/hash cost
// multiplier.
func (cm *CostModel) typeFactor(dt queryplan.DataType) float64 {
	switch dt {
	case queryplan.TypeString:
		return cm.StringFactor
	case queryplan.TypeDouble:
		return cm.DoubleFactor
	default:
		return cm.IntFactor
	}
}

// aggFuncFactor differentiates aggregation functions slightly: avg keeps two
// accumulators, min/max branch, sum/count are cheapest.
func aggFuncFactor(f queryplan.AggFunc) float64 {
	switch f {
	case queryplan.AggAvg:
		return 1.25
	case queryplan.AggMin, queryplan.AggMax:
		return 1.1
	default:
		return 1.0
	}
}

// cmpFuncFactor differentiates filter comparison functions: equality is the
// cheapest, range comparisons marginally more.
func cmpFuncFactor(f queryplan.CmpFunc) float64 {
	switch f {
	case queryplan.CmpEQ, queryplan.CmpNE:
		return 1.0
	case queryplan.CmpLT, queryplan.CmpGT:
		return 1.08
	case queryplan.CmpLE, queryplan.CmpGE:
		return 1.12
	default:
		return 1.0
	}
}

// TupleBytes estimates the wire size of a tuple: width attributes of the
// given class plus a small envelope.
func TupleBytes(width int, dt queryplan.DataType) float64 {
	per := 8.0
	if dt == queryplan.TypeString {
		per = 24.0
	}
	return 16 + float64(float64(width)*per)
}

// ServiceTimeUs returns the CPU time (µs) one instance of op spends per
// input tuple on a core of the given frequency, including amortized
// emission costs for window operators. oppWindowTuples is the expected
// tuple count of the opposite join window (joins only).
func (cm *CostModel) ServiceTimeUs(op *queryplan.Operator, freqGHz, outPerIn, oppWindowTuples float64) float64 {
	if freqGHz <= 0 {
		freqGHz = 1
	}
	tf := cm.typeFactor(op.TupleDataType)
	width := float64(op.TupleWidthIn)
	// Each product is rounded on its own, float64(a*b), so no architecture
	// fuses it into the sum: labels are the same bits on amd64 and arm64.
	var us float64
	switch op.Type {
	case queryplan.OpSource:
		us = cm.SourceBase + float64(cm.PerAttr*float64(op.TupleWidthOut)*tf)
	case queryplan.OpFilter:
		us = float64(cm.FilterBase*cmpFuncFactor(op.FilterFunc)*cm.typeFactor(op.FilterLiteralClass)) +
			float64(cm.PerAttr*width)
	case queryplan.OpAggregate:
		us = float64(cm.AggBase*aggFuncFactor(op.AggFunc)) + float64(cm.PerAttr*width)
		if op.AggKeyClass != queryplan.TypeNone {
			us += float64(cm.KeyHash * cm.typeFactor(op.AggKeyClass))
		}
		us += float64(cm.EmitCost * outPerIn) // amortized window emissions
	case queryplan.OpJoin:
		us = cm.JoinBase + float64(cm.PerAttr*width) +
			float64(cm.KeyHash*cm.typeFactor(op.JoinKeyClass)) +
			float64(cm.JoinProbe*oppWindowTuples) + // probe the opposite window
			float64(cm.EmitCost*outPerIn)
	case queryplan.OpSink:
		us = cm.SinkBase + float64(cm.PerAttr*width)
	}
	return us / freqGHz
}
