// Package queryplan models streaming queries the way ZeroTune sees them:
// a logical operator DAG (source → filter/window operators → sink), and the
// parallel query plan (PQP) that annotates every operator with a parallelism
// degree and a placement of its parallel instances onto cluster nodes.
//
// The operator parameter space follows Table I of the paper: every feature
// listed there (window type/policy/length, filter function and literal
// class, aggregation function and key class, join key class, tuple widths,
// selectivity, event rate, partitioning strategy, …) is a field here.
package queryplan

import "fmt"

// OpType identifies a streaming operator kind.
type OpType int

// Operator kinds supported by ZeroTune (paper Table III: source, filter,
// window-join, window-aggregation, plus the sink every query ends in).
const (
	OpSource OpType = iota
	OpFilter
	OpAggregate // window aggregation
	OpJoin      // window join
	OpSink
)

// String implements fmt.Stringer.
func (t OpType) String() string {
	switch t {
	case OpSource:
		return "source"
	case OpFilter:
		return "filter"
	case OpAggregate:
		return "aggregate"
	case OpJoin:
		return "join"
	case OpSink:
		return "sink"
	default:
		return fmt.Sprintf("op(%d)", int(t))
	}
}

// DataType is the class of a tuple attribute, filter literal, join key or
// aggregation key. Only the *class* is a feature — never the literal value —
// which is exactly what makes the feature transferable.
type DataType int

// Data type classes used in tuples and operator parameters.
const (
	TypeNone DataType = iota
	TypeInt
	TypeDouble
	TypeString
)

// String implements fmt.Stringer.
func (d DataType) String() string {
	switch d {
	case TypeNone:
		return "none"
	case TypeInt:
		return "int"
	case TypeDouble:
		return "double"
	case TypeString:
		return "string"
	default:
		return fmt.Sprintf("type(%d)", int(d))
	}
}

// CmpFunc is a comparison filter function (Table I "Filter function").
type CmpFunc int

// Comparison functions available to filter operators.
const (
	CmpNone CmpFunc = iota
	CmpLT
	CmpLE
	CmpGT
	CmpGE
	CmpEQ
	CmpNE
)

// String implements fmt.Stringer.
func (c CmpFunc) String() string {
	switch c {
	case CmpNone:
		return "none"
	case CmpLT:
		return "<"
	case CmpLE:
		return "<="
	case CmpGT:
		return ">"
	case CmpGE:
		return ">="
	case CmpEQ:
		return "=="
	case CmpNE:
		return "!="
	default:
		return fmt.Sprintf("cmp(%d)", int(c))
	}
}

// WindowType is the shifting strategy of a window operator.
type WindowType int

// Window shifting strategies.
const (
	WindowNone WindowType = iota
	WindowTumbling
	WindowSliding
)

// String implements fmt.Stringer.
func (w WindowType) String() string {
	switch w {
	case WindowNone:
		return "none"
	case WindowTumbling:
		return "tumbling"
	case WindowSliding:
		return "sliding"
	default:
		return fmt.Sprintf("window(%d)", int(w))
	}
}

// WindowPolicy is the windowing strategy: count- or time-based.
type WindowPolicy int

// Window policies.
const (
	PolicyNone WindowPolicy = iota
	PolicyCount
	PolicyTime
)

// String implements fmt.Stringer.
func (p WindowPolicy) String() string {
	switch p {
	case PolicyNone:
		return "none"
	case PolicyCount:
		return "count"
	case PolicyTime:
		return "time"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// AggFunc is an aggregation function (Table I "Agg. function").
type AggFunc int

// Aggregation functions.
const (
	AggNone AggFunc = iota
	AggMin
	AggMax
	AggAvg
	AggSum
	AggCount
)

// String implements fmt.Stringer.
func (a AggFunc) String() string {
	switch a {
	case AggNone:
		return "none"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	case AggSum:
		return "sum"
	case AggCount:
		return "count"
	default:
		return fmt.Sprintf("agg(%d)", int(a))
	}
}

// PartitionStrategy dictates how an operator's output stream is distributed
// among the parallel instances of its downstream operator.
type PartitionStrategy int

// Partitioning strategies supported by ZeroTune (forward, rebalance,
// hashing — Sec. III-B1).
const (
	PartForward PartitionStrategy = iota
	PartRebalance
	PartHash
)

// String implements fmt.Stringer.
func (p PartitionStrategy) String() string {
	switch p {
	case PartForward:
		return "forward"
	case PartRebalance:
		return "rebalance"
	case PartHash:
		return "hash"
	default:
		return fmt.Sprintf("part(%d)", int(p))
	}
}

// Operator is one logical streaming operator with the full transferable
// parameter space of Table I. Fields that do not apply to the operator's
// type are left at their zero values (TypeNone, CmpNone, …). The JSON tags
// define the stable snake_case wire format used by plan files and the
// zerotune-serve HTTP API; enum fields travel as their integer codes.
type Operator struct {
	ID   int    `json:"id"`
	Type OpType `json:"type"`

	// Data features.
	TupleWidthIn  int      `json:"tuple_width_in,omitempty"`  // attributes per input tuple
	TupleWidthOut int      `json:"tuple_width_out,omitempty"` // attributes per output tuple
	TupleDataType DataType `json:"tuple_data_type,omitempty"` // dominant attribute class of the tuple
	Selectivity   float64  `json:"selectivity,omitempty"`     // avg output/input ratio across instances
	EventRate     float64  `json:"event_rate,omitempty"`      // events/second; sources only

	// Filter features.
	FilterFunc         CmpFunc  `json:"filter_func,omitempty"`
	FilterLiteralClass DataType `json:"filter_literal_class,omitempty"`

	// Window features (aggregate and join operators).
	WindowType    WindowType   `json:"window_type,omitempty"`
	WindowPolicy  WindowPolicy `json:"window_policy,omitempty"`
	WindowLength  float64      `json:"window_length,omitempty"`  // tuples (count policy) or milliseconds (time policy)
	SlidingLength float64      `json:"sliding_length,omitempty"` // same unit as WindowLength; sliding windows only

	// Join features.
	JoinKeyClass DataType `json:"join_key_class,omitempty"`

	// Aggregation features.
	AggFunc     AggFunc  `json:"agg_func,omitempty"`
	AggClass    DataType `json:"agg_class,omitempty"`
	AggKeyClass DataType `json:"agg_key_class,omitempty"`
}

// IsWindowed reports whether the operator buffers tuples in windows.
func (o *Operator) IsWindowed() bool {
	return o.Type == OpAggregate || o.Type == OpJoin
}

// WindowSpan returns the horizon (seconds) the operator's window covers and
// its emission frequency (windows/second) at input rate inRate (events/second,
// floored at 1e-9): a time window's lengths are milliseconds, a count window's
// are tuples and so scale with the rate. A tumbling window slides by its own
// length. Unwindowed operators report 0, 0. Every estimate of Defs. 3–6 — the
// simulator's, the feature encoder's, OptiSample's — reads the window here.
func (o *Operator) WindowSpan(inRate float64) (horizonSec, windowsPerSec float64) {
	if inRate < 1e-9 {
		inRate = 1e-9
	}
	length := o.WindowLength
	slide := o.SlidingLength
	if o.WindowType != WindowSliding || slide <= 0 {
		slide = length
	}
	switch o.WindowPolicy {
	case PolicyTime:
		return length / 1000, 1000 / slide
	case PolicyCount:
		return length / inRate, inRate / slide
	default:
		return 0, 0
	}
}

// Validate checks the operator's parameters for internal consistency.
func (o *Operator) Validate() error {
	if o.Selectivity < 0 {
		return fmt.Errorf("operator %d (%s): negative selectivity %v", o.ID, o.Type, o.Selectivity)
	}
	switch o.Type {
	case OpSource:
		if o.EventRate <= 0 {
			return fmt.Errorf("source %d: event rate must be positive, got %v", o.ID, o.EventRate)
		}
		if o.TupleWidthOut <= 0 {
			return fmt.Errorf("source %d: tuple width must be positive, got %d", o.ID, o.TupleWidthOut)
		}
	case OpFilter:
		if o.FilterFunc == CmpNone {
			return fmt.Errorf("filter %d: missing filter function", o.ID)
		}
		if o.Selectivity > 1 {
			return fmt.Errorf("filter %d: selectivity %v > 1", o.ID, o.Selectivity)
		}
	case OpAggregate:
		if o.WindowType == WindowNone || o.WindowPolicy == PolicyNone {
			return fmt.Errorf("aggregate %d: window type/policy unset", o.ID)
		}
		if o.WindowLength <= 0 {
			return fmt.Errorf("aggregate %d: window length must be positive, got %v", o.ID, o.WindowLength)
		}
		if o.WindowType == WindowSliding && (o.SlidingLength <= 0 || o.SlidingLength > o.WindowLength) {
			return fmt.Errorf("aggregate %d: sliding length %v invalid for window %v", o.ID, o.SlidingLength, o.WindowLength)
		}
		if o.AggFunc == AggNone {
			return fmt.Errorf("aggregate %d: missing aggregation function", o.ID)
		}
	case OpJoin:
		if o.WindowType == WindowNone || o.WindowPolicy == PolicyNone {
			return fmt.Errorf("join %d: window type/policy unset", o.ID)
		}
		if o.WindowLength <= 0 {
			return fmt.Errorf("join %d: window length must be positive, got %v", o.ID, o.WindowLength)
		}
		if o.JoinKeyClass == TypeNone {
			return fmt.Errorf("join %d: missing join key class", o.ID)
		}
	case OpSink:
		// No parameters.
	default:
		return fmt.Errorf("operator %d: unknown type %v", o.ID, o.Type)
	}
	return nil
}
