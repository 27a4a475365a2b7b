// Package obs is the unified observability layer of the system: a central
// metrics registry (counters, gauges, histograms, all label-aware), a
// lightweight tracer (spans with parent/child links, propagated through
// context.Context), and exporters for both — Prometheus text format for
// metrics, a bounded in-memory ring of completed traces dumped as JSON,
// and net/http/pprof wiring. Everything is stdlib-only and safe for
// concurrent use.
//
// Two rules shape the design:
//
//  1. Disabled means (nearly) free. Tracing is opt-in per context: without
//     a Tracer installed via WithTracer, StartSpan returns a nil *Span
//     whose methods are no-ops, so an instrumented hot path costs one
//     context lookup and zero allocations. The serving benchmark must not
//     regress when observability is off.
//  2. Instruments are plain structs. A Counter is an atomic integer whether
//     or not it is registered; the Registry only names instruments and
//     renders them, so packages can keep private counters and expose them
//     later without changing their hot paths.
//
// Histogram is the one quantile estimator for anything recorded on a serving
// path: /metrics, the drain digests and the bench and plan reports all read
// Snapshot().Quantile, whole-run and within QuantileRelErr. The exact
// quantile of a small sample (a table of q-errors) is metrics.Quantile.
package obs

import (
	"context"
	"time"
)

// ctxKey keys the context values this package installs.
type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
)

// WithTracer returns a context that starts spans on t. Handlers install it
// once at the request boundary; everything below inherits it.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey, t)
}

// TracerFrom returns the tracer installed in ctx, or nil when tracing is
// disabled for this context.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey).(*Tracer)
	return t
}

// SpanFrom returns the innermost open span in ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// TraceID returns the trace ID carried by ctx, or "" when the context is
// not being traced. The serving layer reflects it back to clients in a
// response header so a slow request can be matched to its trace dump.
func TraceID(ctx context.Context) string {
	if s := SpanFrom(ctx); s != nil {
		return s.TraceID
	}
	return ""
}

// StartSpan opens a span named name. When ctx carries a tracer, the span
// becomes a child of the innermost open span (or the root of a new trace)
// and the returned context carries it as the parent for further StartSpan
// calls. Without a tracer both returns degrade gracefully: the original
// context and a nil span whose methods are no-ops.
//
// Callers must End the span exactly once:
//
//	ctx, span := obs.StartSpan(ctx, "cache.lookup")
//	defer span.End()
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	t := TracerFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	sp := t.start(name, SpanFrom(ctx))
	if sp == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, spanKey, sp), sp
}

// RecordSpan records a span that has already happened, from start to end, as
// a child of the innermost open span in ctx — for work one goroutine did on
// behalf of many requests, which each of them records from its own goroutine
// once it knows when the work ran. attrs are key, value pairs. Without a
// tracer in ctx it does nothing.
func RecordSpan(ctx context.Context, name string, start, end time.Time, attrs ...any) {
	t := TracerFrom(ctx)
	if t == nil {
		return
	}
	sp := t.start(name, SpanFrom(ctx))
	sp.start = start
	m := make(map[string]any, len(attrs)/2)
	for i := 0; i+1 < len(attrs); i += 2 {
		m[attrs[i].(string)] = attrs[i+1]
	}
	t.finish(sp, end, m)
}

// StartTrace opens a new root span named name on tracer t and returns a
// context carrying both the tracer and the span — the entry point for
// non-HTTP roots like a training run or a CLI invocation.
func StartTrace(ctx context.Context, t *Tracer, name string) (context.Context, *Span) {
	return StartSpan(WithTracer(ctx, t), name)
}

// now is stubbed in tests that need deterministic span timing.
var now = time.Now
