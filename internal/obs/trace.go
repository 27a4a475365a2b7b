package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed operation inside a trace. Fields are immutable after
// creation except the attributes (guarded by mu) and the end time (written
// once by End). All methods are safe on a nil receiver, which is what
// StartSpan returns when tracing is disabled.
type Span struct {
	TraceID  string
	SpanID   string
	ParentID string // empty for the root span
	Name     string

	tracer *Tracer
	root   bool
	start  time.Time

	mu    sync.Mutex
	attrs map[string]any
	ended bool
}

// SetAttr attaches a key/value attribute to the span (loss, batch size,
// cache verdict, ...). Values must be JSON-encodable.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		if s.attrs == nil {
			s.attrs = make(map[string]any, 4)
		}
		s.attrs[key] = value
	}
	s.mu.Unlock()
}

// End closes the span and records it on its trace. Ending the root span
// finalizes the whole trace into the tracer's completed ring. A second End
// is a no-op; an End after the trace was already finalized or evicted
// counts as an orphan (see Tracer.Stats).
func (s *Span) End() {
	if s == nil {
		return
	}
	end := now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()
	s.tracer.finish(s, end, attrs)
}

// SpanData is the exported (JSON) form of a completed span.
type SpanData struct {
	SpanID   string         `json:"span_id"`
	ParentID string         `json:"parent_id,omitempty"`
	Name     string         `json:"name"`
	Start    time.Time      `json:"start"`
	Duration time.Duration  `json:"duration_ns"`
	Attrs    map[string]any `json:"attrs,omitempty"`
}

// TraceData is one completed trace: every span that ended before (or at)
// the moment the root span ended, in end order.
type TraceData struct {
	TraceID  string        `json:"trace_id"`
	Root     string        `json:"root"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Spans    []SpanData    `json:"spans"`
}

// activeTrace accumulates spans until its root ends.
type activeTrace struct {
	id      string
	started time.Time
	spans   []SpanData
}

// Tracer creates spans and keeps a bounded ring of completed traces. The
// zero value is not usable; construct with NewTracer.
type Tracer struct {
	mu     sync.Mutex
	active map[string]*activeTrace
	order  []string // active trace IDs in start order, for orphan eviction

	ring []TraceData // completed traces, ring[pos] is the next write slot
	pos  int
	n    int // number of valid entries in ring

	maxActive int
	idc       atomic.Uint64
	completed atomic.Uint64
	dropped   atomic.Uint64
}

// DefaultRingSize bounds the completed-trace ring when NewTracer is given
// a non-positive size.
const DefaultRingSize = 256

// defaultMaxActive bounds in-flight traces; beyond it the oldest active
// trace is evicted as an orphan so abandoned roots cannot leak memory.
const defaultMaxActive = 1024

// NewTracer builds a tracer whose completed-trace ring holds size traces
// (DefaultRingSize when <= 0).
func NewTracer(size int) *Tracer {
	if size <= 0 {
		size = DefaultRingSize
	}
	return &Tracer{
		active:    make(map[string]*activeTrace),
		ring:      make([]TraceData, size),
		maxActive: defaultMaxActive,
	}
}

// newID returns a process-unique hex ID. A counter (not randomness) keeps
// IDs deterministic per process, which tests and diffing both appreciate.
func (t *Tracer) newID() string {
	return fmt.Sprintf("%012x", t.idc.Add(1))
}

// start opens a span under parent (nil parent starts a new trace).
func (t *Tracer) start(name string, parent *Span) *Span {
	sp := &Span{Name: name, tracer: t, start: now(), SpanID: t.newID()}
	if parent != nil {
		sp.TraceID = parent.TraceID
		sp.ParentID = parent.SpanID
		return sp
	}
	sp.root = true
	sp.TraceID = "t" + t.newID()
	t.mu.Lock()
	t.active[sp.TraceID] = &activeTrace{id: sp.TraceID, started: sp.start}
	t.order = append(t.order, sp.TraceID)
	t.evictLocked()
	t.mu.Unlock()
	return sp
}

// evictLocked drops the oldest active traces beyond maxActive. Their spans
// are lost and counted as dropped — an abandoned root span (never ended)
// must not pin memory forever.
func (t *Tracer) evictLocked() {
	for len(t.active) > t.maxActive {
		// order may contain IDs already finalized; skip those.
		id := t.order[0]
		t.order = t.order[1:]
		if _, ok := t.active[id]; ok {
			delete(t.active, id)
			t.dropped.Add(1)
		}
	}
}

// finish records an ended span, finalizing the trace when the root ends.
func (t *Tracer) finish(s *Span, end time.Time, attrs map[string]any) {
	d := end.Sub(s.start)
	if d <= 0 {
		d = 1 // clock granularity: a measured span never reports zero
	}
	data := SpanData{
		SpanID: s.SpanID, ParentID: s.ParentID, Name: s.Name,
		Start: s.start, Duration: d, Attrs: attrs,
	}
	t.mu.Lock()
	tr, ok := t.active[s.TraceID]
	if !ok {
		t.mu.Unlock()
		// Trace already finalized (child outlived its root) or evicted.
		t.dropped.Add(1)
		return
	}
	tr.spans = append(tr.spans, data)
	if !s.root {
		t.mu.Unlock()
		return
	}
	delete(t.active, s.TraceID)
	t.ring[t.pos] = TraceData{
		TraceID: s.TraceID, Root: s.Name, Start: s.start, Duration: d, Spans: tr.spans,
	}
	t.pos = (t.pos + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}
	t.mu.Unlock()
	t.completed.Add(1)
}

// Traces snapshots the completed-trace ring, newest first.
func (t *Tracer) Traces() []TraceData {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceData, 0, t.n)
	for i := 1; i <= t.n; i++ {
		out = append(out, t.ring[(t.pos-i+len(t.ring))%len(t.ring)])
	}
	return out
}

// Stats reports lifetime counters: completed is the number of finalized
// traces (including ones since evicted from the ring); dropped counts
// orphan spans (ended after their trace finalized) and evicted
// never-finalized traces.
func (t *Tracer) Stats() (completed, dropped uint64) {
	return t.completed.Load(), t.dropped.Load()
}
