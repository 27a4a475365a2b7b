package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one traced interval. The benchmark records spans from outside the
// program — around each call into a layer's public function — and keeps them
// in memory until the run ends. IDs are 1-based; a root has parent 0.
type span struct {
	TraceID  uint64 `json:"trace_id"`
	SpanID   uint64 `json:"span_id"`
	ParentID uint64 `json:"parent_id"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// traceEpoch anchors span timestamps; they are nanoseconds since process
// start on the monotonic clock.
var traceEpoch = time.Now()

func sinceEpoch(t time.Time) int64 { return int64(t.Sub(traceEpoch)) }

// rootSpanBudget bounds the request root spans kept per traced run (all
// clients together): the newest ones win. A hot run completes millions of
// requests; the trace file is for reading, not for replaying the run.
const rootSpanBudget = 32768

// spanRing is one client's preallocated ring of request root spans, so that
// tracing a call costs one struct store and no allocation.
type spanRing struct {
	idBase uint64
	buf    []span
	n      uint64
}

func newSpanRing(client, size int) *spanRing {
	return &spanRing{idBase: uint64(client+1) << 40, buf: make([]span, size)}
}

func (r *spanRing) root(start, end time.Time) {
	r.n++
	id := r.idBase | r.n
	r.buf[r.n%uint64(len(r.buf))] = span{
		TraceID: id, SpanID: id, Layer: "bench", Name: "request",
		StartNs: sinceEpoch(start), EndNs: sinceEpoch(end),
	}
}

func (r *spanRing) spans() []span {
	var out []span
	for _, s := range r.buf {
		if s.SpanID != 0 {
			out = append(out, s)
		}
	}
	return out
}

// replayTrace collects the spans of the staged replay: one root per replayed
// request, one child per public call made for it.
type replayTrace struct {
	spans  []span
	nextID uint64
}

func newReplayTrace() *replayTrace { return &replayTrace{nextID: 1 << 56} }

// add records one finished span. A span without a parent is a request of its
// own and starts a trace; a child joins its parent's trace (the replay nests
// one level deep, so the parent's ID is the trace ID).
func (t *replayTrace) add(parent uint64, layer, name string, start, end time.Time) uint64 {
	t.nextID++
	traceID := parent
	if parent == 0 {
		traceID = t.nextID
	}
	t.spans = append(t.spans, span{
		TraceID: traceID, SpanID: t.nextID, ParentID: parent, Layer: layer, Name: name,
		StartNs: sinceEpoch(start), EndNs: sinceEpoch(end),
	})
	return t.nextID
}

// begin opens a root span whose end is not known yet; finish closes it.
func (t *replayTrace) begin(layer, name string, start time.Time) (id uint64, finish func(end time.Time)) {
	id = t.add(0, layer, name, start, start)
	at := len(t.spans) - 1
	return id, func(end time.Time) { t.spans[at].EndNs = sinceEpoch(end) }
}

// selfTimes returns each span's duration minus the part of it its direct
// children cover, keyed by span ID.
func selfTimes(spans []span) map[uint64]int64 {
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		self[s.SpanID] += s.EndNs - s.StartNs
	}
	for _, s := range spans {
		if s.ParentID != 0 {
			self[s.ParentID] -= s.EndNs - s.StartNs
		}
	}
	return self
}

func writeTrace(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, f.Close()
}
