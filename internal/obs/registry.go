package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension (key="value" in the exposition format).
type Label struct{ Key, Value string }

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing atomic counter. Usable standalone;
// Registry.Counter additionally names and exports it.
type Counter struct{ v atomic.Uint64 }

// NewCounter returns an unregistered counter.
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an atomic float64 that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// NewGauge returns an unregistered gauge.
func NewGauge() *Gauge { return &Gauge{} }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// metricKind distinguishes the instrument behind a series.
type metricKind int

const (
	kindCounter metricKind = iota
	kindCounterFunc
	kindGauge
	kindGaugeFunc
	kindHistogram
	kindInfo
)

func (k metricKind) String() string {
	return [...]string{"counter", "counter-func", "gauge", "gauge-func", "histogram", "info"}[k]
}

// series is one (name, labelset) time series.
type series struct {
	labels  string // canonical rendered labels: `k1="v1",k2="v2"`, keys sorted
	counter *Counter
	gauge   *Gauge
	fn      func() float64 // a gauge-func's value, or a counter-func's
	hist    *Histogram
	histFn  func() HistogramSnapshot // a histogram kept elsewhere, read at render time
}

// family groups every series of one metric name.
type family struct {
	name   string
	kind   metricKind
	series map[string]*series
	keys   []string // sorted lazily at render time
}

// Registry names metric instruments and renders them in the Prometheus
// text exposition format. Registration is idempotent: asking for the same
// name+labels returns the existing instrument; asking for the same name
// with a different instrument kind panics (a programming error, caught in
// tests, never at scrape time).
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fams: make(map[string]*family)} }

var (
	nameRE  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// renderLabels canonicalizes a label set: keys sorted, values escaped.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if !labelRE.MatchString(l.Key) {
			panic(fmt.Sprintf("obs: invalid label name %q", l.Key))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabelValue applies the exposition-format escapes.
func escapeLabelValue(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// InfoLine renders one constant-1 info sample (`name{labels} 1`) with the
// exposition-format label escaping this registry uses everywhere else. It
// exists for scrape-time identity lines rendered outside a registry (the
// serve tier's model_info): hand-formatting those with Go's %q produces
// \xNN escapes the strict parser — and real Prometheus — reject, so every
// ad-hoc sample must go through this instead. Panics on an invalid metric
// or label name, like instrument registration.
func InfoLine(name string, labels ...Label) string {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	var b strings.Builder
	writeSample(&b, name, renderLabels(labels), "", 1, true)
	return b.String()
}

// lookup finds or creates the series for (name, labels), enforcing kind
// consistency across the family. fill initializes a freshly created series
// under the registry lock, so a renderer can never observe a series whose
// instrument is still nil.
func (r *Registry) lookup(name string, kind metricKind, labels []Label, fill func(*series)) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lookupLocked(name, kind, labels, fill)
}

// lookupLocked is lookup for a caller that holds r.mu because it has more to
// do to the series before a renderer may see it.
func (r *Registry) lookupLocked(name string, kind metricKind, labels []Label, fill func(*series)) *series {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	key := renderLabels(labels)
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, kind: kind, series: make(map[string]*series)}
		r.fams[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: key}
		fill(s)
		f.series[key] = s
		f.keys = nil // invalidate the sorted-key cache
	}
	return s
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	s := r.lookup(name, kindCounter, labels, func(s *series) { s.counter = NewCounter() })
	return s.counter
}

// CounterFunc exports a counter whose value is computed at scrape time from
// an instrument that already counts the same events (a histogram's count),
// so the events are not counted twice on the path that records them.
// Re-registering replaces the function; fn runs under the rules of GaugeFunc.
func (r *Registry) CounterFunc(name string, fn func() uint64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lookupLocked(name, kindCounterFunc, labels, func(*series) {}).fn = func() float64 { return float64(fn()) }
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	s := r.lookup(name, kindGauge, labels, func(s *series) { s.gauge = NewGauge() })
	return s.gauge
}

// GaugeFunc exports a value computed at scrape time (uptime, a size read
// from another subsystem). Re-registering replaces the function. fn is
// called during rendering with the registry lock held, so it must not call
// back into the registry.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lookupLocked(name, kindGaugeFunc, labels, func(*series) {}).fn = fn
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	s := r.lookup(name, kindHistogram, labels, func(s *series) { s.hist = NewHistogram() })
	return s.hist
}

// HistogramFunc exports a histogram kept elsewhere, snapshotted at scrape time
// under the rules of GaugeFunc.
func (r *Registry) HistogramFunc(name string, fn func() HistogramSnapshot, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lookupLocked(name, kindHistogram, labels, func(*series) {}).histFn = fn
}

// SetInfo publishes a constant-1 info metric whose labels carry identity
// (model ID, build revision). Unlike other instruments the label set is
// replaceable: publishing again drops the previous series, so a hot model
// swap replaces — not accumulates — the identity series.
func (r *Registry) SetInfo(name string, labels ...Label) {
	s := r.lookup(name, kindInfo, labels, func(s *series) {})
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	for k := range f.series {
		if k != s.labels {
			delete(f.series, k)
		}
	}
	f.keys = nil
}

// WritePrometheus renders every registered series in the text exposition
// format, families sorted by name and series sorted by label set, so the
// output is deterministic. Rendering happens into a buffer under the
// registry lock; only the final write touches w, so a slow scraper never
// blocks instrument registration.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := r.fams[name]
		if f.kind == kindHistogram {
			fmt.Fprintf(&b, "# TYPE %s histogram\n", name)
		}
		if f.keys == nil {
			for k := range f.series {
				f.keys = append(f.keys, k)
			}
			sort.Strings(f.keys)
		}
		for _, k := range f.keys {
			s := f.series[k]
			switch f.kind {
			case kindCounter:
				writeSample(&b, name, s.labels, "", float64(s.counter.Load()), true)
			case kindCounterFunc:
				writeSample(&b, name, s.labels, "", s.fn(), true)
			case kindGauge:
				writeSample(&b, name, s.labels, "", s.gauge.Load(), false)
			case kindGaugeFunc:
				writeSample(&b, name, s.labels, "", s.fn(), false)
			case kindInfo:
				writeSample(&b, name, s.labels, "", 1, true)
			case kindHistogram:
				if s.histFn != nil {
					writeHistogram(&b, name, s.labels, s.histFn())
				} else {
					writeHistogram(&b, name, s.labels, s.hist.Snapshot())
				}
			}
		}
	}
	r.mu.Unlock()
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSample renders one `name{labels,extra} value` line.
func writeSample(w *strings.Builder, name, labels, extra string, v float64, integer bool) {
	w.WriteString(name)
	if labels != "" || extra != "" {
		w.WriteByte('{')
		w.WriteString(labels)
		if labels != "" && extra != "" {
			w.WriteByte(',')
		}
		w.WriteString(extra)
		w.WriteByte('}')
	}
	if integer {
		fmt.Fprintf(w, " %d\n", uint64(v))
	} else {
		fmt.Fprintf(w, " %g\n", v)
	}
}

// writeHistogram renders cumulative buckets, sum, count and the summary
// quantiles for one histogram series. Every `le` edge is one of the
// histogram's own bucket edges, so the cumulative counts are exact.
func writeHistogram(w *strings.Builder, name, labels string, s HistogramSnapshot) {
	cum, next := uint64(0), 0
	for e := leFirstExp; e <= leLastExp; e += 2 {
		for end := bucketAbove(e); next < end; next++ {
			cum += s.counts[next]
		}
		writeSample(w, name+"_bucket", labels, fmt.Sprintf("le=%q", fmt.Sprintf("%g", math.Ldexp(1, e))), float64(cum), true)
	}
	writeSample(w, name+"_bucket", labels, `le="+Inf"`, float64(s.Count), true)
	writeSample(w, name+"_sum", labels, "", s.Sum, false)
	writeSample(w, name+"_count", labels, "", float64(s.Count), true)
	if s.Count == 0 {
		return
	}
	for _, q := range [...]float64{0.5, 0.9, 0.99} {
		writeSample(w, name, labels, fmt.Sprintf("quantile=%q", fmt.Sprintf("%g", q)), s.Quantile(q), false)
	}
}

// The histogram's shape is fixed: histSub linear sub-buckets in each power
// of two from 2^histMinExp (60 ns, in seconds) to 2^histMaxExp (17 minutes;
// also every batch size), one bucket below and one above. A bucket is at
// most 1/histSub of its lower edge wide, which is the relative error of any
// quantile read from it. /metrics renders the powers of four from
// 2^leFirstExp to 2^leLastExp as `le` edges.
const (
	histSubBits = 5
	histSub     = 1 << histSubBits
	histMinExp  = -24
	histMaxExp  = 10
	histBuckets = (histMaxExp-histMinExp)*histSub + 2

	leFirstExp = -22
	leLastExp  = 8
)

// QuantileRelErr bounds the relative error of a quantile whose true value
// lies inside the histogram's range.
const QuantileRelErr = 1.0 / histSub

// Histogram is a lock-free log-linear histogram: a fixed array of atomic
// bucket counters indexed straight from the bits of the observed float64.
// Observe is a handful of atomic operations and never allocates; quantiles
// cover every observation since the histogram was created and are within
// QuantileRelErr of the true value. The zero value is ready to use.
//
// Buckets are upper-inclusive, (lo, hi], which is what Prometheus' `le`
// means: an observation of exactly 64 counts under le="64". Values that are
// not positive (zero, negatives, NaN) or at most 2^histMinExp land in the
// bottom bucket and read back as 0; values above 2^histMaxExp (+Inf too)
// land in the top bucket and read back as Max.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	sum    atomic.Uint64 // float64 bits
	max    atomic.Uint64 // float64 bits; the largest positive observation
}

// NewHistogram returns an unregistered histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketIndex maps v to its bucket. Reading the float one ULP below v makes
// the bucket's upper edge inclusive; the exponent and the top histSubBits
// of the mantissa are then the octave and the sub-bucket.
func bucketIndex(v float64) int {
	if !(v > 0) {
		return 0
	}
	i := int((math.Float64bits(v)-1)>>(52-histSubBits)) - (1023+histMinExp)<<histSubBits + 1
	return min(max(i, 0), histBuckets-1)
}

// bucketAbove is the index of the first bucket wholly above 2^e, for e
// within the histogram's range: the buckets below it hold exactly the
// observations ≤ 2^e.
func bucketAbove(e int) int { return (e-histMinExp)*histSub + 1 }

// bucketBounds is the lower edge and width of an in-range bucket.
func bucketBounds(i int) (lo, width float64) {
	octave, sub := (i-1)/histSub+histMinExp, (i-1)%histSub
	width = math.Ldexp(1, octave-histSubBits)
	return math.Ldexp(1, octave) + float64(float64(sub)*width), width // never fused (arm64 would)
}

// Observe records one value. Non-finite values are counted but left out of
// the sum, so _sum stays finite.
func (h *Histogram) Observe(v float64) {
	// Max before the bucket, and Snapshot reads them the other way round: a
	// snapshot that counts an observation also sees a max at least as large.
	for {
		old := h.max.Load()
		if !(v > math.Float64frombits(old)) || h.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	h.counts[bucketIndex(v)].Add(1)
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return
	}
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count is the number of observations so far: the sum of the bucket counts,
// as Snapshot reads it.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// HistogramSnapshot is a point-in-time copy of a histogram. Count is the
// total of the copied buckets, so the rendered +Inf bucket always equals
// _count; Sum and Max are read after the buckets and may include
// observations that raced with the copy.
type HistogramSnapshot struct {
	Count uint64
	Sum   float64
	Max   float64 // exact; 0 when nothing positive was observed

	counts [histBuckets]uint64
}

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.counts {
		s.counts[i] = h.counts[i].Load()
		s.Count += s.counts[i]
	}
	s.Sum = math.Float64frombits(h.sum.Load())
	s.Max = math.Float64frombits(h.max.Load())
	return s
}

// Quantile returns the q-quantile (0 when empty): the bucket holding the
// nearest rank, interpolated linearly by the rank's position in it and
// never above Max.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	n := float64(s.Count)
	rank := min(max(q*n, 0.5), n-0.5)
	var cum float64
	for i, c := range s.counts[:histBuckets-1] {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			if i == 0 {
				return 0
			}
			lo, width := bucketBounds(i)
			return min(lo+width*(rank-cum)/float64(c), s.Max)
		}
		cum += float64(c)
	}
	return s.Max
}
