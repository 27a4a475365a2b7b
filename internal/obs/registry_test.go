package obs

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"zerotune/internal/metrics"
)

func TestRegistryRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs_total", L("endpoint", "predict")).Add(7)
	r.Counter("reqs_total", L("endpoint", "tune")).Add(2)
	r.Gauge("queue_depth").Set(3.5)
	r.GaugeFunc("uptime_seconds", func() float64 { return 12.25 })
	r.SetInfo("model_info", L("id", `we"ird\pa`+"\n"+`th`), L("gen", "4"))
	h := r.Histogram("latency_seconds", L("endpoint", "predict"))
	for _, v := range []float64{0.0005, 0.004, 0.02, 0.5} {
		h.Observe(v)
	}
	// `le` means ≤: a full micro-batch is exactly 64 and belongs under le="64".
	r.Histogram("batch_size").Observe(64)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	samples, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("strict parse of own output failed: %v\n%s", err, text)
	}
	if err := CheckHistograms(samples); err != nil {
		t.Fatalf("%v\n%s", err, text)
	}

	checks := []struct {
		name   string
		labels []Label
		want   float64
	}{
		{"reqs_total", []Label{L("endpoint", "predict")}, 7},
		{"reqs_total", []Label{L("endpoint", "tune")}, 2},
		{"queue_depth", nil, 3.5},
		{"uptime_seconds", nil, 12.25},
		{"model_info", []Label{L("id", `we"ird\pa`+"\n"+`th`), L("gen", "4")}, 1},
		{"latency_seconds_bucket", []Label{L("endpoint", "predict"), L("le", "0.00390625")}, 1},
		{"latency_seconds_bucket", []Label{L("endpoint", "predict"), L("le", "0.015625")}, 2},
		{"latency_seconds_bucket", []Label{L("endpoint", "predict"), L("le", "0.0625")}, 3},
		{"batch_size_bucket", []Label{L("le", "16")}, 0},
		{"batch_size_bucket", []Label{L("le", "64")}, 1},
		{"latency_seconds_bucket", []Label{L("endpoint", "predict"), L("le", "+Inf")}, 4},
		{"latency_seconds_count", []Label{L("endpoint", "predict")}, 4},
	}
	for _, c := range checks {
		got, ok := FindSample(samples, c.name, c.labels...)
		if !ok {
			t.Errorf("sample %s%v missing from output:\n%s", c.name, c.labels, text)
			continue
		}
		if got != c.want {
			t.Errorf("%s%v = %g, want %g", c.name, c.labels, got, c.want)
		}
	}
	sum, _ := FindSample(samples, "latency_seconds_sum", L("endpoint", "predict"))
	if want := 0.0005 + 0.004 + 0.02 + 0.5; sum < want-1e-12 || sum > want+1e-12 {
		t.Errorf("histogram sum = %g, want %g", sum, want)
	}
	for _, q := range []string{"0.5", "0.9", "0.99"} {
		if _, ok := FindSample(samples, "latency_seconds", L("quantile", q)); !ok {
			t.Errorf("quantile %s series missing:\n%s", q, text)
		}
	}
}

func TestInfoLineEscaping(t *testing.T) {
	// Backslashes, quotes, a newline, a tab, printable unicode and one raw
	// invalid-UTF-8 byte: %q turns the tab into \t and the raw byte into
	// \x80, neither of which the exposition format knows.
	hostile := `C:\m\"x"` + "\n\t" + "caf\u00e9\u2713" + "\x80"
	line := InfoLine("model_info", L("path", hostile), L("id", "a"))
	samples, err := ParseText(strings.NewReader(line))
	if err != nil {
		t.Fatalf("InfoLine output rejected by strict parser: %v\n%s", err, line)
	}
	if v, ok := FindSample(samples, "model_info", L("path", hostile), L("id", "a")); !ok || v != 1 {
		t.Fatalf("hostile label value did not round-trip: %q", line)
	}
	// %q rendering of the same value is NOT parseable — the bug InfoLine
	// exists to prevent: non-ASCII bytes become \xNN escapes.
	bad := "model_info{path=" + strconv.Quote(hostile) + "} 1\n"
	if _, err := ParseText(strings.NewReader(bad)); err == nil {
		t.Fatalf("expected strict parser to reject %%q-escaped line %q", bad)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name must panic")
		}
	}()
	InfoLine("bad metric name")
}

// within reports whether got is within the histogram's stated relative error
// of want.
func within(got, want float64) bool {
	return math.Abs(got-want) <= QuantileRelErr*want
}

// TestHistogramWholeRun: quantiles cover every observation since the
// histogram was created, not the most recent thousand.
func TestHistogramWholeRun(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 10000; i++ {
		h.Observe(0.001)
	}
	for i := 0; i < 1024; i++ {
		h.Observe(0.100)
	}
	s := h.Snapshot()
	if s.Count != 11024 || s.Max != 0.100 {
		t.Fatalf("count %d max %g, want 11024 and 0.1", s.Count, s.Max)
	}
	if p50 := s.Quantile(0.5); !within(p50, 0.001) {
		t.Fatalf("p50 = %g, want ≈0.001: the last 1024 observations must not own the quantile", p50)
	}
	if p99 := s.Quantile(0.99); !within(p99, 0.100) {
		t.Fatalf("p99 = %g, want ≈0.1", p99)
	}
}

// TestHistogramAccuracy holds the log-linear quantile against the exact one
// on a smooth and on a two-humped sample.
func TestHistogramAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	samples := map[string]func() float64{
		"lognormal": func() float64 { return 0.002 * math.Exp(1.5*rng.NormFloat64()) },
		"bimodal": func() float64 {
			if rng.Float64() < 0.7 {
				return 0.0003 * (1 + 0.2*rng.Float64())
			}
			return 0.040 * (1 + 0.5*rng.Float64())
		},
	}
	for name, draw := range samples {
		h := NewHistogram()
		xs := make([]float64, 100000)
		for i := range xs {
			xs[i] = draw()
			h.Observe(xs[i])
		}
		s := h.Snapshot()
		prev := 0.0
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			got, want := s.Quantile(q), metrics.Quantile(xs, q)
			if !within(got, want) {
				t.Errorf("%s q=%g: histogram %g, exact %g (off by %.2f%%, bound %.2f%%)",
					name, q, got, want, 100*math.Abs(got-want)/want, 100*QuantileRelErr)
			}
			if got < prev {
				t.Errorf("%s q=%g: %g below the previous quantile %g", name, q, got, prev)
			}
			prev = got
		}
		if max := metrics.Quantile(xs, 1); s.Max != max || s.Quantile(1) > max {
			t.Errorf("%s: max %g and q=1 %g, want exactly %g and no more", name, s.Max, s.Quantile(1), max)
		}
	}
}

// TestHistogramHostileInput: nothing a caller can pass panics or indexes out
// of range; what the buckets cannot hold lands in the end buckets.
func TestHistogramHostileInput(t *testing.T) {
	below := []float64{0, -1, math.Inf(-1), math.NaN(), 5e-324, 1e-9, math.Ldexp(1, histMinExp)}
	above := []float64{math.Nextafter(math.Ldexp(1, histMaxExp), 2e9), 1e12, math.MaxFloat64, math.Inf(1)}
	for _, v := range below {
		if i := bucketIndex(v); i != 0 {
			t.Errorf("bucketIndex(%g) = %d, want the bottom bucket", v, i)
		}
	}
	for _, v := range above {
		if i := bucketIndex(v); i != histBuckets-1 {
			t.Errorf("bucketIndex(%g) = %d, want the top bucket", v, i)
		}
	}
	// The first and last in-range buckets are upper-inclusive like the rest.
	if i := bucketIndex(math.Nextafter(math.Ldexp(1, histMinExp), 1)); i != 1 {
		t.Errorf("just above the range floor: bucket %d, want 1", i)
	}
	if i := bucketIndex(math.Ldexp(1, histMaxExp)); i != histBuckets-2 {
		t.Errorf("the range ceiling: bucket %d, want %d", i, histBuckets-2)
	}

	r := NewRegistry()
	h := r.Histogram("hostile")
	for _, v := range append(below, above...) {
		h.Observe(v)
	}
	s := h.Snapshot()
	if want := uint64(len(below) + len(above)); s.Count != want {
		t.Fatalf("count %d, want %d", s.Count, want)
	}
	if math.IsNaN(s.Sum) || math.IsInf(s.Sum, 0) {
		t.Fatalf("sum %g: non-finite observations must stay out of it", s.Sum)
	}
	if !math.IsInf(s.Max, 1) {
		t.Fatalf("max %g, want +Inf", s.Max)
	}
	if lo, hi := s.Quantile(0), s.Quantile(1); lo != 0 || !math.IsInf(hi, 1) {
		t.Fatalf("end buckets read back as %g and %g, want 0 and Max", lo, hi)
	}
	var b strings.Builder
	_ = r.WritePrometheus(&b)
	samples, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("%v\n%s", err, b.String())
	}
	if err := CheckHistograms(samples); err != nil {
		t.Fatalf("%v\n%s", err, b.String())
	}
}

// TestHistogramBucketEdges: every bucket's bounds invert bucketIndex, upper
// edge included and lower edge excluded, and no bucket is wider than the
// stated error.
func TestHistogramBucketEdges(t *testing.T) {
	for i := 1; i < histBuckets-1; i++ {
		lo, width := bucketBounds(i)
		if got := bucketIndex(lo + width); got != i {
			t.Fatalf("bucket %d: upper edge %g indexes to %d", i, lo+width, got)
		}
		if got := bucketIndex(lo); got != i-1 {
			t.Fatalf("bucket %d: lower edge %g indexes to %d, want %d", i, lo, got, i-1)
		}
		if width > QuantileRelErr*lo {
			t.Fatalf("bucket %d: width %g over lower edge %g exceeds the bound", i, width, lo)
		}
	}
	for e := leFirstExp; e <= leLastExp; e += 2 {
		if got := bucketIndex(math.Ldexp(1, e)); got != bucketAbove(e)-1 {
			t.Fatalf("le edge 2^%d sits in bucket %d, not at the top of bucket %d", e, got, bucketAbove(e)-1)
		}
	}
	if size := unsafe.Sizeof(Histogram{}); size > 16<<10 {
		t.Fatalf("Histogram is %d bytes; seven of them live per replica, keep it under 16 KiB", size)
	}
}

func TestHistogramObserveDoesNotAllocate(t *testing.T) {
	h := NewHistogram()
	v := 0.0001
	if n := testing.AllocsPerRun(1000, func() { h.Observe(v); v *= 1.01 }); n != 0 {
		t.Fatalf("Observe allocates %.1f times per call", n)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := 0.0001
		for pb.Next() {
			h.Observe(v)
			if v *= 1.01; v > 10 {
				v = 0.0001
			}
		}
	})
}

func TestRegistryDeterministicOutput(t *testing.T) {
	build := func() string {
		r := NewRegistry()
		r.Counter("b_total", L("x", "2")).Inc()
		r.Counter("b_total", L("x", "1")).Inc()
		r.Gauge("a_gauge").Set(1)
		var b strings.Builder
		_ = r.WritePrometheus(&b)
		return b.String()
	}
	if build() != build() {
		t.Fatal("output is not deterministic")
	}
	out := build()
	if strings.Index(out, "a_gauge") > strings.Index(out, "b_total") {
		t.Errorf("families not sorted by name:\n%s", out)
	}
	if strings.Index(out, `x="1"`) > strings.Index(out, `x="2"`) {
		t.Errorf("series not sorted by label set:\n%s", out)
	}
}

func TestRegistryIdempotentAndKindMismatch(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("hits_total")
	c1.Add(5)
	if c2 := r.Counter("hits_total"); c2 != c1 || c2.Load() != 5 {
		t.Fatal("re-registering must return the same instrument")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch must panic")
		}
	}()
	r.Gauge("hits_total")
}

func TestRegistryInfoReplacement(t *testing.T) {
	r := NewRegistry()
	r.SetInfo("model_info", L("id", "a"), L("gen", "1"))
	r.SetInfo("model_info", L("id", "b"), L("gen", "2"))
	var b strings.Builder
	_ = r.WritePrometheus(&b)
	samples, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := FindSample(samples, "model_info", L("id", "a")); ok {
		t.Error("stale info series survived replacement")
	}
	if _, ok := FindSample(samples, "model_info", L("id", "b"), L("gen", "2")); !ok {
		t.Error("current info series missing")
	}
}

// TestRegistryConcurrent registers, records and renders from eight
// goroutines at once (run it under -race). Counts come out exact, every page
// rendered on the way is a consistent one, and a GaugeFunc series is never
// visible to a renderer before its function is.
func TestRegistryConcurrent(t *testing.T) {
	const goroutines, observes, renderEvery = 8, 10000, 100
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < observes; i++ {
				r.Histogram("h").Observe(float64(i%500) / 1000)
				if i%renderEvery != 0 {
					continue
				}
				r.Counter("c_total", L("g", string(rune('a'+g%4)))).Inc()
				r.GaugeFunc("f", func() float64 { return 1 }, L("series", fmt.Sprintf("%d-%d", g, i)))
				var b strings.Builder
				_ = r.WritePrometheus(&b)
				samples, err := ParseText(strings.NewReader(b.String()))
				if err == nil {
					err = CheckHistograms(samples)
				}
				if err != nil {
					t.Errorf("page rendered beside concurrent writers: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	total := uint64(0)
	for _, l := range []string{"a", "b", "c", "d"} {
		total += r.Counter("c_total", L("g", l)).Load()
	}
	if want := uint64(goroutines * observes / renderEvery); total != want {
		t.Fatalf("counter total = %d, want %d", total, want)
	}
	if n := r.Histogram("h").Snapshot().Count; n != goroutines*observes {
		t.Fatalf("histogram count = %d, want %d", n, goroutines*observes)
	}
}

func TestParseTextRejectsMalformed(t *testing.T) {
	bad := []string{
		`1name 3`,
		`name{le="0.1" 3`,
		`name{le=0.1} 3`,
		`name{le="a",le="b"} 3`,
		`name{le="x\q"} 3`,
		`name 3 extra`,
		`name notanumber`,
		`name{} `,
	}
	for _, line := range bad {
		if _, err := ParseText(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("ParseText accepted malformed line %q", line)
		}
	}
}

// TestRuntimeSeries: the runtime's histograms read back through the page as
// what the runtime itself reports — every pause counted, none read shorter
// than the runtime's own bucket says it was.
func TestRuntimeSeries(t *testing.T) {
	for i := 0; i < 3; i++ {
		runtime.GC() // so the pause histogram is not empty
	}
	reg := NewRegistry()
	RegisterRuntime(reg)
	RegisterRuntime(reg) // a registry shared by two tiers registers twice
	samples, err := reg.Samples()
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckHistograms(samples); err != nil {
		t.Fatal(err)
	}
	if v, ok := FindSample(samples, RuntimeGoroutinesMetric); !ok || v < 1 {
		t.Fatalf("%s = %v (present=%v)", RuntimeGoroutinesMetric, v, ok)
	}
	if v, ok := FindSample(samples, RuntimeHeapLiveMetric); !ok || v <= 0 {
		t.Fatalf("%s = %v (present=%v)", RuntimeHeapLiveMetric, v, ok)
	}
	pauses, ok := FindHistogram(samples, RuntimeGCPauseMetric)
	if !ok || pauses.Count < 3 || pauses.Sum <= 0 || pauses.P99 <= 0 || pauses.P99 > 10 {
		t.Fatalf("%s after three collections: %+v (present=%v)", RuntimeGCPauseMetric, pauses, ok)
	}
	if _, ok := FindHistogram(samples, RuntimeSchedLatencyMetric); !ok {
		t.Fatalf("page has no %s", RuntimeSchedLatencyMetric)
	}
}
