package serve

import (
	"fmt"
	"strings"
	"testing"

	"zerotune/internal/obs"
)

// TestWriteMetricsHostileModelPath feeds the model-identity line a path
// full of exposition-format landmines — backslashes, double quotes, a
// newline, non-ASCII bytes — and requires the full /metrics payload to
// survive the strict parser with the path round-tripping byte-exactly.
// The old %q rendering emitted \xNN escapes for non-ASCII bytes, which
// obs.ParseText (and real Prometheus) reject.
func TestWriteMetricsHostileModelPath(t *testing.T) {
	hostile := `C:\models\"prod"\caf` + "\u00e9\u2713" + "\nnight.json"
	s := NewStats(nil)
	s.Endpoint("predict").Requests.Inc()
	entry := &ModelEntry{ID: `sha256:ab"c\d`, Path: hostile, Gen: 7}

	var b strings.Builder
	s.WriteMetrics(&b, entry)
	samples, err := obs.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("strict parse of /metrics with hostile model path failed: %v\n%s", err, b.String())
	}
	if err := obs.CheckHistograms(samples); err != nil {
		t.Fatal(err)
	}
	if _, ok := obs.FindSample(samples, "zerotune_model_info",
		obs.L("id", `sha256:ab"c\d`), obs.L("path", hostile), obs.L("gen", "7")); !ok {
		t.Fatalf("model_info labels did not round-trip through the parser:\n%s", b.String())
	}
}

// TestWriteMetricsNoModel keeps the nil-model path rendering only the
// registry (no stray identity line).
func TestWriteMetricsNoModel(t *testing.T) {
	s := NewStats(nil)
	var b strings.Builder
	s.WriteMetrics(&b, nil)
	if strings.Contains(b.String(), "zerotune_model_info") {
		t.Fatal("model_info rendered without a model")
	}
	if _, err := obs.ParseText(strings.NewReader(b.String())); err != nil {
		t.Fatal(err)
	}
}

// TestQuantileDigestPartialSnapshot covers the Summary bug where a snapshot
// carrying p50 but not p99 printed a fabricated `p99 0.000ms`: each
// quantile must be ok-checked independently.
func TestQuantileDigestPartialSnapshot(t *testing.T) {
	render := func(qs map[float64]float64) string {
		var b []byte
		w := func(format string, args ...any) { b = fmt.Appendf(b, format, args...) }
		appendQuantileDigest(w, obs.HistogramSnapshot{Quantiles: qs})
		return string(b)
	}

	if got := render(map[float64]float64{0.5: 0.002}); got != ", p50 2.000ms" {
		t.Fatalf("p50-only snapshot rendered %q; a fabricated p99 must not appear", got)
	}
	if got := render(map[float64]float64{0.5: 0.002, 0.99: 0.05}); got != ", p50 2.000ms p99 50.000ms" {
		t.Fatalf("full snapshot rendered %q", got)
	}
	if got := render(nil); got != "" {
		t.Fatalf("empty snapshot rendered %q, want nothing", got)
	}
	// A p99 without a p50 still prints (no cross-quantile coupling).
	if got := render(map[float64]float64{0.99: 0.05}); got != " p99 50.000ms" {
		t.Fatalf("p99-only snapshot rendered %q", got)
	}
}

// TestSummaryRendersQuantiles exercises the real Summary path end to end:
// observed latencies must show up as p50/p99, never as zeros.
func TestSummaryRendersQuantiles(t *testing.T) {
	s := NewStats(nil)
	ep := s.Endpoint("predict")
	ep.Requests.Inc()
	for i := 0; i < 100; i++ {
		ep.Latency.Observe(0.010)
	}
	sum := s.Summary(CacheStats{}, 0, FlushCounts{}, nil)
	if !strings.Contains(sum, "p50 10.000ms") || !strings.Contains(sum, "p99 10.000ms") {
		t.Fatalf("summary missing quantiles:\n%s", sum)
	}
	if strings.Contains(sum, "p99 0.000ms") {
		t.Fatalf("summary fabricated a zero p99:\n%s", sum)
	}
}
