package serve

import (
	"fmt"
	"math"
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
	s.Endpoint("predict").Latency.Observe(0.001)
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

// TestSummaryRendersQuantiles exercises the real Summary path end to end:
// observed latencies show up as p50/p99 within the histogram's error, and an
// endpoint that answered nothing prints no quantiles at all rather than a
// fabricated zero.
func TestSummaryRendersQuantiles(t *testing.T) {
	s := NewStats(nil)
	ep := s.Endpoint("predict")
	if sum := s.Summary(CacheStats{}, 0, FlushCounts{}, nil); strings.Contains(sum, "p50") || strings.Contains(sum, "p99") {
		t.Fatalf("summary fabricated quantiles before the first observation:\n%s", sum)
	}
	for i := 0; i < 100; i++ {
		ep.Latency.Observe(0.010)
	}
	sum := s.Summary(CacheStats{}, 0, FlushCounts{}, nil)
	var p50, p99 float64
	_, tail, _ := strings.Cut(sum, ", p50 ")
	if _, err := fmt.Sscanf(tail, "%fms p99 %fms", &p50, &p99); err != nil {
		t.Fatalf("summary missing quantiles (%v):\n%s", err, sum)
	}
	for _, ms := range []float64{p50, p99} {
		if math.Abs(ms-10) > 10*obs.QuantileRelErr {
			t.Fatalf("p50 %.3fms p99 %.3fms, want both within %.1f%% of 10ms:\n%s", p50, p99, 100*obs.QuantileRelErr, sum)
		}
	}
}
