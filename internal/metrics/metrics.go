// Package metrics implements the evaluation metrics of the paper: the
// q-error (Leis et al.) with its median/percentile aggregations, speed-up
// factors, and small helpers for bucketing results the way the figures do.
//
// Quantile here is the exact quantile of a small sample — a table's worth of
// q-errors — and sorts a copy on every call. Anything recorded on a serving
// path (request latencies, batch sizes, a load run's results) goes into an
// obs.Histogram instead, which never allocates and answers within a stated
// relative error.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// QError returns q(c, c') = max(c/c', c'/c) ≥ 1, the relative deviation
// between a true cost and its prediction. Non-positive inputs are clamped
// to a tiny epsilon so the metric stays finite.
func QError(truth, pred float64) float64 {
	const eps = 1e-9
	if truth < eps {
		truth = eps
	}
	if pred < eps {
		pred = eps
	}
	if truth > pred {
		return truth / pred
	}
	return pred / truth
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics: exact, at the price of a copy and
// a sort per call. It panics on an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("metrics: quantile of empty slice")
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	// float64(a*b): each product rounded on its own, never fused (arm64 would).
	pos := float64(q * float64(len(sorted)-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// Median returns the 50th percentile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// P95 returns the 95th percentile.
func P95(xs []float64) float64 { return Quantile(xs, 0.95) }

// Mean returns the arithmetic mean, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GeoMean returns the geometric mean of positive values, or 0 for empty
// input. Non-positive entries are clamped.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if x < 1e-12 {
			x = 1e-12
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Speedup returns baseline/current for latency-like metrics (higher is
// better for the current system).
func Speedup(baseline, current float64) float64 {
	if current <= 0 {
		return math.Inf(1)
	}
	return baseline / current
}

// QErrorSummary aggregates a set of q-errors the way Table IV reports them.
type QErrorSummary struct {
	N      int
	Median float64
	P95    float64
	Mean   float64
}

// Summarize builds a QErrorSummary from raw q-errors.
func Summarize(qs []float64) QErrorSummary {
	if len(qs) == 0 {
		return QErrorSummary{}
	}
	return QErrorSummary{N: len(qs), Median: Median(qs), P95: P95(qs), Mean: Mean(qs)}
}

// String renders the summary like a Table IV cell pair.
func (s QErrorSummary) String() string {
	return fmt.Sprintf("median=%.2f p95=%.2f (n=%d)", s.Median, s.P95, s.N)
}

// ParallelismCategory buckets an average parallelism degree into the
// paper's XS/S/M/L/XL classes (Table III):
// 1 ≤ XS < 8, 8 ≤ S < 16, 16 ≤ M < 32, 32 ≤ L < 64, 64 ≤ XL < 128.
func ParallelismCategory(avgDegree float64) string {
	switch {
	case avgDegree < 8:
		return "XS"
	case avgDegree < 16:
		return "S"
	case avgDegree < 32:
		return "M"
	case avgDegree < 64:
		return "L"
	default:
		return "XL"
	}
}

// Categories lists the parallelism classes in display order.
func Categories() []string { return []string{"XS", "S", "M", "L", "XL"} }
