package obs

import (
	"math"
	"runtime/metrics"
)

// Runtime series: what the Go runtime knows about the process, exported beside
// the request series so a slow tail can be told apart — queueing, the model,
// or the garbage collector and scheduler. Everything is read from
// runtime/metrics while a /metrics page is rendered and at no other time:
// there is no sampler goroutine and nothing on a request's path.
const (
	RuntimeGCPauseMetric      = "zerotune_go_gc_pause_seconds"      // stop-the-world GC pauses, since start-up
	RuntimeSchedLatencyMetric = "zerotune_go_sched_latency_seconds" // runnable goroutines waiting for a thread
	RuntimeHeapLiveMetric     = "zerotune_go_heap_live_bytes"       // heap marked live by the last GC
	RuntimeGoroutinesMetric   = "zerotune_go_goroutines"            // live goroutines
)

// RegisterRuntime adds the runtime series to r. A runtime older than a series'
// source reads it as empty or zero.
func RegisterRuntime(r *Registry) {
	r.GaugeFunc(RuntimeHeapLiveMetric, func() float64 { return runtimeUint("/gc/heap/live:bytes") })
	r.GaugeFunc(RuntimeGoroutinesMetric, func() float64 { return runtimeUint("/sched/goroutines:goroutines") })
	r.HistogramFunc(RuntimeGCPauseMetric, func() HistogramSnapshot { return runtimeHistogram("/sched/pauses/total/gc:seconds") })
	r.HistogramFunc(RuntimeSchedLatencyMetric, func() HistogramSnapshot { return runtimeHistogram("/sched/latencies:seconds") })
}

func runtimeUint(name string) float64 {
	sample := []metrics.Sample{{Name: name}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(sample[0].Value.Uint64())
}

// runtimeHistogram reads one of the runtime's time histograms as a snapshot
// of ours, so it renders — `le` edges, _sum, _count, quantiles — like every
// other histogram on the page. The runtime's buckets are a quarter of an
// octave wide and know no sum: each is counted at its upper edge (lower, for
// the open top one), which reads a pause no shorter than it was, and Sum is
// those edges added up.
func runtimeHistogram(name string) HistogramSnapshot {
	var s HistogramSnapshot
	sample := []metrics.Sample{{Name: name}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindFloat64Histogram {
		return s
	}
	h := sample[0].Value.Float64Histogram()
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		v := h.Buckets[i+1]
		if math.IsInf(v, 1) {
			v = h.Buckets[i]
		}
		s.counts[bucketIndex(v)] += n
		s.Count += n
		s.Sum += float64(float64(n) * v) // never fused (arm64 would)
		s.Max = max(s.Max, v)
	}
	return s
}
