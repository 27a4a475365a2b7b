package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"zerotune/internal/obs"
)

// counters is a point-in-time reading of every count the per-layer metrics
// are deltas of: the servers' Snapshot(), the gateway's rendered /metrics
// page, the Go runtime and the process's CPU time.
type counters struct {
	requests, errors, degraded      uint64
	predicts, bodyHits              uint64
	planHits, planMisses, evictions uint64
	batches, inferences             uint64

	routed              []float64 // per replica
	retries, spillovers float64
	queueWaitP99S       float64

	mallocs, allocBytes, pauseNs uint64
	gcCycles                     uint32
	cpu                          time.Duration
	host                         hostTime
}

func (t *target) counters() (counters, error) {
	var c counters
	for _, s := range t.servers {
		snap := s.Snapshot()
		for _, n := range snap.Requests {
			c.requests += n
		}
		for _, n := range snap.Errors {
			c.errors += n
		}
		c.predicts += snap.Requests["predict"]
		c.degraded += snap.Degraded
		c.bodyHits += snap.BodyHits
		c.planHits += snap.Cache.Hits + snap.Cache.Coalesced
		c.planMisses += snap.Cache.Misses
		c.evictions += snap.Cache.Evictions
		c.batches += snap.Batches
		c.inferences += snap.Inferences
	}
	if t.gw != nil {
		var page bytes.Buffer
		if err := t.gw.Metrics().WritePrometheus(&page); err != nil {
			return c, err
		}
		samples, err := obs.ParseText(&page)
		if err != nil {
			return c, fmt.Errorf("gateway metrics: %w", err)
		}
		for _, r := range t.gw.Pool().Replicas() {
			v, _ := obs.FindSample(samples, "zerotune_gateway_route_decisions_total", obs.L("replica", r.Name()))
			c.routed = append(c.routed, v)
		}
		c.retries, _ = obs.FindSample(samples, "zerotune_gateway_forward_retries_total")
		c.spillovers, _ = obs.FindSample(samples, "zerotune_gateway_spillover_total")
		c.queueWaitP99S, _ = obs.FindSample(samples, "zerotune_gateway_queue_wait_seconds", obs.L("quantile", "0.99"))
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes, c.pauseNs, c.gcCycles = ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs, ms.NumGC
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return c, fmt.Errorf("getrusage: %w", err)
	}
	c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	c.host = readHostTime()
	return c, nil
}

// hostTime is the aggregate cpu line of /proc/stat, in ticks: all of the VM's
// CPU time, and the part of it the hypervisor gave to someone else (steal).
// Zeros where there is no such file.
type hostTime struct{ total, steal uint64 }

func readHostTime() hostTime {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTime{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostTime{}
	}
	var t hostTime
	for i, f := range fields[1:9] { // user nice system idle iowait irq softirq steal
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return hostTime{}
		}
		t.total += n
		if i == 7 {
			t.steal = n
		}
	}
	return t
}

// stolenShare is the share of the VM's CPU time between two readings that the
// hypervisor withheld: the direct sign of a noisy neighbour. It is capped so
// that a duration less its stolen share stays positive.
func stolenShare(a, b hostTime) float64 {
	return min(ratio(float64(b.steal-a.steal), float64(b.total-a.total)), 0.9)
}

// stealPct is stolenShare over a measured region, in percent: the first thing
// to look at when a run disagrees with its siblings.
func stealPct(a, b counters) float64 { return 100 * stolenShare(a.host, b.host) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// driverCost is what the driver itself spends per request, measured against
// a handler that does nothing; it is the floor under the predict_hot numbers
// and is subtracted from the per-op runtime counters.
type driverCost struct {
	us, allocs, bytes float64
}

// counterMetrics turns the deltas over a measured region of ops requests
// into the per-workload per-layer metrics.
func counterMetrics(a, b counters, ops float64, drv driverCost) map[string]metric {
	d := func(x, y uint64) float64 { return float64(y - x) }
	planLookups := d(a.planHits, b.planHits) + d(a.planMisses, b.planMisses)
	m := map[string]metric{
		"serve.bodycache_hit_share":    {Value: ratio(d(a.bodyHits, b.bodyHits), d(a.predicts, b.predicts)), Unit: "ratio"},
		"serve.plancache_hit_share":    {Value: ratio(d(a.planHits, b.planHits), planLookups), Unit: "ratio"},
		"serve.cache_evictions_per_op": {Value: ratio(d(a.evictions, b.evictions), d(a.requests, b.requests)), Unit: "count"},
		"serve.batch_size_mean":        {Value: ratio(d(a.inferences, b.inferences), d(a.batches, b.batches)), Unit: "count"},
		// Degraded answers and errors count from target start: one anywhere,
		// warm-up included, invalidates the run.
		"serve.degraded": {Value: float64(b.degraded), Unit: "count"},
		"serve.errors":   {Value: float64(b.errors), Unit: "count"},

		"gateway.retries":           {Value: b.retries - a.retries, Unit: "count"},
		"gateway.spillovers":        {Value: b.spillovers - a.spillovers, Unit: "count"},
		"gateway.queue_wait_p99_us": {Value: b.queueWaitP99S * 1e6, Unit: "us"},

		"runtime.allocs_per_op": {Value: ratio(d(a.mallocs, b.mallocs), ops) - drv.allocs, Unit: "count"},
		"runtime.bytes_per_op":  {Value: ratio(d(a.allocBytes, b.allocBytes), ops) - drv.bytes, Unit: "B"},
		"runtime.gc_pause_ms":   {Value: d(a.pauseNs, b.pauseNs) / 1e6, Unit: "ms"},
		"runtime.gc_cycles":     {Value: float64(b.gcCycles - a.gcCycles), Unit: "count"},
		"runtime.cpu_us_per_op": {Value: ratio(float64(b.cpu-a.cpu)/1e3, ops) - drv.us, Unit: "us"},
	}
	var total, top float64
	for i := range b.routed {
		n := b.routed[i] - a.routed[i]
		total += n
		if n > top {
			top = n
		}
	}
	m["gateway.route_share_max"] = metric{Value: ratio(top, total), Unit: "ratio"}
	for name, v := range m {
		v.Samples = int(ops)
		m[name] = v
	}
	return m
}
