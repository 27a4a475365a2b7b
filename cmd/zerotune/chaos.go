package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"zerotune/internal/client"
	"zerotune/internal/fault"
	"zerotune/internal/queryplan"
	"zerotune/internal/serve"
)

// chaosCommand replays a seed-deterministic fault schedule against an
// in-process server and asserts the serving invariants hold under fire:
//
//   - every error response carries the stable envelope with a known code —
//     no bare 500s, no unmapped failures;
//   - no request outlives its deadline by more than a stuck-watchdog margin;
//   - the model generation reported by /healthz never moves backwards,
//     reloads included;
//   - once the faults clear, the circuit breaker closes again and healthy
//     (non-degraded) answers return.
//
// The fault event log (-log) is a pure function of the seed: two runs with
// the same seed and model produce byte-identical logs, which is what CI
// diffs. Wall-clock nondeterminism is kept out of the loop by driving
// requests sequentially, flushing batches immediately (no coalescing
// window), and probing the circuit on a request-count schedule instead of a
// cooldown timer.
func chaosCommand(fs *flag.FlagSet) func() error {
	model := bindModel(fs, "model path")
	seed := fs.Uint64("seed", 1, "fault schedule seed")
	requests := fs.Int("requests", 120, "predict requests to replay")
	logPath := fs.String("log", "", "write the fault event log to this file (byte-identical per seed)")
	reqTimeout := fs.Duration("request-timeout", 300*time.Millisecond, "per-predict deadline")
	threshold := fs.Int("circuit-threshold", 3, "consecutive forward failures that trip the circuit")
	probeEvery := fs.Int("probe-every", 4, "admit every Nth rejected request as the recovery probe")
	return func() error {
		if *requests < 2 {
			return fmt.Errorf("chaos: -requests must be at least 2")
		}

		s := newChaosServer(*reqTimeout, *threshold, *probeEvery)
		defer s.Close()
		// Load before activating faults: the replay targets the serving path, not
		// its own setup.
		if _, err := s.ServeModelFile(*model); err != nil {
			return err
		}

		reg := fault.New(*seed)
		for _, sched := range chaosSchedule(*seed, *reqTimeout) {
			reg.Install(sched)
		}
		fault.Activate(reg)
		defer fault.Deactivate()

		h := &chaosHarness{srv: s, c: client.NewForHandler(s), deadline: *reqTimeout}
		clearAt := *requests / 2
		for i := 0; i < *requests; i++ {
			if i == clearAt {
				// Halfway the storm ends; the tail of the run must recover.
				reg.ClearAll()
			}
			h.predict(i, i >= clearAt)
			if i%10 == 9 {
				h.reload(*model)
				h.health()
			}
		}

		// Recovery invariants: with the schedule cleared for the whole second
		// half, the breaker must have closed and the learned path answered again.
		if st := s.Circuit(); st != serve.CircuitClosed {
			h.violate("circuit %s after %d fault-free requests, want closed", st, *requests-clearAt)
		}
		if h.healthyAfterClear == 0 {
			h.violate("no healthy (non-degraded) 200 after the faults cleared")
		}

		if *logPath != "" {
			if err := os.WriteFile(*logPath, []byte(reg.DumpEvents()), 0o644); err != nil {
				return fmt.Errorf("chaos: write event log: %w", err)
			}
		}

		snap := s.Snapshot()
		fmt.Printf("chaos: seed=%d requests=%d healthy=%d degraded=%d errors=%d stuck=%d\n",
			*seed, *requests, h.healthy, h.degraded, h.errored, h.stuck)
		fmt.Printf("chaos: faults=%d dropped_events=%d circuit_opens=%d served_degraded=%d\n",
			len(reg.Events()), reg.Dropped(), snap.CircuitOpens, snap.Degraded)
		for _, code := range sortedKeys(h.codes) {
			fmt.Printf("chaos: code %-18s %d\n", code, h.codes[code])
		}
		var metrics bytes.Buffer
		s.Metrics().WritePrometheus(&metrics)
		for _, line := range strings.Split(metrics.String(), "\n") {
			if strings.Contains(line, "degraded") || strings.Contains(line, "circuit") {
				fmt.Println("chaos: metric", line)
			}
		}

		if len(h.violations) > 0 {
			for _, v := range h.violations {
				fmt.Fprintln(os.Stderr, "chaos: VIOLATION:", v)
			}
			return fmt.Errorf("chaos: %d invariant violation(s)", len(h.violations))
		}
		fmt.Println("chaos: all invariants held")
		return nil
	}
}

// newChaosServer builds the server the drill replays against.
func newChaosServer(reqTimeout time.Duration, threshold, probeEvery int) *serve.Server {
	return serve.New(serve.Options{
		BatchWindow:       -1, // flush immediately: one flush per request, deterministic
		MaxBatch:          8,
		CacheSize:         256,
		RequestTimeout:    reqTimeout,
		CircuitThreshold:  threshold,
		CircuitProbeEvery: probeEvery,
		// Probing is count-based (probe-every); park the cooldown far away so
		// wall-clock time never influences breaker transitions.
		CircuitCooldown: time.Hour,
	})
}

// chaosSchedule derives the per-point fault schedule from the seed alone, so
// the whole storm — which points fail, how often — is reproducible from one
// integer. The draws key on synthetic "chaos/" point names to stay
// independent of the registry's own hit counters.
func chaosSchedule(seed uint64, reqTimeout time.Duration) []fault.Schedule {
	prob := func(point string, lo, hi float64) float64 {
		return lo + float64((hi-lo)*fault.Uniform(seed, "chaos/"+point, 0)) // never fused (arm64 would)
	}
	return []fault.Schedule{
		// The forward path fails often enough to trip the breaker.
		{Point: fault.GNNForward, Mode: fault.ModeError, Prob: prob(fault.GNNForward, 0.35, 0.65)},
		// Occasional cache slot failures exercise the acquire retry loop.
		{Point: fault.CacheAcquire, Mode: fault.ModeError, Prob: prob(fault.CacheAcquire, 0.05, 0.15)},
		// Reloads fight both artifact decode and registry swap failures.
		{Point: fault.ArtifactRead, Mode: fault.ModeError, Prob: prob(fault.ArtifactRead, 0.15, 0.35)},
		{Point: fault.RegistrySwap, Mode: fault.ModeError, Prob: prob(fault.RegistrySwap, 0.15, 0.35)},
		// A few slow flushes (under the request deadline, so the sleep's real
		// duration never decides an outcome and determinism survives).
		{Point: fault.BatcherFlush, Mode: fault.ModeDelay, Prob: prob(fault.BatcherFlush, 0.05, 0.15),
			Delay: reqTimeout / 3, Limit: 3},
	}
}

// stuckAfter is the watchdog margin: a request that has not answered this
// long past its deadline counts as stuck — the invariant the request-timeout
// machinery exists to prevent.
const stuckAfter = 5 * time.Second

type chaosHarness struct {
	srv      *serve.Server
	c        *client.Client
	deadline time.Duration

	healthy           int
	healthyAfterClear int
	degraded          int
	errored           int
	stuck             int
	lastGen           uint64
	codes             map[string]int
	violations        []string
}

func (h *chaosHarness) violate(format string, args ...any) {
	h.violations = append(h.violations, fmt.Sprintf(format, args...))
}

// do drives one request through the shared in-process client under a
// stuck-request watchdog: the handler transport abandons a call whose
// context expires (the handler goroutine may still be writing to its
// private recorder, which is never read afterwards).
func (h *chaosHarness) do(path string, body any) (int, []byte, bool) {
	var data []byte
	if body != nil {
		var err error
		data, err = json.Marshal(body)
		if err != nil {
			h.violate("%s: marshal request: %v", path, err)
			return 0, nil, false
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), h.deadline+stuckAfter)
	defer cancel()
	status, payload, err := h.c.Call(ctx, path, data)
	if err != nil {
		// The in-process transport only errors when the watchdog context
		// expired before the handler answered.
		h.stuck++
		h.violate("stuck request: %s gave no answer %s past its %s deadline",
			path, stuckAfter, h.deadline)
		return 0, nil, false
	}
	return status, payload, true
}

// checkEnvelope asserts a non-200 response carries the stable error envelope
// with a code the server has mapped — the "no 500s without a mapped error
// code" invariant.
func (h *chaosHarness) checkEnvelope(what string, status int, payload []byte) {
	h.errored++
	switch status {
	case 400, 404, 422, 429, 499, 500, 503:
	default:
		h.violate("%s: unexpected status %d (%s)", what, status, payload)
		return
	}
	var body struct {
		Error serve.ErrorBody `json:"error"`
	}
	if err := json.Unmarshal(payload, &body); err != nil || body.Error.Code == "" {
		h.violate("%s: status %d without the error envelope: %s", what, status, payload)
		return
	}
	for _, known := range serve.KnownErrorCodes() {
		if body.Error.Code == known {
			if h.codes == nil {
				h.codes = map[string]int{}
			}
			h.codes[body.Error.Code]++
			return
		}
	}
	h.violate("%s: status %d with unmapped error code %q", what, status, body.Error.Code)
}

func (h *chaosHarness) predict(i int, afterClear bool) {
	// Degrees and rates cycle so the run mixes fresh plans with cache hits.
	degree := 1 + i%4
	rate := []float64{10_000, 40_000, 90_000}[i%3]
	plan := queryplan.NewPQP(queryplan.SpikeDetection(rate))
	if degree > 1 {
		for _, o := range plan.Query.Ops {
			plan.SetDegree(o.ID, degree)
		}
	}
	req := serve.PredictRequest{Plan: plan, Cluster: serve.ClusterSpec{Workers: 4, LinkGbps: 10}}
	status, payload, ok := h.do("/v1/predict", &req)
	if !ok {
		return
	}
	if status != 200 {
		h.checkEnvelope(fmt.Sprintf("predict %d", i), status, payload)
		return
	}
	var resp serve.PredictResponse
	if err := json.Unmarshal(payload, &resp); err != nil {
		h.violate("predict %d: bad 200 payload: %v (%s)", i, err, payload)
		return
	}
	for name, v := range map[string]float64{"latency_ms": resp.LatencyMs, "throughput_eps": resp.ThroughputEPS} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			h.violate("predict %d: %s = %v, want finite non-negative", i, name, v)
		}
	}
	if resp.Degraded {
		h.degraded++
		return
	}
	h.healthy++
	if afterClear {
		h.healthyAfterClear++
	}
}

func (h *chaosHarness) reload(path string) {
	status, payload, ok := h.do("/v1/reload", serve.ReloadRequest{Path: path})
	if !ok || status == 200 {
		return
	}
	// Under artifact.read / registry.swap faults a reload may fail — but
	// only with the stable envelope, and without displacing the old model
	// (health() checks the generation next).
	h.checkEnvelope("reload", status, payload)
}

func (h *chaosHarness) health() {
	status, payload, ok := h.do("/healthz", nil)
	if !ok {
		return
	}
	if status != 200 {
		h.violate("healthz: status %d (%s)", status, payload)
		return
	}
	var resp serve.HealthResponse
	if err := json.Unmarshal(payload, &resp); err != nil {
		h.violate("healthz: bad payload: %v (%s)", err, payload)
		return
	}
	if resp.Model.Gen < h.lastGen {
		h.violate("model generation moved backwards: %d -> %d", h.lastGen, resp.Model.Gen)
	}
	h.lastGen = resp.Model.Gen
}

// sortedKeys returns m's keys in order for stable output.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
