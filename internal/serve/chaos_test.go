// The chaos drill: a seed-deterministic fault storm replayed against an
// in-process server while the serving invariants are held under fire.
package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"zerotune/internal/client"
	"zerotune/internal/fault"
	"zerotune/internal/serve"
)

const (
	// chaosRequests predicts are replayed per run; the storm blows for the
	// first half and clears for the second.
	chaosRequests = 120
	// chaosTimeout is every predict's deadline.
	chaosTimeout = 300 * time.Millisecond
	// chaosTick is how far the breaker's clock moves per predict, so its
	// cooldown is a count of requests and never a wall-clock duration.
	chaosTick = time.Second
	// stuckAfter is the watchdog margin: a request that has not answered
	// this long past its deadline is stuck — what the request-timeout
	// machinery exists to prevent.
	stuckAfter = 5 * time.Second
)

// TestChaosDrill replays three seeded fault storms twice each. Every run
// holds the invariants:
//
//   - every non-200 carries the stable error envelope with a code from
//     serve.KnownErrorCodes — no bare 500s, no unmapped failures;
//   - no request outlives its deadline by more than stuckAfter;
//   - the model generation /healthz reports never moves backwards, failed
//     reloads included;
//   - during the storm the circuit opens and degraded answers are served;
//     once it clears the circuit closes and learned answers return.
//
// The fault event log is a function of the seed: both runs of a seed dump
// byte-identical logs. Wall-clock time is kept out of every decision:
// requests run one at a time, batches flush at once, the breaker reads a
// clock that moves one chaosTick per predict, and the slow flushes sleep on
// a drillClock, which stalls for real once and counts the rest.
func TestChaosDrill(t *testing.T) {
	zt, _ := models(t)
	model := saveModel(t, zt, "chaos.json")
	clock := &drillClock{}
	for _, seed := range []uint64{7, 42, 1337} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			first, second := chaosDrill(t, model, seed, clock), chaosDrill(t, model, seed, clock)
			if first == "" || first != second {
				t.Errorf("event logs of two runs differ or are empty:\n--- first\n%s--- second\n%s", first, second)
			}
		})
	}
	if clock.stalled.Load() == 0 {
		t.Error("no slow flush fired: the in-deadline stall never ran")
	}
}

// drillClock is the fault registry's clock in the drill. The first delay it
// is asked for is slept for real, so one flush stalls inside its request's
// deadline; every later one returns at once and is only counted. A slow
// flush is shorter than the deadline, so it decides no outcome and the event
// log is the same either way; only the test's wall time differs.
type drillClock struct {
	stalled atomic.Int64 // delays asked for, the real one included
}

func (c *drillClock) Sleep(d time.Duration) {
	if c.stalled.Add(1) == 1 {
		time.Sleep(d)
	}
}

// chaosDrill runs one storm against a fresh server serving the model file at
// model, with clock as the fault registry's, and returns the fault event
// log.
func chaosDrill(t *testing.T, model string, seed uint64, clock fault.Clock) string {
	t.Helper()
	s := serve.New(serve.Options{
		BatchWindow:      -1, // flush at once: one flush per request
		MaxBatch:         8,
		CacheSize:        256,
		RequestTimeout:   chaosTimeout,
		CircuitThreshold: 3,
		CircuitCooldown:  4 * chaosTick, // an open circuit probes on its fourth predict
	})
	defer s.Close()
	var ticks atomic.Int64
	serve.SetBreakerClock(s, func() time.Time { return time.Unix(0, 0).Add(time.Duration(ticks.Load()) * chaosTick) })
	// Load before the faults: the drill targets the serving path, not its setup.
	if _, err := s.ServeModelFile(model); err != nil {
		t.Fatal(err)
	}

	reg := fault.New(seed)
	reg.SetClock(clock)
	for _, sched := range chaosSchedule(seed) {
		reg.Install(sched)
	}
	fault.Activate(reg)
	defer fault.Deactivate()

	d := &drill{t: t, c: client.NewForHandler(s)}
	clearAt := chaosRequests / 2
	for i := 0; i < chaosRequests; i++ {
		if i == clearAt {
			if opens := s.Snapshot().CircuitOpens; opens == 0 || d.degraded == 0 {
				t.Errorf("seed %d storm: circuit opened %d times, %d degraded answers; want both",
					seed, opens, d.degraded)
			}
			reg.ClearAll()
		}
		ticks.Add(1)
		d.predict(i, i >= clearAt)
		if i%10 == 9 {
			d.reload(model)
			d.health()
		}
	}
	// With the schedule cleared for the whole second half, the breaker must
	// have closed and the learned path answered again.
	if st := s.Circuit(); st != serve.CircuitClosed {
		t.Errorf("seed %d: circuit %s after %d fault-free requests, want closed", seed, st, chaosRequests-clearAt)
	}
	if d.healthyAfterClear == 0 {
		t.Errorf("seed %d: no learned (non-degraded) answer after the faults cleared", seed)
	}
	return reg.DumpEvents()
}

// chaosSchedule derives the per-point fault schedule from the seed alone, so
// the whole storm — which points fail, how often — is reproducible from one
// integer. The draws key on synthetic "chaos/" point names to stay
// independent of the registry's own hit counters.
func chaosSchedule(seed uint64) []fault.Schedule {
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
		// A few slow flushes, under the request deadline, so the sleep's real
		// duration never decides an outcome (drillClock sleeps one of them).
		{Point: fault.BatcherFlush, Mode: fault.ModeDelay, Prob: prob(fault.BatcherFlush, 0.05, 0.15),
			Delay: chaosTimeout / 3, Limit: 3},
	}
}

// drill drives one run's requests and counts its answers.
type drill struct {
	t *testing.T
	c *client.Client

	degraded          int // degraded 200s during the storm
	healthyAfterClear int
	lastGen           uint64
}

// do sends one request under the stuck-request watchdog: the in-process
// client abandons a call whose context expires.
func (d *drill) do(path string, body any) (int, []byte, bool) {
	var data []byte
	if body != nil {
		data = marshal(d.t, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), chaosTimeout+stuckAfter)
	defer cancel()
	status, payload, err := d.c.Call(ctx, path, data)
	if err != nil {
		d.t.Errorf("stuck request: %s gave no answer %s past its %s deadline", path, stuckAfter, chaosTimeout)
		return 0, nil, false
	}
	return status, payload, true
}

// checkEnvelope holds a non-200 answer to the stable envelope with a mapped
// code.
func (d *drill) checkEnvelope(what string, status int, payload []byte) {
	var body struct {
		Error serve.ErrorBody `json:"error"`
	}
	if err := json.Unmarshal(payload, &body); err != nil || !slices.Contains(serve.KnownErrorCodes(), body.Error.Code) {
		d.t.Errorf("%s: status %d without the envelope of a known code: %s", what, status, payload)
	}
}

func (d *drill) predict(i int, afterClear bool) {
	// Degrees and rates cycle so the run mixes fresh plans with cache hits.
	req := serve.PredictRequest{Plan: testPlan(1+i%4, []float64{10_000, 40_000, 90_000}[i%3]),
		Cluster: serve.ClusterSpec{Workers: 4, LinkGbps: 10}}
	status, payload, ok := d.do("/v1/predict", &req)
	if !ok {
		return
	}
	if status != 200 {
		d.checkEnvelope(fmt.Sprintf("predict %d", i), status, payload)
		return
	}
	var resp serve.PredictResponse
	if err := json.Unmarshal(payload, &resp); err != nil {
		d.t.Errorf("predict %d: bad 200 payload: %v (%s)", i, err, payload)
		return
	}
	for name, v := range map[string]float64{"latency_ms": resp.LatencyMs, "throughput_eps": resp.ThroughputEPS} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			d.t.Errorf("predict %d: %s = %v, want finite non-negative", i, name, v)
		}
	}
	switch {
	case resp.Degraded && !afterClear:
		d.degraded++
	case !resp.Degraded && afterClear:
		d.healthyAfterClear++
	}
}

// reload may fail under artifact.read and registry.swap faults, but only
// with the stable envelope and without displacing the old model (health
// checks the generation next).
func (d *drill) reload(model string) {
	if status, payload, ok := d.do("/v1/reload", serve.ReloadRequest{Path: model}); ok && status != 200 {
		d.checkEnvelope("reload", status, payload)
	}
}

func (d *drill) health() {
	status, payload, ok := d.do("/healthz", nil)
	if !ok {
		return
	}
	var resp serve.HealthResponse
	if err := json.Unmarshal(payload, &resp); status != 200 || err != nil {
		d.t.Errorf("healthz: status %d, %v (%s)", status, err, payload)
		return
	}
	if resp.Model.Gen < d.lastGen {
		d.t.Errorf("model generation moved backwards: %d -> %d", d.lastGen, resp.Model.Gen)
	}
	d.lastGen = resp.Model.Gen
}
