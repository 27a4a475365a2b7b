// Tests of the batching rule from the handler's side: a batch is held only
// while another request is demonstrably on its way, every request that
// announces itself takes the announcement back, and concurrent load still
// coalesces. Requests are parked at fault injection points where a test needs
// two of them in flight at once, never by a sleep.
package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"testing"
	"time"

	"zerotune/internal/fault"
	"zerotune/internal/obs"
	"zerotune/internal/serve"
)

// predictBody marshals a valid request for a plan of the given degree and
// rate.
func predictBody(t *testing.T, degree int, rate float64) []byte {
	t.Helper()
	body, err := json.Marshal(serve.PredictRequest{
		Plan: testPlan(degree, rate), Cluster: serve.ClusterSpec{Workers: 4, LinkGbps: 10}})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// marshal is json.Marshal for inputs that cannot fail.
func marshal(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// call runs one /v1/predict through the handler in process.
func call(ctx context.Context, s *serve.Server, body []byte) int {
	status, _, _ := serve.NewInProcessBackend("test", s).Call(ctx, "/v1/predict", body)
	return status
}

// arrivingGauge reads zerotune_predict_arriving off the server's /metrics.
func arrivingGauge(t *testing.T, s *serve.Server) float64 {
	t.Helper()
	v, ok := obs.FindSample(metricsPage(t, s), "zerotune_predict_arriving")
	if !ok {
		t.Fatal("/metrics has no zerotune_predict_arriving")
	}
	return v
}

// TestServeLoneMissDoesNotWaitAtDefaults: a tuner's what-if calls arrive one
// at a time, and at the options users run none of them may sit out the batch
// window waiting for companions that are not coming. The yardstick is the same
// requests against a server with no window at all, so the bound means the
// same thing under the race detector, where a request costs several times
// more.
func TestServeLoneMissDoesNotWaitAtDefaults(t *testing.T) {
	const n = 32
	median := func(s *serve.Server) time.Duration {
		took := make([]time.Duration, n)
		for i := range took {
			body := predictBody(t, i%8+1, float64(10_000*(i/8+1))) // every one a miss of both caches
			start := time.Now()
			if status := call(context.Background(), s, body); status != http.StatusOK {
				t.Fatalf("request %d: status %d", i, status)
			}
			took[i] = time.Since(start)
		}
		sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
		return took[n/2]
	}
	windowless, _ := newTestServer(t, serve.Options{BatchWindow: -1})
	floor := median(windowless)
	s, _ := newTestServer(t, serve.Options{})
	if got := median(s); got-floor >= serve.DefaultBatchWindow/4 {
		t.Fatalf("median lone cold request took %v at default options against %v with no window: it waits", got, floor)
	}
	snap := s.Snapshot()
	if snap.Inferences != n || snap.Flushes != (serve.FlushCounts{Idle: n}) {
		t.Fatalf("%d lone misses flushed as %+v over %d inferences, want every one idle", n, snap.Flushes, snap.Inferences)
	}
}

// TestServeMissReleasedWhenAnnouncedRequestLeaves: a miss whose batch is being
// held for a second request must be released the moment that request leaves
// without enqueueing — promptly, not when the (here ten-second) window ends.
func TestServeMissReleasedWhenAnnouncedRequestLeaves(t *testing.T) {
	const prompt = 5 * time.Second
	miss := predictBody(t, 2, 30_000)

	// finish waits for the parked miss and checks how its batch left.
	finish := func(t *testing.T, s *serve.Server, done <-chan int, start time.Time) {
		t.Helper()
		select {
		case status := <-done:
			if status != http.StatusOK {
				t.Fatalf("miss: status %d", status)
			}
		case <-time.After(prompt):
			t.Fatal("miss still waiting: its batch is held for a request that already left")
		}
		if took := time.Since(start); took >= prompt {
			t.Fatalf("miss released after %v", took)
		}
		snap := s.Snapshot()
		if snap.Flushes != (serve.FlushCounts{Idle: 1}) || snap.Arriving != 0 {
			t.Fatalf("flushes %+v with %d arriving, want one idle flush and nobody on the way", snap.Flushes, snap.Arriving)
		}
	}

	t.Run("invalid plan", func(t *testing.T) {
		s, _ := newTestServer(t, serve.Options{BatchWindow: 10 * time.Second})
		gate := parkAt(t, fault.CacheAcquire)
		done := make(chan int, 1)
		go func() { done <- call(context.Background(), s, miss) }()
		release := <-gate.entered // the miss is announced and parked short of the queue
		bad := marshal(t, map[string]any{
			"plan":    respell(t, testPlan(1, 10_000), func(p map[string]any) { delete(p, "query") }),
			"cluster": serve.ClusterSpec{Workers: 4},
		})
		if status := call(context.Background(), s, bad); status != http.StatusBadRequest {
			t.Fatalf("invalid plan: status %d, want 400", status)
		}
		start := time.Now()
		close(release)
		finish(t, s, done, start)
	})

	t.Run("respelled plan-cache hit", func(t *testing.T) {
		s, _ := newTestServer(t, serve.Options{BatchWindow: 10 * time.Second})
		gate := parkAt(t, fault.CacheAcquire)
		done := make(chan int, 2)
		go func() { done <- call(context.Background(), s, miss) }()
		releaseMiss := <-gate.entered
		// The same plan in other bytes misses the body cache, announces itself
		// and parks too: two requests are on their way.
		twin := append([]byte(" "), miss...)
		twinDone := make(chan int, 1)
		go func() { twinDone <- call(context.Background(), s, twin) }()
		releaseTwin := <-gate.entered
		close(releaseMiss)
		// The miss is queued and its batch held for the twin.
		waitSnapshot(t, s, "the miss to enqueue", func(snap serve.Snapshot) bool {
			return snap.Cache.Misses == 1 && snap.Arriving == 1
		})
		if snap := s.Snapshot(); snap.Batches != 0 {
			t.Fatalf("batch flushed with a request still on its way: %+v", snap.Flushes)
		}
		start := time.Now()
		close(releaseTwin) // the twin joins the plan cache as a follower: the wake path
		finish(t, s, done, start)
		if status := <-twinDone; status != http.StatusOK {
			t.Fatalf("twin: status %d", status)
		}
		if snap := s.Snapshot(); snap.Cache.Coalesced != 1 || snap.Inferences != 1 {
			t.Fatalf("twin was not a follower of the miss: %+v, %d inferences", snap.Cache, snap.Inferences)
		}
	})
}

// TestServeConcurrentDistinctPlansCoalesce: without a window to idle in,
// batches still form from requests that are in flight together. All 64 are
// parked past their announcement first, so they are in flight together on any
// machine — on one busy core, goroutines released at once would otherwise run
// one after the other, each a lone request.
func TestServeConcurrentDistinctPlansCoalesce(t *testing.T) {
	s, _ := newTestServer(t, serve.Options{})
	gate := parkAt(t, fault.CacheAcquire)
	const n = 64
	var wg sync.WaitGroup
	releases := make([]chan struct{}, n)
	for i := range releases {
		body := predictBody(t, i%8+1, float64(10_000*(i/8+1)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			if status := call(context.Background(), s, body); status != http.StatusOK {
				t.Errorf("request %d: status %d", i, status)
			}
		}()
		releases[i] = <-gate.entered
	}
	if snap := s.Snapshot(); snap.Arriving != n {
		t.Fatalf("%d requests parked short of the queue, %d announced", n, snap.Arriving)
	}
	for _, release := range releases {
		close(release)
	}
	wg.Wait()
	snap := s.Snapshot()
	if snap.Inferences != n || snap.Batches >= snap.Inferences || snap.MaxBatch < 2 {
		t.Fatalf("%d concurrent plans ran as %d batches over %d inferences (max batch %v, %+v)",
			n, snap.Batches, snap.Inferences, snap.MaxBatch, snap.Flushes)
	}
	if snap.Arriving != 0 {
		t.Fatalf("%d arrivals still open after every request returned", snap.Arriving)
	}
}

// The stages a predict request is timed through, by how it ends: a miss of
// both caches runs the whole pipeline; everything else stops short of it
// somewhere and closes with the respond stage.
var (
	stagesToDecode  = []serve.Stage{serve.StageFront, serve.StageDecode}
	stagesToAnalyse = stageSet(stagesToDecode, serve.StageAnalyse)
	stagesToAcquire = stageSet(stagesToAnalyse, serve.StageEncode, serve.StageFingerprint)
	stagesToCache   = stageSet(stagesToAcquire, serve.StagePlanCache)

	stagesBodyHit  = []serve.Stage{serve.StageBodyHit}
	stagesMiss     = stageSet(stagesToCache, serve.StageQueueWait, serve.StageForward, serve.StageWake, serve.StageRespond)
	stagesFollower = stageSet(stagesToCache, serve.StageCoalesceWait, serve.StageRespond)
	stagesPlanHit  = ended(stagesToCache)
)

func stageSet(base []serve.Stage, more ...serve.Stage) []serve.Stage {
	return append(append([]serve.Stage(nil), base...), more...)
}

// ended is the stage set of a request that got through reached and then
// answered: with an error, a degraded prediction or a plan-cache hit.
func ended(reached []serve.Stage) []serve.Stage { return stageSet(reached, serve.StageRespond) }

// earlyExits drives every way a predict request can announce itself to the
// batcher and then not enqueue. settled runs whenever the server has answered
// everything sent so far, with the stage set of each request answered since
// the last call; midway runs where one request has returned and others are
// still parked.
func earlyExits(t *testing.T, midway func(*testing.T, *serve.Server), settled func(*testing.T, *serve.Server, ...[]serve.Stage)) {
	ctx := context.Background()
	valid := predictBody(t, 1, 10_000)
	wantStatus := func(t *testing.T, what string, got, want int) {
		t.Helper()
		if got != want {
			t.Fatalf("%s: status %d, want %d", what, got, want)
		}
	}

	t.Run("bad requests", func(t *testing.T) {
		s, _ := newTestServer(t, serve.Options{})
		spec := serve.ClusterSpec{Workers: 4}
		ghosts := map[string]any{}
		for _, o := range testPlan(1, 10_000).Query.Ops {
			ghosts[fmt.Sprint(o.ID)] = []string{"no-such-node"}
		}
		for name, tc := range map[string]struct {
			body    []byte
			reached []serve.Stage
		}{
			"bad JSON": {[]byte(`{"plan":`), stagesToDecode[:1]},
			"nil plan": {[]byte(`{}`), stagesToDecode},
			"invalid plan": {marshal(t, map[string]any{"cluster": spec,
				"plan": respell(t, testPlan(1, 10_000), func(p map[string]any) { delete(p, "query") })}), stagesToDecode},
			"oversized plan": {marshal(t, map[string]any{"cluster": spec,
				"plan": respell(t, testPlan(1, 10_000), func(p map[string]any) {
					p["parallelism"].(map[string]any)["1"] = serve.MaxPlanInstances + 1
				})}), stagesToDecode},
			"bad cluster": {marshal(t, serve.PredictRequest{Plan: testPlan(1, 10_000),
				Cluster: serve.ClusterSpec{Workers: serve.MaxClusterNodes + 1}}), stagesToDecode},
			"encode error": {marshal(t, map[string]any{"cluster": spec,
				"plan": respell(t, testPlan(1, 10_000), func(p map[string]any) { p["placement"] = ghosts })}), stagesToAnalyse},
		} {
			wantStatus(t, name, call(ctx, s, tc.body), http.StatusBadRequest)
			settled(t, s, ended(tc.reached))
		}
	})

	t.Run("no model", func(t *testing.T) {
		s := serve.New(serve.Options{})
		t.Cleanup(s.Close)
		wantStatus(t, "no model", call(ctx, s, valid), http.StatusServiceUnavailable)
		settled(t, s, ended(stagesToDecode))
	})

	t.Run("breaker open", func(t *testing.T) {
		s, _ := newTestServer(t, serve.Options{CircuitThreshold: 1})
		reg := fault.New(1)
		reg.Install(fault.Schedule{Point: fault.GNNForward, Mode: fault.ModeError, Every: 1})
		fault.Activate(reg)
		t.Cleanup(fault.Deactivate)
		wantStatus(t, "tripping request", call(ctx, s, valid), http.StatusOK) // enqueued, failed, degraded
		settled(t, s, ended(stagesToCache))
		if s.Circuit() == serve.CircuitClosed {
			t.Fatal("circuit still closed after the injected forward fault")
		}
		wantStatus(t, "request at the open circuit", call(ctx, s, predictBody(t, 2, 20_000)), http.StatusOK)
		if snap := s.Snapshot(); snap.Degraded != 2 {
			t.Fatalf("%d degraded answers, want 2", snap.Degraded)
		}
		settled(t, s, ended(stagesToDecode))
	})

	t.Run("cache.acquire fault", func(t *testing.T) {
		s, _ := newTestServer(t, serve.Options{})
		reg := fault.New(1)
		reg.Install(fault.Schedule{Point: fault.CacheAcquire, Mode: fault.ModeError, Every: 1})
		fault.Activate(reg)
		t.Cleanup(fault.Deactivate)
		wantStatus(t, "acquire fault", call(ctx, s, valid), http.StatusServiceUnavailable)
		settled(t, s, ended(stagesToAcquire))
	})

	t.Run("cancelled context", func(t *testing.T) {
		s, _ := newTestServer(t, serve.Options{})
		gone, cancel := context.WithCancel(ctx)
		cancel()
		wantStatus(t, "cancelled request", call(gone, s, valid), serve.StatusClientClosedRequest)
		settled(t, s, ended(stagesToCache))
	})

	t.Run("queue full and follower", func(t *testing.T) {
		// One slot in flight and a full queue behind it: the flush loop is
		// parked in the first request's forward pass, the next queued fill the
		// queue of a one-plan batch (DefaultQueueFactor×MaxBatch), the one
		// after them is refused, and a twin of the first follows it through
		// the plan cache.
		s, _ := newTestServer(t, serve.Options{MaxBatch: 1})
		gate := parkAt(t, fault.GNNForward)
		const queued = serve.DefaultQueueFactor
		statuses := make(chan int, queued+2)
		go func() { statuses <- call(ctx, s, valid) }()
		release := <-gate.entered
		for i := 0; i < queued; i++ {
			body := predictBody(t, 2+i, 20_000)
			go func() { statuses <- call(ctx, s, body) }()
		}
		waitSnapshot(t, s, "the queue to fill", func(snap serve.Snapshot) bool {
			return snap.Cache.Misses == 1+queued && snap.Arriving == 0
		})
		wantStatus(t, "request past the queue", call(ctx, s, predictBody(t, 2, 30_000)), http.StatusTooManyRequests)
		midway(t, s)
		go func() { statuses <- call(ctx, s, append([]byte(" "), valid...)) }()
		waitSnapshot(t, s, "the twin to follow", func(snap serve.Snapshot) bool {
			return snap.Cache.Coalesced == 1 && snap.Arriving == 0
		})
		close(release)
		for i := 0; i < queued; i++ {
			close(<-gate.entered) // each queued request's own forward pass
		}
		for i := 0; i < queued+2; i++ {
			wantStatus(t, "parked request", <-statuses, http.StatusOK)
		}
		misses := make([][]serve.Stage, 1+queued)
		for i := range misses {
			misses[i] = stagesMiss
		}
		settled(t, s, append(misses, ended(stagesToCache), stagesFollower)...)
	})

	t.Run("stale-entry retry", func(t *testing.T) {
		// The leader is parked at the flush and then fails its forward pass;
		// its follower sees a stale entry, backs off, and leads a fresh
		// inference that it enqueues unannounced.
		s, _ := newTestServer(t, serve.Options{})
		gate := newGateClock()
		reg := fault.New(1)
		reg.SetClock(gate)
		reg.Install(fault.Schedule{Point: fault.BatcherFlush, Mode: fault.ModeDelay, Every: 1, Limit: 1})
		reg.Install(fault.Schedule{Point: fault.GNNForward, Mode: fault.ModeError, Every: 1, Limit: 1})
		fault.Activate(reg)
		t.Cleanup(fault.Deactivate)
		leader, follower := make(chan int, 1), make(chan int, 1)
		go func() { leader <- call(ctx, s, valid) }()
		release := <-gate.entered
		go func() { follower <- call(ctx, s, append([]byte(" "), valid...)) }()
		waitSnapshot(t, s, "the follower to attach", func(snap serve.Snapshot) bool {
			return snap.Cache.Coalesced == 1 && snap.Arriving == 0
		})
		close(release)
		wantStatus(t, "failed leader (degraded)", <-leader, http.StatusOK)
		wantStatus(t, "follower after its retry", <-follower, http.StatusOK)
		if snap := s.Snapshot(); snap.Degraded != 1 || snap.Cache.Misses != 2 {
			t.Fatalf("%d degraded, cache %+v; want the leader degraded and the follower leading a second inference", snap.Degraded, snap.Cache)
		}
		// The follower acquires twice and is timed through the plan cache once.
		settled(t, s, ended(stagesToCache), stagesMiss)
	})
}

// TestServeArrivalsNeverLeak reads the arriving gauge back as exactly zero
// after every request of earlyExits: one leaked announcement would make every
// later batch on the replica wait out its window.
func TestServeArrivalsNeverLeak(t *testing.T) {
	check := func(t *testing.T, s *serve.Server) {
		t.Helper()
		if got := arrivingGauge(t, s); got != 0 {
			t.Fatalf("zerotune_predict_arriving = %v after the request returned, want 0", got)
		}
	}
	earlyExits(t, check, func(t *testing.T, s *serve.Server, _ ...[]serve.Stage) {
		t.Helper()
		check(t, s)
	})
}
