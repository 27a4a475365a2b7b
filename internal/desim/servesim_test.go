package desim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"zerotune/internal/gateway"
	"zerotune/internal/gnn"
	"zerotune/internal/loadgen"
	"zerotune/internal/serve"
)

// mdService is the analytically-tractable cost table used by the queueing
// tests: no gateway or encode overhead, a deterministic 100µs service time
// (base 90µs + 10µs per item at batch size 1).
func mdService() ServiceModel {
	return ServiceModel{
		GatewayNs:        0,
		EncodeNs:         0,
		ForwardBaseNs:    90_000,
		ForwardPerItemNs: 10_000,
		CacheHitNs:       1_000,
		FallbackNs:       1_000,
	}
}

// md1Config is a single replica with batching, caching and admission all
// out of the picture: a pure single-server queue with deterministic
// service, i.e. M/D/1 under Poisson arrivals.
func md1Config() ServeConfig {
	return ServeConfig{
		Replicas:     1,
		BatchWindow:  -1, // flush immediately
		MaxBatch:     1,
		QueueDepth:   1 << 20,
		CacheEntries: -1,
		Route:        gateway.RouteRoundRobin,
		Service:      mdService(),
	}
}

// twice runs body as two subtests in one process: state one run leaves
// behind — a package-level cache, a shared random source — breaks the
// determinism or counterfactual property the other asserts.
func twice(t *testing.T, body func(t *testing.T)) {
	for _, run := range []string{"first", "second"} {
		t.Run(run, body)
	}
}

func mustSchedule(t *testing.T, spec loadgen.Spec) []loadgen.Request {
	t.Helper()
	sched, err := spec.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

// TestServeSimMD1 pins the simulator's queueing behaviour to theory: for
// Poisson arrivals into a deterministic single server at utilisation ρ, the
// mean queue wait follows Pollaczek–Khinchine, Wq = ρ·s / (2(1−ρ)). The
// simulator knows nothing about that formula — it just moves events — so
// landing within 2% over ~140k arrivals is strong evidence the queue
// mechanics (FIFO, busy-server pipelining, virtual clock) are right.
func TestServeSimMD1(t *testing.T) {
	const (
		serviceNs = 100_000.0 // 90µs base + 10µs per item
		rho       = 0.7
	)
	rate := rho * 1e9 / serviceNs // 7000 req/s
	spec := loadgen.Spec{
		Seed:     11,
		Arrival:  loadgen.ArrivalPoisson,
		Rate:     rate,
		Duration: 20 * time.Second,
		Bodies:   [][]byte{[]byte("m")},
	}
	run, err := SimulateServe(mustSchedule(t, spec), md1Config())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	var n int
	for _, o := range run.Outcomes {
		if o.Status != 200 || o.BatchSize != 1 {
			t.Fatalf("req %d: status=%d batch=%d, want a clean batched 200", o.Seq, o.Status, o.BatchSize)
		}
		sum += float64(o.QueueWaitNs)
		n++
	}
	if n < 100_000 {
		t.Fatalf("only %d arrivals simulated; the estimate needs more", n)
	}
	got := sum / float64(n)
	want := rho * serviceNs / (2 * (1 - rho)) // 116,666 ns
	if rel := math.Abs(got-want) / want; rel > 0.02 {
		t.Fatalf("mean queue wait %.0fns vs Pollaczek–Khinchine %.0fns: off by %.1f%% (tolerance 2%%)",
			got, want, rel*100)
	}
}

// TestServeSimPipelineExact: with deterministic, widely-spaced arrivals
// there is no queueing at all, and every request's latency must be *exactly*
// the sum of its pipeline stages — integer-nanosecond virtual time means no
// tolerance is needed.
func TestServeSimPipelineExact(t *testing.T) {
	twice(t, func(t *testing.T) {
		svc := ServiceModel{
			GatewayNs:        2_000,
			EncodeNs:         25_000,
			ForwardBaseNs:    150_000,
			ForwardPerItemNs: 6_000,
			CacheHitNs:       3_000,
			FallbackNs:       1_000,
		}
		cfg := md1Config()
		cfg.Service = svc
		spec := loadgen.Spec{
			Seed:     3,
			Arrival:  loadgen.ArrivalUniform, // metronome
			Rate:     100,                    // 10ms apart ≫ 183µs pipeline
			Duration: 2 * time.Second,
			Bodies:   [][]byte{[]byte("m")},
		}
		run, err := SimulateServe(mustSchedule(t, spec), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := svc.GatewayNs + svc.EncodeNs + svc.ForwardBaseNs + svc.ForwardPerItemNs
		if len(run.Outcomes) == 0 {
			t.Fatal("no outcomes")
		}
		for _, o := range run.Outcomes {
			if o.LatencyNs() != want || o.QueueWaitNs != 0 {
				t.Fatalf("req %d: latency %dns wait %dns, want exactly %dns / 0", o.Seq, o.LatencyNs(), o.QueueWaitNs, want)
			}
		}
	})
}

// TestServeSimPerReplicaFIFO: batched leaders on one replica must complete
// in their arrival order — the queue is FIFO and flushes are sequential, so
// any inversion means the event machinery reordered work.
func TestServeSimPerReplicaFIFO(t *testing.T) {
	twice(t, func(t *testing.T) {
		bodies := make([][]byte, 32)
		for i := range bodies {
			bodies[i] = []byte(fmt.Sprintf("body-%d", i))
		}
		spec := loadgen.Spec{
			Seed:     5,
			Arrival:  loadgen.ArrivalPoisson,
			Rate:     4000,
			Duration: 3 * time.Second,
			Bodies:   bodies,
		}
		cfg := ServeConfig{
			Replicas:     3,
			CacheEntries: -1, // leaders only: every request is batched
			QueueDepth:   1 << 20,
			Service:      mdService(),
		}
		run, err := SimulateServe(mustSchedule(t, spec), cfg)
		if err != nil {
			t.Fatal(err)
		}
		lastDone := make(map[int]int64)
		batched := 0
		for _, o := range run.Outcomes { // outcomes are in Seq (= arrival) order
			if o.Status != 200 || o.BatchSize == 0 {
				continue
			}
			batched++
			if o.DoneNs < lastDone[o.Replica] {
				t.Fatalf("req %d on replica %d done at %dns, before its predecessor at %dns",
					o.Seq, o.Replica, o.DoneNs, lastDone[o.Replica])
			}
			lastDone[o.Replica] = o.DoneNs
		}
		if batched < 1000 {
			t.Fatalf("only %d batched completions; the property needs real traffic", batched)
		}
	})
}

// TestServeSimCounterfactualSharedSchedule: two configurations simulated
// over one schedule must agree byte-for-byte on their "ev=arrive" trace
// lines — the counterfactual contract that makes cross-scenario comparisons
// attributable to configuration alone.
func TestServeSimCounterfactualSharedSchedule(t *testing.T) {
	twice(t, func(t *testing.T) {
		spec := loadgen.Spec{
			Seed:     9,
			Arrival:  loadgen.ArrivalPoisson,
			Rate:     2000,
			Duration: 2 * time.Second,
			Bodies:   [][]byte{[]byte("a"), []byte("b"), []byte("c")},
		}
		sched := mustSchedule(t, spec)
		arriveLines := func(cfg ServeConfig) []byte {
			var buf bytes.Buffer
			cfg.Trace = &buf
			if _, err := SimulateServe(sched, cfg); err != nil {
				t.Fatal(err)
			}
			var arr bytes.Buffer
			for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
				if bytes.Contains(line, []byte(" ev=arrive ")) {
					arr.Write(line)
					arr.WriteByte('\n')
				}
			}
			return arr.Bytes()
		}
		one := arriveLines(ServeConfig{Replicas: 1, Service: mdService()})
		three := arriveLines(ServeConfig{Replicas: 3, MaxBatch: 4, CacheEntries: -1,
			Route: gateway.RouteLeastLoaded, Service: mdService()})
		if len(one) == 0 {
			t.Fatal("no arrive lines traced")
		}
		if !bytes.Equal(one, three) {
			t.Fatal("arrival trace sections differ between counterfactual configs sharing one schedule")
		}
	})
}

// TestServeSimGoldenDeterminism: the contract `plan` users check with cmp —
// one (schedule, config) pair, two runs, byte-identical decision traces and
// deep-equal outcomes. Run twice, and under -race, to flush any hidden shared
// state.
func TestServeSimGoldenDeterminism(t *testing.T) {
	twice(t, func(t *testing.T) {
		spec := loadgen.Spec{
			Seed:     21,
			Arrival:  loadgen.ArrivalGamma,
			CV:       2,
			Rate:     3000,
			Duration: 2 * time.Second,
			Classes:  []loadgen.ClassShare{{Name: "gold", Weight: 1}, {Name: "bronze", Weight: 3}},
			Bodies:   [][]byte{[]byte("x"), []byte("y")},
		}
		sched := mustSchedule(t, spec)
		cfg := ServeConfig{
			Replicas:    3,
			MaxBatch:    8,
			Classes:     []gateway.ClassConfig{{Name: "gold", Rate: 2000}, {Name: "bronze", Rate: 500}},
			Service:     mdService(),
			FailureProb: 0.01,
			Seed:        21,
		}
		runOnce := func() ([]byte, *RunResult) {
			var buf bytes.Buffer
			c := cfg
			c.Trace = &buf
			run, err := SimulateServe(sched, c)
			if err != nil {
				t.Fatal(err)
			}
			return buf.Bytes(), run
		}
		t1, r1 := runOnce()
		t2, r2 := runOnce()
		if !bytes.Equal(t1, t2) {
			t.Fatal("decision traces differ across identical runs")
		}
		if !reflect.DeepEqual(r1.Outcomes, r2.Outcomes) {
			t.Fatal("outcomes differ across identical runs")
		}
		if !reflect.DeepEqual(r1.Stats, r2.Stats) {
			t.Fatal("stats differ across identical runs")
		}
		if len(t1) == 0 || r1.Stats.Requests == 0 {
			t.Fatal("empty run proves nothing")
		}
	})
}

// TestServeSimCacheLRU: cache hit counts must be monotone in cache size,
// and a cache that fits the whole corpus converges to all-hits after each
// body's first miss.
func TestServeSimCacheLRU(t *testing.T) {
	const corpus = 32
	bodies := make([][]byte, corpus)
	for i := range bodies {
		bodies[i] = []byte(fmt.Sprintf("plan-%02d", i))
	}
	spec := loadgen.Spec{
		Seed:     13,
		Arrival:  loadgen.ArrivalPoisson,
		Rate:     2000,
		Duration: 3 * time.Second,
		Bodies:   bodies,
	}
	sched := mustSchedule(t, spec)
	hitsAt := func(entries int) int {
		cfg := ServeConfig{Replicas: 1, Service: mdService(), CacheEntries: entries, QueueDepth: 1 << 20}
		run, err := SimulateServe(sched, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return run.Stats.CacheHits
	}
	small, medium, full := hitsAt(4), hitsAt(16), hitsAt(corpus)
	if !(small <= medium && medium <= full) {
		t.Fatalf("cache hits not monotone in cache size: %d (4) %d (16) %d (%d)", small, medium, full, corpus)
	}
	// A full-corpus cache misses each distinct body at most a handful of
	// times (the first request plus any concurrent leaders during warmup);
	// everything else hits or coalesces.
	cfg := ServeConfig{Replicas: 1, Service: mdService(), CacheEntries: corpus, QueueDepth: 1 << 20}
	run, err := SimulateServe(sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := run.Stats
	if st.Inferences > 2*corpus {
		t.Fatalf("full cache still ran %d inferences for %d distinct bodies", st.Inferences, corpus)
	}
	if st.CacheHits+st.Coalesced+st.Inferences != st.Requests {
		t.Fatalf("hits %d + coalesced %d + inferences %d ≠ requests %d",
			st.CacheHits, st.Coalesced, st.Inferences, st.Requests)
	}
	if full <= small {
		t.Fatalf("full-corpus cache (%d hits) should beat a 4-entry cache (%d hits)", full, small)
	}
}

// TestServeSimAdmission: a 100 rps budget against 1000 rps of offered load
// admits ≈ rate·horizon + burst requests and 429s the rest.
func TestServeSimAdmission(t *testing.T) {
	spec := loadgen.Spec{
		Seed:     17,
		Arrival:  loadgen.ArrivalPoisson,
		Rate:     1000,
		Duration: 2 * time.Second,
		Classes:  []loadgen.ClassShare{{Name: "gold", Weight: 1}},
		Bodies:   [][]byte{[]byte("m")},
	}
	cfg := ServeConfig{
		Replicas: 1,
		Service:  mdService(),
		Classes:  []gateway.ClassConfig{{Name: "gold", Rate: 100, Burst: 10}},
	}
	run, err := SimulateServe(mustSchedule(t, spec), cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := run.Stats
	admitted := st.Requests - st.AdmissionRejected
	// 2s at 100/s + 10 burst = 210, modulo bucket fractional carry.
	if admitted < 180 || admitted > 240 {
		t.Fatalf("admitted %d of %d, want ≈210 under a 100 rps / burst 10 budget", admitted, st.Requests)
	}
	for _, o := range run.Outcomes {
		if o.Status == 429 && o.Replica != -1 {
			t.Fatalf("req %d admission-rejected but routed to replica %d", o.Seq, o.Replica)
		}
	}
}

// okBackend is a replica that answers every call 200, so a live gateway in
// front of it exercises admission and nothing else.
type okBackend struct{}

func (okBackend) Name() string { return "replica-0" }
func (okBackend) Call(context.Context, string, []byte) (int, []byte, error) {
	return http.StatusOK, []byte("{}\n"), nil
}

// TestServeSimAdmissionMatchesGateway is the differential admission test:
// one seeded schedule, two rate-limited classes plus unlabelled traffic,
// driven through a live gateway whose admission clock is pinned to each
// request's schedule offset, and through the simulator. Both hold the same
// gateway.TokenBucket type, so the per-request admit/429 vectors must be
// identical — not approximately equal.
func TestServeSimAdmissionMatchesGateway(t *testing.T) {
	spec := loadgen.Spec{
		Seed:     29,
		Arrival:  loadgen.ArrivalGamma,
		CV:       2, // bursty: drains and refills both buckets repeatedly
		Rate:     1500,
		Duration: 3 * time.Second,
		Classes: []loadgen.ClassShare{{Name: "gold", Weight: 3}, {Name: "bronze", Weight: 2},
			{Name: "unconfigured", Weight: 1}},
		Bodies: [][]byte{[]byte("a"), []byte("b")},
	}
	sched := mustSchedule(t, spec)
	classes := []gateway.ClassConfig{{Name: "gold", Rate: 333.3, Burst: 7}, {Name: "bronze", Rate: 120}}

	var now time.Time
	gw, err := gateway.New([]serve.Backend{okBackend{}}, gateway.Options{
		Classes:       classes,
		Now:           func() time.Time { return now },
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	live := make([]bool, len(sched))
	for i, r := range sched {
		now = time.Unix(0, int64(r.Offset))
		req := httptest.NewRequest(http.MethodPost, r.Path, bytes.NewReader(r.Body))
		if r.Class != "" {
			req.Header.Set(serve.SLOClassHeader, r.Class)
		}
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK:
			live[i] = true
		case http.StatusTooManyRequests:
		default:
			t.Fatalf("req %d: live gateway answered %d (%s)", i, rec.Code, rec.Body)
		}
	}

	run, err := SimulateServe(sched, ServeConfig{Classes: classes, QueueDepth: 1 << 20, Service: mdService()})
	if err != nil {
		t.Fatal(err)
	}
	admitted, rejected := 0, 0
	for i, o := range run.Outcomes {
		sim := o.Replica >= 0 // admission rejects never reach routing
		if sim != live[i] {
			t.Fatalf("req %d (class %q, t=%v): live admitted=%v, sim admitted=%v",
				i, sched[i].Class, sched[i].Offset, live[i], sim)
		}
		if sim {
			admitted++
		} else {
			rejected++
		}
	}
	if run.Stats.QueueRejected != 0 {
		t.Fatalf("%d queue rejections muddy the admission vector", run.Stats.QueueRejected)
	}
	if admitted < 500 || rejected < 500 {
		t.Fatalf("admitted %d, rejected %d: the schedule must exercise both outcomes", admitted, rejected)
	}
}

// TestServeSimEvictionsMatchLiveCache: with arrivals spaced wider than the
// pipeline nothing overlaps, so the simulator's cache traffic is the plain
// sequence "front-door Lookup, else Acquire + Complete" — replayed here on a
// second serve.Cache. A corpus larger than CacheEntries forces evictions,
// and the replica's reported counts must equal that cache's counters.
func TestServeSimEvictionsMatchLiveCache(t *testing.T) {
	const corpus, entries = 32, 8
	bodies := make([][]byte, corpus)
	for i := range bodies {
		bodies[i] = []byte(fmt.Sprintf("plan-%02d", i))
	}
	spec := loadgen.Spec{
		Seed:     31,
		Arrival:  loadgen.ArrivalUniform,
		Rate:     100, // 10ms apart ≫ the ~100µs pipeline
		Duration: 5 * time.Second,
		Bodies:   bodies,
	}
	sched := mustSchedule(t, spec)
	run, err := SimulateServe(sched, ServeConfig{CacheEntries: entries, Service: mdService()})
	if err != nil {
		t.Fatal(err)
	}
	ref := serve.NewCache(entries)
	for _, r := range sched {
		key := cacheKey(serve.HashBody(r.Body))
		if ref.Lookup(key) == nil {
			e, _ := ref.Acquire(key)
			ref.Complete(e, gnn.Prediction{}, nil)
		}
	}
	want, got := ref.Stats(), run.Stats.PerReplica[0]
	if want.Evictions == 0 {
		t.Fatal("no evictions: the corpus does not overflow the cache")
	}
	if got.Evictions != int(want.Evictions) || got.CacheHits != int(want.Hits) || got.Coalesced != 0 {
		t.Fatalf("replica reports %d evictions / %d hits / %d coalesced, live cache counted %d / %d / 0",
			got.Evictions, got.CacheHits, got.Coalesced, want.Evictions, want.Hits)
	}
	if run.Stats.CacheHits != got.CacheHits || run.Stats.Inferences != int(want.Misses) {
		t.Fatalf("run totals: %d hits, %d inferences; want %d, %d",
			run.Stats.CacheHits, run.Stats.Inferences, want.Hits, want.Misses)
	}
}

// TestServeSimBreaker: with every forward pass failing, the breaker opens
// after the configured threshold and the tier degrades — all responses are
// fallback 200s, none are learned-path successes.
func TestServeSimBreaker(t *testing.T) {
	spec := loadgen.Spec{
		Seed:     23,
		Arrival:  loadgen.ArrivalPoisson,
		Rate:     2000,
		Duration: 1 * time.Second,
		Bodies:   [][]byte{[]byte("m")},
	}
	cfg := ServeConfig{
		Replicas:         1,
		CacheEntries:     -1,
		QueueDepth:       1 << 20,
		Service:          mdService(),
		FailureProb:      1,
		CircuitThreshold: 3,
		Seed:             23,
	}
	run, err := SimulateServe(mustSchedule(t, spec), cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := run.Stats
	if st.CircuitOpens == 0 {
		t.Fatal("breaker never opened under a 100% failure rate")
	}
	if st.Degraded != st.OK || st.OK == 0 {
		t.Fatalf("ok=%d degraded=%d: every 200 must be a fallback answer", st.OK, st.Degraded)
	}
	// Once open, only every-Nth probes reach the model: far fewer inferences
	// than requests.
	if st.Inferences > st.Requests/4 {
		t.Fatalf("%d inferences for %d requests: breaker is not shedding load", st.Inferences, st.Requests)
	}
}

// TestServeSimEventBudget: a starved budget aborts with the typed error and
// still returns the partial run.
func TestServeSimEventBudget(t *testing.T) {
	spec := loadgen.Spec{
		Seed:     1,
		Arrival:  loadgen.ArrivalPoisson,
		Rate:     1000,
		Duration: time.Second,
		Bodies:   [][]byte{[]byte("m")},
	}
	cfg := md1Config()
	cfg.MaxEvents = 50
	run, err := SimulateServe(mustSchedule(t, spec), cfg)
	if !errors.Is(err, ErrEventBudget) {
		t.Fatalf("err = %v, want ErrEventBudget", err)
	}
	if run == nil || run.Events == 0 {
		t.Fatal("budget abort must still return the partial run")
	}
}

// TestTimelineOrdering: the virtual clock pops events in (time, insertion)
// order and never moves backwards; scheduling into the past panics.
func TestTimelineOrdering(t *testing.T) {
	twice(t, func(t *testing.T) {
		var tl Timeline
		times := []float64{5, 1, 3, 1, 4, 2, 5, 0}
		for i, at := range times {
			tl.Schedule(at, i)
		}
		var prevAt float64
		var order []int
		for tl.Len() > 0 {
			at, payload, ok := tl.Pop()
			if !ok {
				t.Fatal("Pop reported empty with events queued")
			}
			if at < prevAt {
				t.Fatalf("clock moved backwards: %g after %g", at, prevAt)
			}
			if at != tl.Now() {
				t.Fatalf("Now() = %g after popping %g", tl.Now(), at)
			}
			prevAt = at
			order = append(order, payload.(int))
		}
		// Equal times break ties by insertion order: payload 1 before 3 (both
		// t=1), 0 before 6 (both t=5).
		want := []int{7, 1, 3, 5, 2, 4, 0, 6}
		if !reflect.DeepEqual(order, want) {
			t.Fatalf("pop order %v, want %v", order, want)
		}

		defer func() {
			if recover() == nil {
				t.Fatal("scheduling into the past must panic")
			}
		}()
		tl.Schedule(tl.Now()-1, "late")
	})
}
