package zerotune

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation. Each benchmark regenerates its artifact and
// prints the same rows/series the paper reports (via b.Log, visible with
// `go test -bench=. -v` or in -benchmem output).
//
// The shared lab (training corpus + trained models) is built once, outside
// the timed region. Scale with ZEROTUNE_BENCH_SCALE=quick|default|paper;
// the default keeps the whole suite within minutes on a laptop.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zerotune/internal/core"
	"zerotune/internal/experiments"
	"zerotune/internal/gateway"
	"zerotune/internal/gnn"
	"zerotune/internal/queryplan"
	"zerotune/internal/serve"
	"zerotune/internal/simulator"
	"zerotune/internal/tensor"
	"zerotune/internal/workload"
)

var (
	benchOnce sync.Once
	benchL    *experiments.Lab
)

func benchLab(b *testing.B) *experiments.Lab {
	b.Helper()
	benchOnce.Do(func() {
		cfg, err := experiments.ScaleConfig(os.Getenv("ZEROTUNE_BENCH_SCALE"))
		if err != nil { // unset or unknown: the default scale
			cfg = experiments.DefaultConfig()
		}
		benchL = experiments.NewLab(cfg)
	})
	// Warm the shared model outside the timed loop.
	if _, err := benchL.ZeroTune(); err != nil {
		b.Fatal(err)
	}
	return benchL
}

// report logs the artifact once per benchmark run.
func report(b *testing.B, res fmt.Stringer) {
	b.Helper()
	b.Log("\n" + res.String())
}

// BenchmarkTrainThroughput measures end-to-end training throughput of the
// data-parallel gnn.Train loop in graphs/sec (forward+backward+step over the
// whole corpus, epochs included). Worker fan-out follows ZEROTUNE_WORKERS /
// GOMAXPROCS; the loss trajectory is identical for any worker count.
func BenchmarkTrainThroughput(b *testing.B) {
	gen := workload.NewSeenGenerator(1)
	items, err := gen.Generate(workload.SeenRanges().Structures, 256)
	if err != nil {
		b.Fatal(err)
	}
	graphs := workload.Graphs(items)
	cfg := gnn.DefaultTrainConfig()
	cfg.Epochs = 4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model := gnn.New(tensor.NewRNG(1), gnn.Config{Hidden: 32, EncDepth: 1, HeadHidden: 32})
		if _, err := gnn.Train(context.Background(), model, graphs, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*cfg.Epochs*len(graphs))/b.Elapsed().Seconds(), "graphs/sec")
}

// BenchmarkTrainEpoch is one epoch of gnn.Train at the served model's shape
// (gnn.DefaultConfig) over 600 seen queries at seed 1: one tenth of what the
// benchmark fixture trains before it serves.
func BenchmarkTrainEpoch(b *testing.B) {
	items, err := workload.NewSeenGenerator(1).Generate(workload.SeenRanges().Structures, 600)
	if err != nil {
		b.Fatal(err)
	}
	graphs := workload.Graphs(items)
	cfg := gnn.DefaultTrainConfig()
	cfg.Epochs = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model := gnn.New(tensor.NewRNG(1), gnn.DefaultConfig())
		if _, err := gnn.Train(context.Background(), model, graphs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3Microbenchmark regenerates Fig. 3: latency and throughput vs
// parallelism degree with the operator-grouping jump.
func BenchmarkFig3Microbenchmark(b *testing.B) {
	var last fmt.Stringer
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3(32)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	report(b, last)
}

// BenchmarkTable4Seen regenerates Table IV ①: q-errors on seen structures.
func BenchmarkTable4Seen(b *testing.B) {
	l := benchLab(b)
	b.ResetTimer()
	var last fmt.Stringer
	for i := 0; i < b.N; i++ {
		res, err := l.RunTable4Seen()
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	report(b, last)
}

// BenchmarkTable4Unseen regenerates Table IV ②: unseen structures.
func BenchmarkTable4Unseen(b *testing.B) {
	l := benchLab(b)
	b.ResetTimer()
	var last fmt.Stringer
	for i := 0; i < b.N; i++ {
		res, err := l.RunTable4Unseen()
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	report(b, last)
}

// BenchmarkTable4Benchmarks regenerates Table IV ③: public benchmarks.
func BenchmarkTable4Benchmarks(b *testing.B) {
	l := benchLab(b)
	b.ResetTimer()
	var last fmt.Stringer
	for i := 0; i < b.N; i++ {
		res, err := l.RunTable4Benchmarks()
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	report(b, last)
}

// BenchmarkFig5ModelComparison regenerates Figs. 1/5: ZeroTune vs the
// flat-vector architectures.
func BenchmarkFig5ModelComparison(b *testing.B) {
	l := benchLab(b)
	if _, err := l.FlatBaselines(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var last fmt.Stringer
	for i := 0; i < b.N; i++ {
		res, err := l.RunFig5ModelComparison()
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	report(b, last)
}

// BenchmarkFig6FewShot regenerates Fig. 6: few-shot fine-tuning on complex
// joins.
func BenchmarkFig6FewShot(b *testing.B) {
	l := benchLab(b)
	b.ResetTimer()
	var last fmt.Stringer
	for i := 0; i < b.N; i++ {
		res, err := l.RunFig6FewShot()
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	report(b, last)
}

// BenchmarkFig7Parallelism regenerates Fig. 7: q-errors per parallelism
// category (all four panels).
func BenchmarkFig7Parallelism(b *testing.B) {
	l := benchLab(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		a, err := l.RunFig7a()
		if err != nil {
			b.Fatal(err)
		}
		p7b, err := l.RunFig7b()
		if err != nil {
			b.Fatal(err)
		}
		c, _, err := l.RunFig7c()
		if err != nil {
			b.Fatal(err)
		}
		zero, few, err := l.RunFig7d()
		if err != nil {
			b.Fatal(err)
		}
		out = a.String() + "\n" + p7b.String() + "\n" + c.String() + "\n" + zero.String() + "\n" + few.String()
	}
	b.Log("\n" + out)
}

// BenchmarkFig8Parameters regenerates Fig. 8: median q-errors across the
// five unseen-parameter sweeps.
func BenchmarkFig8Parameters(b *testing.B) {
	l := benchLab(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = ""
		for _, fn := range []func() (*experiments.Fig8Result, error){
			l.RunFig8TupleWidth, l.RunFig8EventRate, l.RunFig8WindowDuration,
			l.RunFig8WindowLength, l.RunFig8Workers,
		} {
			res, err := fn()
			if err != nil {
				b.Fatal(err)
			}
			out += res.String() + "\n"
		}
	}
	b.Log("\n" + out)
}

// BenchmarkFig9DataEfficiency regenerates Fig. 9: OptiSample vs Random
// training-data enumeration.
func BenchmarkFig9DataEfficiency(b *testing.B) {
	l := benchLab(b)
	b.ResetTimer()
	var last fmt.Stringer
	for i := 0; i < b.N; i++ {
		res, err := l.RunFig9DataEfficiency(nil)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	report(b, last)
}

// BenchmarkFig10aSpeedup regenerates Fig. 10a: mean speed-ups of ZeroTune
// tuning over the greedy heuristic.
func BenchmarkFig10aSpeedup(b *testing.B) {
	l := benchLab(b)
	b.ResetTimer()
	var last fmt.Stringer
	for i := 0; i < b.N; i++ {
		res, err := l.RunFig10aSpeedup()
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	report(b, last)
}

// BenchmarkFig10bDhalion regenerates Fig. 10b: weighted cost vs Dhalion.
func BenchmarkFig10bDhalion(b *testing.B) {
	l := benchLab(b)
	b.ResetTimer()
	var last fmt.Stringer
	for i := 0; i < b.N; i++ {
		res, err := l.RunFig10bDhalion()
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	report(b, last)
}

// BenchmarkFig11Ablation regenerates Fig. 11: the feature ablation.
func BenchmarkFig11Ablation(b *testing.B) {
	l := benchLab(b)
	b.ResetTimer()
	var last fmt.Stringer
	for i := 0; i < b.N; i++ {
		res, err := l.RunFig11Ablation()
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	report(b, last)
}

// benchResponseWriter is a minimal reusable http.ResponseWriter so the
// benchmark measures the serving stack, not recorder allocations.
type benchResponseWriter struct {
	h      http.Header
	status int
	buf    bytes.Buffer
}

func (w *benchResponseWriter) Header() http.Header { return w.h }
func (w *benchResponseWriter) WriteHeader(c int)   { w.status = c }
func (w *benchResponseWriter) Write(p []byte) (int, error) {
	return w.buf.Write(p)
}
func (w *benchResponseWriter) reset() {
	w.status = http.StatusOK
	w.buf.Reset()
	for k := range w.h {
		delete(w.h, k)
	}
}

// benchServeModel trains the small model the serve benchmarks share.
func benchServeModel(tb testing.TB) *core.ZeroTune {
	tb.Helper()
	items, err := workload.NewSeenGenerator(5).Generate(workload.SeenRanges().Structures, 60)
	if err != nil {
		tb.Fatal(err)
	}
	opts := core.DefaultTrainOptions()
	opts.Hidden, opts.EncDepth, opts.HeadHidden = 12, 1, 12
	opts.Epochs = 2
	zt, _, err := core.Train(context.Background(), items, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return zt
}

// benchSpikeBodies marshals 32 distinct spike-detection predict requests.
func benchSpikeBodies(b *testing.B) [][]byte {
	b.Helper()
	bodies := make([][]byte, 32)
	for i := range bodies {
		req := serve.PredictRequest{
			Plan:    queryplan.NewPQP(queryplan.SpikeDetection(float64(5_000 + 1_000*i))),
			Cluster: serve.ClusterSpec{Workers: 4, LinkGbps: 10},
		}
		var err error
		if bodies[i], err = json.Marshal(req); err != nil {
			b.Fatal(err)
		}
	}
	return bodies
}

// BenchmarkServePredict measures request throughput of the online serving
// path: request decode, plan featurization, fingerprint cache, the
// micro-batching coalescer, and batched inference. Requests are driven
// through Server.ServeHTTP in-process — the kernel socket and HTTP client
// cost the same before and after any serving change, so keeping them out of
// the timed region is what makes snapshots comparable. Parallel clients
// rotate through a pool of distinct plans so the coalescer sees concurrent
// misses to batch while repeat requests exercise the cache, as in a steady
// production mix.
func BenchmarkServePredict(b *testing.B) {
	s := serve.New(serve.Options{BatchWindow: 500 * time.Microsecond, MaxBatch: 64, CacheSize: 256})
	defer s.Close()
	s.Registry().Install(benchServeModel(b), "bench", "")
	bodies := benchSpikeBodies(b)

	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := &benchResponseWriter{h: make(http.Header)}
		for pb.Next() {
			i := next.Add(1)
			r := httptest.NewRequest(http.MethodPost, "/v1/predict",
				bytes.NewReader(bodies[i%uint64(len(bodies))]))
			w.reset()
			s.ServeHTTP(w, r)
			if w.status != http.StatusOK {
				b.Errorf("status %d: %s", w.status, w.buf.String())
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/sec")
}

// benchMissBodies marshals 1024 distinct seeded predict requests over the seen
// structures: the bodies of a cold request.
func benchMissBodies(b *testing.B) [][]byte {
	b.Helper()
	gen := workload.NewSeenGenerator(5)
	structures := workload.SeenRanges().Structures
	bodies := make([][]byte, 1024)
	for i := range bodies {
		q, c, err := gen.SampleQuery(structures[i%len(structures)], uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		req := serve.PredictRequest{Plan: queryplan.NewPQP(q), Cluster: serve.ClusterSpec{Workers: len(c.Nodes)}}
		if bodies[i], err = json.Marshal(req); err != nil {
			b.Fatal(err)
		}
	}
	return bodies
}

// BenchmarkDecodePredict is the decode stage of a cold request alone: the
// request's own decoder over BenchmarkServePredictMiss's bodies, called as
// the handler calls it.
func BenchmarkDecodePredict(b *testing.B) {
	bodies := benchMissBodies(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var req serve.PredictRequest
		if err := req.UnmarshalJSON(bodies[i%len(bodies)]); err != nil {
			b.Fatal(err)
		}
	}
}

// refPredictRequest is serve.PredictRequest without its decoder: the same
// fields and tags over types that have no UnmarshalJSON, so encoding/json
// decodes it by reflection, as every request was decoded before the wire
// types decoded themselves (internal/serve's differential test holds the two
// to equal results; this benchmark holds them side by side on cost).
type (
	refQuery          queryplan.Query   // a defined type keeps the fields and tags and drops the methods
	refCluster        serve.ClusterSpec // likewise
	refPredictRequest struct {
		Plan *struct {
			Query       *refQuery        `json:"query"`
			Parallelism map[int]int      `json:"parallelism"`
			Placement   map[int][]string `json:"placement,omitempty"`
			NoChain     []int            `json:"no_chain,omitempty"` // what OpSet used to decode through
		} `json:"plan"`
		Cluster refCluster `json:"cluster"`
	}
)

// BenchmarkDecodePredictRef is the same bodies through encoding/json's
// reflection: what BenchmarkDecodePredict is measured against.
func BenchmarkDecodePredictRef(b *testing.B) {
	bodies := benchMissBodies(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var req refPredictRequest
		if err := json.Unmarshal(bodies[i%len(bodies)], &req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServePredictMiss is the cold half of BenchmarkServePredict: 1024
// distinct seeded plans cycle against 256-entry caches, so every request
// misses the body cache and the fingerprint cache and pays for the whole
// pipeline — decode, analyse, place, encode, fingerprint, forward, marshal.
// BatchWindow -1 flushes every request alone, so the batch timer is not what
// is timed; one client at a time, so ns/op and allocs/op are one miss.
func BenchmarkServePredictMiss(b *testing.B) {
	s := serve.New(serve.Options{BatchWindow: -1, CacheSize: 256})
	defer s.Close()
	s.Registry().Install(benchServeModel(b), "bench", "")

	bodies := benchMissBodies(b)

	w := &benchResponseWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(bodies[i%len(bodies)]))
		w.reset()
		s.ServeHTTP(w, r)
		if w.status != http.StatusOK {
			b.Fatalf("status %d: %s", w.status, w.buf.String())
		}
	}
	b.StopTimer()
	if snap := s.Snapshot(); snap.BodyHits+snap.Cache.Hits+snap.Cache.Coalesced != 0 {
		b.Fatalf("%d body hits, %+v: every request should miss both caches", snap.BodyHits, snap.Cache)
	}
}

// BenchmarkServePredictPlanHit is the middle of the three predict paths: the
// plan has been answered before but these bytes have not. Each request is one
// of BenchmarkServePredict's 32 bodies respelled under a unique leading
// "client_request_id" field, so it misses the body cache and pays for decode,
// analyse, place, encode and fingerprint before the warm fingerprint cache
// answers it — everything of a miss except the batcher and the forward pass.
// One client at a time, so ns/op and allocs/op are one such request.
func BenchmarkServePredictPlanHit(b *testing.B) {
	s := serve.New(serve.Options{BatchWindow: -1, CacheSize: 256})
	defer s.Close()
	s.Registry().Install(benchServeModel(b), "bench", "")
	bodies := benchSpikeBodies(b)

	w := &benchResponseWriter{h: make(http.Header)}
	post := func(body []byte) {
		r := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
		w.reset()
		s.ServeHTTP(w, r)
		if w.status != http.StatusOK {
			b.Fatalf("status %d: %s", w.status, w.buf.String())
		}
	}
	for _, body := range bodies {
		post(body)
	}
	var respelled []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		respelled = append(respelled[:0], `{"client_request_id":"`...)
		respelled = strconv.AppendInt(respelled, int64(i), 10)
		respelled = append(respelled, `",`...)
		respelled = append(respelled, bodies[i%len(bodies)][1:]...)
		post(respelled)
	}
	b.StopTimer()
	if snap := s.Snapshot(); snap.BodyHits != 0 || snap.Cache.Hits != uint64(b.N) || snap.Cache.Misses != uint64(len(bodies)) {
		b.Fatalf("%d body hits, %+v: every timed request should miss the body cache and hit the plan cache", snap.BodyHits, snap.Cache)
	}
}

// BenchmarkTune measures the paper's headline use end to end: /v1/tune at
// default options, in process, over 64 seeded queries of the seen structures —
// request decode, candidate enumeration, placement and encoding of every
// candidate, and one batched forward per call. No cache and no batcher sit on
// this path, so ns/op and allocs/op are the cost of one tuning decision;
// candidates/op says how many what-if plans that decision priced.
func BenchmarkTune(b *testing.B) {
	gen := workload.NewSeenGenerator(5)
	items, err := gen.Generate(workload.SeenRanges().Structures, 60)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.DefaultTrainOptions()
	opts.Epochs = 2
	zt, _, err := core.Train(context.Background(), items, opts)
	if err != nil {
		b.Fatal(err)
	}
	s := serve.New(serve.Options{})
	defer s.Close()
	s.Registry().Install(zt, "bench", "")

	structures := workload.SeenRanges().Structures
	bodies := make([][]byte, 64)
	for i := range bodies {
		q, c, err := gen.SampleQuery(structures[i%len(structures)], uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		spec := serve.ClusterSpec{Nodes: c.Nodes, LinkGbps: c.LinkGbps}
		if bodies[i], err = json.Marshal(serve.TuneRequest{Query: q, Cluster: spec}); err != nil {
			b.Fatal(err)
		}
	}

	var next, candidates atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := &benchResponseWriter{h: make(http.Header)}
		var resp serve.TuneResponse
		for pb.Next() {
			i := next.Add(1)
			r := httptest.NewRequest(http.MethodPost, "/v1/tune",
				bytes.NewReader(bodies[i%uint64(len(bodies))]))
			w.reset()
			s.ServeHTTP(w, r)
			if w.status != http.StatusOK {
				b.Errorf("status %d: %s", w.status, w.buf.String())
				return
			}
			if err := json.Unmarshal(w.buf.Bytes(), &resp); err != nil {
				b.Error(err)
				return
			}
			candidates.Add(uint64(resp.Candidates))
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(candidates.Load())/float64(b.N), "candidates/op")
}

// BenchmarkSimulate measures the ground-truth engine on one placed plan, over
// 64 seeded plans of the seen structures: the cost of every label in a corpus
// and of every observation Greedy, Dhalion and the experiments make. allocs/op
// is the handle on "a plan is analysed once and walked by position".
func BenchmarkSimulate(b *testing.B) {
	items, err := workload.NewSeenGenerator(1).Generate(workload.SeenRanges().Structures, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := items[i%len(items)]
		if _, err := simulator.Simulate(it.Plan, it.Cluster, simulator.Options{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGatewayPredict measures the scale-out tier: the same in-process
// predict traffic as BenchmarkServePredict, but driven through the gateway
// with 1 vs 3 replicas behind it. The workload is sized to expose the
// affinity-routing win: 384 distinct plans cycle against a 192-entry
// per-replica cache, so a single replica thrashes its LRU (cyclic access
// over a population larger than the cache evicts every entry before its
// reuse) while three affinity-sharded replicas each own a ~128-plan shard
// that fits, turning repeat traffic into cache hits instead of forward
// passes. That is the deployment claim of the gateway — replica caches
// shard by plan fingerprint — measured directly; TestGatewayScaleOut
// asserts it.
func BenchmarkGatewayPredict(b *testing.B) {
	zt := benchServeModel(b)
	bodies := scaleOutBodies(b)
	for _, n := range []int{1, 3} {
		b.Run(fmt.Sprintf("replicas=%d", n), func(b *testing.B) {
			g, _ := scaleOutGateway(b, zt, n)
			driveGateway(b, g, bodies)
		})
	}
}

// scaleOutBodies marshals BenchmarkGatewayPredict's 384 distinct
// spike-detection predict requests.
func scaleOutBodies(tb testing.TB) [][]byte {
	tb.Helper()
	bodies := make([][]byte, 384)
	for i := range bodies {
		req := serve.PredictRequest{
			Plan:    queryplan.NewPQP(queryplan.SpikeDetection(float64(5_000 + 500*i))),
			Cluster: serve.ClusterSpec{Workers: 4, LinkGbps: 10},
		}
		var err error
		if bodies[i], err = json.Marshal(req); err != nil {
			tb.Fatal(err)
		}
	}
	return bodies
}

// scaleOutGateway builds BenchmarkGatewayPredict's tier: an affinity-routing
// gateway over n in-process replicas of zt, each with 192-entry caches. The
// test's cleanup closes it.
func scaleOutGateway(tb testing.TB, zt *core.ZeroTune, n int) (*gateway.Gateway, []*serve.Server) {
	tb.Helper()
	servers := make([]*serve.Server, n)
	backends := make([]serve.Backend, n)
	for i := range backends {
		s := serve.New(serve.Options{BatchWindow: 500 * time.Microsecond,
			MaxBatch: 64, CacheSize: 192})
		tb.Cleanup(s.Close)
		s.Registry().Install(zt, fmt.Sprintf("bench-%d", i), "")
		servers[i] = s
		backends[i] = serve.NewInProcessBackend(fmt.Sprintf("replica-%d", i), s)
	}
	g, err := gateway.New(backends, gateway.Options{
		ProbeInterval: -1,
		MaxConcurrent: 64 * n,
		QueueDepth:    4096,
		Seed:          1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(g.Close)
	return g, servers
}

// driveGateway is BenchmarkGatewayPredict's timed loop: parallel clients
// cycling through bodies, reported as req/sec.
func driveGateway(b *testing.B, g http.Handler, bodies [][]byte) {
	var next atomic.Uint64
	b.ReportAllocs()
	// More clients than cores: the gateway's value is overlapping
	// micro-batch flushes across replicas, which only shows once
	// requests actually queue behind a single replica's flush loop.
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := &benchResponseWriter{h: make(http.Header)}
		for pb.Next() {
			i := next.Add(1)
			r := httptest.NewRequest(http.MethodPost, "/v1/predict",
				bytes.NewReader(bodies[i%uint64(len(bodies))]))
			w.reset()
			g.ServeHTTP(w, r)
			if w.status != http.StatusOK {
				b.Errorf("status %d: %s", w.status, w.buf.String())
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/sec")
}

// BenchmarkAblationReadout quantifies this reproduction's structured
// read-out design decision against the paper's plain sink-state read-out.
func BenchmarkAblationReadout(b *testing.B) {
	l := benchLab(b)
	b.ResetTimer()
	var last fmt.Stringer
	for i := 0; i < b.N; i++ {
		res, err := l.RunReadoutAblation()
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	report(b, last)
}
