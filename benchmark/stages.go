package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"zerotune/internal/client"
	"zerotune/internal/cluster"
	"zerotune/internal/features"
	"zerotune/internal/gateway"
	"zerotune/internal/gnn"
	"zerotune/internal/loadgen"
	"zerotune/internal/optimizer"
	"zerotune/internal/queryplan"
	"zerotune/internal/serve"
	"zerotune/internal/workload"
)

// stageTimer times calls into the layers' public functions, one goroutine,
// and records each as a span under the request it was made for. The stage
// budget is built from outside the program on purpose: spans inside serve and
// gateway are the follow-up change, and this is the number they must explain.
type stageTimer struct {
	trace   *replayTrace
	samples map[string][]float64 // metric name -> microseconds
}

func newStageTimer() *stageTimer {
	return &stageTimer{trace: newReplayTrace(), samples: make(map[string][]float64)}
}

// span times fn as stage layer.name of request root (0: a request of its own).
func (st *stageTimer) span(root uint64, layer, name string, fn func()) {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	st.trace.add(root, layer, name, t0, t1)
	st.note(layer+"."+name+"_us", t1.Sub(t0))
}

func (st *stageTimer) note(metricName string, d time.Duration) {
	st.samples[metricName] = append(st.samples[metricName], float64(d)/1e3)
}

// p50 reports every collected stage as its median.
func (st *stageTimer) p50(into map[string]metric) {
	for name, v := range st.samples {
		into[name] = metric{Value: median(v), Unit: "us", Samples: len(v)}
	}
}

// missStages are the replayed stages of one cold /v1/predict request, in
// pipeline order; their sum plus serve.unattributed_miss_us is
// serve.handler_miss_us.
var missStages = []string{
	"serve.decode_us", "serve.cluster_build_us", "cluster.place_us", "features.encode_us",
	"serve.fingerprint_us", "serve.cache_miss_us", "serve.batcher_solo_us", "serve.marshal_us",
}

// slowStageSamples caps the stages that wait out the 2 ms batch window.
const slowStageSamples = 250

// replayStages produces the workload-independent per-layer metrics: the
// staged replay of the predict pipeline, the handler paths, the hops, the
// optimizer split, the loadgen lag gate and the model's output quality.
func (f *fixture) replayStages(sc scale) (map[string]metric, []span, error) {
	st := newStageTimer()
	out := make(map[string]metric)
	bodies, err := requestBodies(f.gen, predictPath, streamFrom, sc.stageSamples)
	if err != nil {
		return nil, nil, err
	}
	slow := bodies
	if len(slow) > slowStageSamples {
		slow = slow[:slowStageSamples]
	}
	graphs, err := f.replayPipeline(st, bodies)
	if err != nil {
		return nil, nil, err
	}
	f.replayForwardBatches(st, graphs)
	if err := f.replayBatcher(st, graphs, len(slow)); err != nil {
		return nil, nil, err
	}
	if err := f.replayHandlers(st, slow, sc.stageSamples); err != nil {
		return nil, nil, err
	}
	if err := f.replayOptimizer(st, out, min(tuneQueries, sc.stageSamples)); err != nil {
		return nil, nil, err
	}
	if err := f.replayLoadgen(out, slow, sc.loadgenRun); err != nil {
		return nil, nil, err
	}
	if err := f.quality(out); err != nil {
		return nil, nil, err
	}
	st.p50(out)

	var staged float64
	for _, name := range missStages {
		staged += out[name].Value
	}
	miss := out["serve.handler_miss_us"]
	out["serve.unattributed_miss_us"] = metric{Value: miss.Value - staged, Unit: "us", Samples: miss.Samples}
	hit := out["serve.handler_bodyhit_us"]
	call := out["serve.inprocess_call_us"]
	out["serve.inprocess_call_us"] = metric{Value: call.Value - hit.Value, Unit: "us", Samples: call.Samples}
	return out, st.trace.spans, nil
}

// replayPipeline walks each body through the cold predict pipeline's public
// functions in order, against a private plan cache.
func (f *fixture) replayPipeline(st *stageTimer, bodies [][]byte) ([]*features.Graph, error) {
	cache := serve.NewCache(serve.DefaultCacheSize)
	mask := f.zt.Mask
	ctx := context.Background()
	graphs := make([]*features.Graph, 0, len(bodies))
	var preds []gnn.Prediction
	one := make([]*features.Graph, 1)
	for _, body := range bodies {
		var (
			req serve.PredictRequest
			cl  *cluster.Cluster
			g   *features.Graph
			fp  serve.Fingerprint
			err error
		)
		root, finish := st.trace.begin("bench", "replay", time.Now())
		st.span(root, "serve", "decode", func() { err = json.Unmarshal(body, &req) })
		if err != nil {
			return nil, err
		}
		st.span(root, "serve", "cluster_build", func() { cl, err = req.Cluster.Build() })
		if err != nil {
			return nil, err
		}
		st.span(root, "cluster", "place", func() { err = cluster.Place(req.Plan, cl) })
		if err != nil {
			return nil, err
		}
		st.span(root, "features", "encode", func() { g, err = features.Encode(req.Plan, cl, mask) })
		if err != nil {
			return nil, err
		}
		st.span(root, "serve", "fingerprint", func() { fp = serve.PlanFingerprint(g, mask) })
		one[0] = g
		st.span(root, "gnn", "forward1", func() { preds = f.zt.PredictEncodedInto(preds, one) })
		pred := preds[0]
		st.span(root, "serve", "cache_miss", func() {
			e, _ := cache.Acquire(fp)
			cache.Complete(e, pred, nil)
		})
		st.span(root, "serve", "cache_hit", func() {
			e, _ := cache.Acquire(fp)
			pred, err = e.Wait(ctx)
		})
		if err != nil {
			return nil, err
		}
		st.span(root, "serve", "marshal", func() {
			_, err = json.Marshal(serve.PredictResponse{
				LatencyMs: pred.LatencyMs, ThroughputEPS: pred.ThroughputEPS, ModelID: "bench",
			})
		})
		if err != nil {
			return nil, err
		}
		finish(time.Now())
		graphs = append(graphs, g)
	}
	return graphs, nil
}

// replayForwardBatches times the fused forward pass at the optimizer's batch
// size (16 candidates) and the batcher's (64), per graph.
func (f *fixture) replayForwardBatches(st *stageTimer, graphs []*features.Graph) {
	var preds []gnn.Prediction
	for _, size := range []int{16, 64} {
		name := fmt.Sprintf("gnn.forward%d_us_per_graph", size)
		// Step by a quarter batch so even the 64-graph batches number >100.
		for at := 0; at+size <= len(graphs); at += (size + 3) / 4 {
			batch := graphs[at : at+size]
			t0 := time.Now()
			preds = f.zt.PredictEncodedInto(preds, batch)
			t1 := time.Now()
			st.trace.add(0, "gnn", fmt.Sprintf("forward%d", size), t0, t1)
			st.note(name, t1.Sub(t0)/time.Duration(size))
		}
	}
}

// replayBatcher times serve.Batcher alone: one caller, who waits out the
// window, and MaxBatch concurrent callers, whose batch flushes early.
func (f *fixture) replayBatcher(st *stageTimer, graphs []*features.Graph, solo int) error {
	b := serve.NewBatcher(serve.DefaultBatchWindow, serve.DefaultMaxBatch, 0, 30*time.Second, nil)
	defer b.Close()
	entry := &serve.ModelEntry{ZT: f.zt, ID: "bench"}
	ctx := context.Background()
	var err error
	for _, g := range graphs[:solo] {
		st.span(0, "serve", "batcher_solo", func() { _, err = b.Predict(ctx, entry, g) })
		if err != nil {
			return err
		}
	}
	full := serve.DefaultMaxBatch
	for at := 0; at+full <= len(graphs); at += full / 4 {
		errs := make([]error, full)
		var wg sync.WaitGroup
		t0 := time.Now()
		for i, g := range graphs[at : at+full] {
			wg.Add(1)
			go func(i int, g *features.Graph) {
				defer wg.Done()
				_, errs[i] = b.Predict(ctx, entry, g)
			}(i, g)
		}
		wg.Wait()
		t1 := time.Now()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		st.trace.add(0, "serve", "batcher_full", t0, t1)
		st.note("serve.batcher_full_us_per_graph", t1.Sub(t0)/time.Duration(full))
	}
	return nil
}

// stubBackend answers every call with canned bytes, so a gateway over it
// spends only its own time: admission, queue, route, forward bookkeeping.
type stubBackend struct {
	name string
	resp []byte
}

func (b stubBackend) Name() string { return b.name }
func (b stubBackend) Call(context.Context, string, []byte) (int, []byte, error) {
	return http.StatusOK, b.resp, nil
}

// replayHandlers times whole handlers, one client, one path each: the three
// serve paths, the in-process backend hop, the gateway alone and the gateway
// over real replicas, and the typed client in process and over loopback.
func (f *fixture) replayHandlers(st *stageTimer, bodies [][]byte, n int) error {
	srv := f.newServer()
	defer srv.Close()
	c := newCaller(srv, predictPath)
	timeCalls := func(layer, name string, c *caller, body func(i int) []byte, n int) error {
		for i := 0; i < n; i++ {
			b := body(i)
			var status int
			st.span(0, layer, name, func() { status = c.call(b) })
			if status != http.StatusOK {
				return fmt.Errorf("%s.%s: status %d: %s", layer, name, status, c.w.body)
			}
		}
		return nil
	}
	cycle := func(i int) []byte { return bodies[i%len(bodies)] }
	if err := timeCalls("serve", "handler_miss", c, cycle, len(bodies)); err != nil {
		return err
	}
	if err := timeCalls("serve", "handler_bodyhit", c, cycle, n); err != nil {
		return err
	}
	respelled := func(i int) []byte { return appendRespelled(nil, uint64(i), cycle(i)) }
	if err := timeCalls("serve", "handler_planhit", c, respelled, n); err != nil {
		return err
	}

	ctx := context.Background()
	be := serve.NewInProcessBackend("stage", srv)
	inproc := client.NewForHandler(srv)
	for i := 0; i < n; i++ {
		var status int
		var err error
		st.span(0, "serve", "inprocess_call", func() { status, _, err = be.Call(ctx, predictPath, cycle(i)) })
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("serve.inprocess_call: status %d: %v", status, err)
		}
		st.span(0, "client", "inprocess_call", func() { status, _, err = inproc.Call(ctx, predictPath, cycle(i)) })
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("client.inprocess_call: status %d: %v", status, err)
		}
	}
	if err := f.replayLoopback(st, srv, cycle, n); err != nil {
		return err
	}

	canned := append([]byte(nil), c.w.body...)
	stub, err := gateway.New([]serve.Backend{stubBackend{"stub-0", canned}, stubBackend{"stub-1", canned}},
		gateway.Options{ProbeInterval: -1, Seed: f.seed})
	if err != nil {
		return err
	}
	defer stub.Close()
	if err := timeCalls("gateway", "self", newCaller(stub, predictPath), cycle, n); err != nil {
		return err
	}

	real, err := f.newTarget(true)
	if err != nil {
		return err
	}
	defer real.close()
	gc := newCaller(real.handler, predictPath)
	for i := range bodies {
		if status := gc.call(cycle(i)); status != http.StatusOK {
			return fmt.Errorf("gateway warm: status %d", status)
		}
	}
	return timeCalls("gateway", "handler_bodyhit", gc, cycle, n)
}

// replayLoopback times the typed client over one loopback connection — the
// only socket in the benchmark, and never inside a timed run. Where the
// sandbox forbids listening the metric reads 0 and says so on stderr.
func (f *fixture) replayLoopback(st *stageTimer, h http.Handler, body func(i int) []byte, n int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: no loopback listener (%v): client.http_call_us reads 0\n", err)
		st.samples["client.http_call_us"] = []float64{0}
		return nil
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns ErrServerClosed on Close below
	}()
	defer func() {
		_ = hs.Close()
		<-done
	}()
	remote, err := client.New("http://" + ln.Addr().String())
	if err != nil {
		return err
	}
	ctx := context.Background()
	for i := 0; i < n; i++ {
		var status int
		st.span(0, "client", "http_call", func() { status, _, err = remote.Call(ctx, predictPath, body(i)) })
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("client.http_call: status %d: %v", status, err)
		}
	}
	return nil
}

// timedEstimator wraps the model's estimator and times its own calls, which
// splits optimizer.Tune into the optimizer's own work and the estimator's.
type timedEstimator struct {
	inner optimizer.BatchCostEstimator
	spent time.Duration
}

func (t *timedEstimator) Estimate(ctx context.Context, p *queryplan.PQP, c *cluster.Cluster) (optimizer.Estimate, error) {
	t0 := time.Now()
	e, err := t.inner.Estimate(ctx, p, c)
	t.spent += time.Since(t0)
	return e, err
}

func (t *timedEstimator) EstimateBatch(ctx context.Context, ps []*queryplan.PQP, c *cluster.Cluster) ([]optimizer.Estimate, error) {
	t0 := time.Now()
	es, err := t.inner.EstimateBatch(ctx, ps, c)
	t.spent += time.Since(t0)
	return es, err
}

func (f *fixture) replayOptimizer(st *stageTimer, out map[string]metric, n int) error {
	bodies, err := requestBodies(f.gen, tunePath, tuneFrom, n)
	if err != nil {
		return err
	}
	inner, ok := f.zt.Estimator().(optimizer.BatchCostEstimator)
	if !ok {
		return fmt.Errorf("model estimator lost its batch path")
	}
	est := &timedEstimator{inner: inner}
	ctx := context.Background()
	var candidates []float64
	for _, body := range bodies {
		var req serve.TuneRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return err
		}
		cl, err := req.Cluster.Build()
		if err != nil {
			return err
		}
		est.spent = 0
		var res *optimizer.TuneResult
		t0 := time.Now()
		root, finish := st.trace.begin("optimizer", "tune", t0)
		res, err = optimizer.Tune(ctx, req.Query, cl, est, optimizer.DefaultTuneOptions())
		t1 := time.Now()
		if err != nil {
			return err
		}
		finish(t1)
		// The estimator's calls sit somewhere inside Tune; the child span
		// carries their summed duration, anchored at the end.
		st.trace.add(root, "optimizer", "estimate", t1.Add(-est.spent), t1)
		st.note("optimizer.tune_us", t1.Sub(t0))
		st.note("optimizer.estimate_us", est.spent)
		st.note("optimizer.self_us", t1.Sub(t0)-est.spent)
		candidates = append(candidates, float64(res.Candidates))
	}
	var sum float64
	for _, c := range candidates {
		sum += c
	}
	out["optimizer.candidates"] = metric{Value: sum / float64(len(candidates)), Unit: "count", Samples: len(candidates)}
	return nil
}

// replayLoadgen measures the open-loop generator itself: how long it takes
// to build a schedule and how late it sends against the hot server. Open-loop
// latency cannot become an end-to-end metric until this lag is well under the
// service time it would be measuring.
func (f *fixture) replayLoadgen(out map[string]metric, bodies [][]byte, run time.Duration) error {
	spec := loadgen.Spec{Seed: f.seed, Rate: 2000, Duration: 30 * time.Second, Bodies: bodies[:min(hotBodies, len(bodies))]}
	t0 := time.Now()
	reqs, err := spec.Schedule()
	if err != nil {
		return err
	}
	out["loadgen.schedule_ms"] = metric{Value: float64(time.Since(t0)) / 1e6, Unit: "ms", Samples: len(reqs)}

	srv := f.newServer()
	defer srv.Close()
	c := newCaller(srv, predictPath)
	for _, b := range spec.Bodies {
		c.call(b)
	}
	spec.Duration = run
	if reqs, err = spec.Schedule(); err != nil {
		return err
	}
	results, err := loadgen.Run(context.Background(), reqs, loadgen.RunOptions{Target: loadgen.HandlerTarget{Handler: srv}})
	if err != nil {
		return err
	}
	lag := make([]float64, 0, len(results))
	for _, r := range results {
		if r.Err || r.Status != http.StatusOK {
			return fmt.Errorf("loadgen: request %d: status %d", r.Seq, r.Status)
		}
		lag = append(lag, float64(r.SendLag)/1e3)
	}
	out["loadgen.send_lag_p50_us"] = metric{Value: quantileOf(lag, 0.50), Unit: "us", Samples: len(lag)}
	out["loadgen.send_lag_p99_us"] = metric{Value: quantileOf(lag, 0.99), Unit: "us", Samples: len(lag)}
	return nil
}

// quality reports the model's median q-errors on held-out seen items. It is
// output quality, not speed: a performance change must not move it.
func (f *fixture) quality(out map[string]metric) error {
	const heldOut = 200
	items, err := workload.NewSeenGenerator(f.seed^0x5eed).Generate(workload.SeenRanges().Structures, heldOut)
	if err != nil {
		return err
	}
	lat, tpt, err := f.zt.QErrors(items)
	if err != nil {
		return err
	}
	out["core.qerr_lat_p50"] = metric{Value: median(lat), Unit: "ratio", Samples: len(lat)}
	out["core.qerr_tpt_p50"] = metric{Value: median(tpt), Unit: "ratio", Samples: len(tpt)}
	return nil
}
