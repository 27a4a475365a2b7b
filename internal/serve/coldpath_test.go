package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zerotune/internal/cluster"
	"zerotune/internal/core"
	"zerotune/internal/features"
	"zerotune/internal/gnn"
	"zerotune/internal/queryplan"
	"zerotune/internal/tensor"
	"zerotune/internal/workload"
)

var (
	coldOnce  sync.Once
	coldZT    *core.ZeroTune
	coldZTErr error
)

// coldModel is a small trained model with its fallback, shared by the tests
// of the cold predict path.
func coldModel(t *testing.T) *core.ZeroTune {
	t.Helper()
	coldOnce.Do(func() {
		items, err := workload.NewSeenGenerator(11).Generate(workload.SeenRanges().Structures, 40)
		if err != nil {
			coldZTErr = err
			return
		}
		opts := core.DefaultTrainOptions()
		opts.Hidden, opts.EncDepth, opts.HeadHidden = 8, 1, 8
		opts.Epochs = 1
		opts.Seed = 11
		coldZT, _, coldZTErr = core.Train(context.Background(), items, opts)
	})
	if coldZTErr != nil {
		t.Fatal(coldZTErr)
	}
	return coldZT
}

// coldBodies marshals n distinct unplaced predict requests over the seen
// structures, plan indices from..from+n, the way `zerotune bench` builds its
// corpus.
func coldBodies(t *testing.T, from, n int) [][]byte { return shapedBodies(t, from, n, nil) }

// shapedBodies is coldBodies with each plan handed to shape, when not nil,
// along with the cluster its request names.
func shapedBodies(t *testing.T, from, n int, shape func(*queryplan.PQP, *cluster.Cluster) error) [][]byte {
	t.Helper()
	gen := workload.NewSeenGenerator(11)
	structures := workload.SeenRanges().Structures
	out := make([][]byte, n)
	for i := range out {
		j := from + i
		q, c, err := gen.SampleQuery(structures[j%len(structures)], uint64(j+1))
		if err != nil {
			t.Fatal(err)
		}
		req := PredictRequest{Plan: queryplan.NewPQP(q), Cluster: ClusterSpec{Workers: len(c.Nodes)}}
		if shape != nil {
			built, err := req.Cluster.Build()
			if err == nil {
				err = shape(req.Plan, built)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if out[i], err = json.Marshal(req); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// servePost runs one /v1/predict request with body through s.
func servePost(s *Server, ctx context.Context, body []byte) (int, []byte) {
	r := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	return w.Code, w.Body.Bytes()
}

// encodingJSON is what WriteJSON writes for v.
func encodingJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPredictNonFiniteIsForwardFailure: a forward pass that answers +Inf or
// NaN has failed. The request degrades to the fallback, or is a 503 envelope
// without one; the breaker counts the failure; neither cache keeps anything.
func TestPredictNonFiniteIsForwardFailure(t *testing.T) {
	zt := coldModel(t)
	body := coldBodies(t, 0, 1)[0]
	for _, bad := range []gnn.Prediction{
		{LatencyMs: math.Inf(1), ThroughputEPS: 1},
		{LatencyMs: 1, ThroughputEPS: math.NaN()},
	} {
		for _, model := range []*core.ZeroTune{zt, {Model: zt.Model, Mask: zt.Mask}} {
			name := fmt.Sprintf("%v/fallback=%v", bad, model.Fallback != nil)
			s := New(Options{BatchWindow: -1, CircuitThreshold: 1, CircuitCooldown: time.Hour})
			s.Registry().Install(model, "m", "")
			s.batcher.SetForward(func(_ *ModelEntry, graphs []*features.Graph) ([]gnn.Prediction, error) {
				out := make([]gnn.Prediction, len(graphs))
				for i := range out {
					out[i] = bad
				}
				return out, nil
			})
			status, payload := servePost(s, context.Background(), body)
			if model.Fallback != nil {
				var got PredictResponse
				if status != http.StatusOK || json.Unmarshal(payload, &got) != nil || !got.Degraded {
					t.Errorf("%s: status %d %q, want a degraded answer", name, status, payload)
				}
			} else {
				var got errorResponse
				if status != http.StatusServiceUnavailable || json.Unmarshal(payload, &got) != nil || got.Error.Code != "unavailable" {
					t.Errorf("%s: status %d %q, want the 503 unavailable envelope", name, status, payload)
				}
			}
			if st := s.Circuit(); st != CircuitOpen {
				t.Errorf("%s: circuit %v, want open after one failure at threshold 1", name, st)
			}
			if n, size := s.resp.size(), s.cache.Stats().Size; n != 0 || size != 0 {
				t.Errorf("%s: %d body-cache and %d plan-cache entries, want none", name, n, size)
			}
			s.Close()
		}
	}
}

// TestWriteJSONUnencodable: a value encoding/json refuses is answered with the
// 500 envelope, not a 200 with an empty body.
func TestWriteJSONUnencodable(t *testing.T) {
	w := httptest.NewRecorder()
	WriteJSON(w, http.StatusOK, PredictResponse{LatencyMs: math.NaN()})
	var got errorResponse
	if w.Code != http.StatusInternalServerError || json.Unmarshal(w.Body.Bytes(), &got) != nil || got.Error.Code != "internal" {
		t.Fatalf("status %d %q, want the 500 internal envelope", w.Code, w.Body.Bytes())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q", ct)
	}
}

// checkPredictAnswer holds the appended answer to encoding/json's bytes for
// the same PredictResponse, cached and not.
func checkPredictAnswer(t *testing.T, lat, tpt float64, id string) {
	t.Helper()
	if math.IsNaN(lat) || math.IsInf(lat, 0) || math.IsNaN(tpt) || math.IsInf(tpt, 0) {
		return // the batcher fails these before an answer is built
	}
	tail := newModelEntry(nil, id, "").predictTail
	for _, cached := range []bool{false, true} {
		got := appendPredictHead(nil, lat, tpt)
		got = append(append(got, fmt.Sprint(cached)...), tail...)
		want := encodingJSON(t, PredictResponse{LatencyMs: lat, ThroughputEPS: tpt, Cached: cached, ModelID: id})
		if !bytes.Equal(got, want) {
			t.Fatalf("lat %x tpt %x id %q cached %v:\n got %s\nwant %s",
				math.Float64bits(lat), math.Float64bits(tpt), id, cached, got, want)
		}
	}
}

// answerSeeds are floats on both sides of every rule of encoding/json's
// float format and model IDs with everything its string escaping touches.
var (
	answerFloats = []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 123.456, 1e20, 1e21, math.Nextafter(1e21, 0),
		1e-6, math.Nextafter(1e-6, 0), 1e-7, 1e-9, 1.5e-10, 1e-100, 1e300, -2.5e-8,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 2.2250738585072009e-308, -4.9e-324,
	}
	answerIDs = []string{
		"", "sha256:0123456789ab", "mem:1", `a"b`, `a\b`, "a<b>&c", "line\u2028sep\u2029",
		"ctl\x00\x01\x1f\t\n\r\b\f", "bad\xffutf8\xc3", "é漢字🙂", "\x7f",
	}
)

func TestPredictAnswerIsEncodingJSON(t *testing.T) {
	for _, lat := range answerFloats {
		for _, tpt := range answerFloats {
			checkPredictAnswer(t, lat, tpt, "mem:1")
		}
	}
	for _, id := range answerIDs {
		checkPredictAnswer(t, 12.5, 3e-7, id)
	}
	rng := tensor.NewRNG(47)
	for i := 0; i < 20000; i++ {
		checkPredictAnswer(t, math.Float64frombits(rng.Uint64()), math.Float64frombits(rng.Uint64()), "mem:1")
	}
}

// FuzzPredictAnswerMatchesEncodingJSON: any two float64 bit patterns and any
// model ID append to encoding/json's bytes.
func FuzzPredictAnswerMatchesEncodingJSON(f *testing.F) {
	for i, v := range answerFloats {
		f.Add(math.Float64bits(v), math.Float64bits(answerFloats[len(answerFloats)-1-i]), answerIDs[i%len(answerIDs)])
	}
	f.Fuzz(func(t *testing.T, lat, tpt uint64, id string) {
		checkPredictAnswer(t, math.Float64frombits(lat), math.Float64frombits(tpt), id)
	})
}

// TestPredictFastPathIsEncodePlan: the graph the handler encodes into its
// pooled scratch — for an unplaced, partly placed, NoChain, placed or
// hand-placed plan alike — is the graph of the plan placed by cluster.Place
// unless it was placed in full, then encoded by features.Encode, with its
// fingerprint; the served answer is the model's prediction on it; and the
// decoded request's plan is left as it was, a placement it lacked included.
func TestPredictFastPathIsEncodePlan(t *testing.T) {
	zt := coldModel(t)
	s := New(Options{BatchWindow: -1})
	defer s.Close()
	entry := s.Registry().Install(zt, "m", "")
	gen := workload.NewSeenGenerator(3)
	structures := workload.SeenRanges().Structures
	ctx := context.Background()
	for i := 0; i < 24; i++ {
		q, cl, err := gen.SampleQuery(structures[i%len(structures)], uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		spec := ClusterSpec{Workers: len(cl.Nodes) + 1, LinkGbps: 10}
		unplaced := queryplan.NewPQP(q)
		// One degree for every operator, so forward edges chain and NoChain
		// changes the graph.
		for _, o := range q.Ops {
			unplaced.SetDegree(o.ID, 1+i%3)
		}
		c, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		topo, err := q.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		// Placed by hand: every instance one node past where round-robin
		// placement puts it. Partly placed: the first operator alone placed
		// so, which the encoder ignores.
		shifted := unplaced.Clone()
		if err := cluster.Place(shifted, c); err != nil {
			t.Fatal(err)
		}
		index := map[string]int{}
		for k, n := range c.Nodes {
			index[n.Name] = k
		}
		for _, names := range shifted.Placement {
			for j := range names {
				names[j] = c.Nodes[(index[names[j]]+1)%len(c.Nodes)].Name
			}
		}
		partly := unplaced.Clone()
		first := topo.Ops[0].ID
		partly.Placement[first] = shifted.Placement[first]
		// NoChain on an operator that would chain to its input.
		noChain := unplaced.Clone()
		for pos, in := range topo.In {
			if len(in) == 1 && in[0].Partitioning == queryplan.PartForward {
				noChain.SetNoChain(topo.Ops[pos].ID, true)
				break
			}
		}
		placed := unplaced.Clone()
		if err := cluster.Place(placed, c); err != nil {
			t.Fatal(err)
		}

		fps := map[string]Fingerprint{}
		for name, p := range map[string]*queryplan.PQP{
			"unplaced": unplaced, "partly placed": partly, "no_chain": noChain, "placed": placed, "placed by hand": shifted,
		} {
			ref := p.Clone()
			if len(ref.Placement) != len(q.Ops) {
				if err := cluster.Place(ref, c); err != nil {
					t.Fatal(err)
				}
			}
			want, err := features.Encode(ref, c, zt.Mask)
			if err != nil {
				t.Fatal(err)
			}

			// The handler's steps, on the plan it decodes from the body.
			body, err := json.Marshal(PredictRequest{Plan: p, Cluster: spec})
			if err != nil {
				t.Fatal(err)
			}
			var req, decoded PredictRequest
			if err := req.UnmarshalJSON(body); err != nil {
				t.Fatal(err)
			}
			if err := decoded.UnmarshalJSON(body); err != nil {
				t.Fatal(err)
			}
			sc := &predictScratch{}
			if sc.deg, err = req.Plan.AnalyzeIn(&sc.topo, nil); err != nil {
				t.Fatal(err)
			}
			built, err := req.Cluster.BuildIn(&sc.cluster)
			if err != nil {
				t.Fatal(err)
			}
			got, err := entry.ZT.EncodePlan(ctx, &sc.enc, &sc.arena, &sc.topo, req.Plan, sc.deg, built)
			if err != nil {
				t.Fatal(err)
			}
			fp := PlanFingerprint(got, zt.Mask)
			if fp != PlanFingerprint(want, zt.Mask) || !reflect.DeepEqual(got, want) {
				t.Fatalf("plan %d %s: served graph differs from Place and Encode's\n got %+v\nwant %+v", i, name, got, want)
			}
			if !reflect.DeepEqual(req.Plan, decoded.Plan) {
				t.Fatalf("plan %d %s: encoding wrote the decoded plan: placement %v, was %v",
					i, name, req.Plan.Placement, decoded.Plan.Placement)
			}
			fps[name] = fp

			status, payload := servePost(s, ctx, body)
			var ans PredictResponse
			if status != http.StatusOK || json.Unmarshal(payload, &ans) != nil {
				t.Fatalf("plan %d %s: status %d %q", i, name, status, payload)
			}
			pred := zt.PredictEncoded([]*features.Graph{want})[0]
			if ans.LatencyMs != pred.LatencyMs || ans.ThroughputEPS != pred.ThroughputEPS || ans.Degraded {
				t.Fatalf("plan %d %s: served %+v, Place and Encode's graph predicts %+v", i, name, ans, pred)
			}
		}
		// A plan placed by hand or with NoChain entries encodes to another
		// graph: were the encoder to pass over its placement or its NoChain
		// entries, the check above would fail.
		if fps["placed by hand"] == fps["unplaced"] || (len(noChain.NoChain) > 0 && fps["no_chain"] == fps["unplaced"]) {
			t.Fatalf("plan %d: a plan placed by hand or with NoChain entries encodes like the unplaced one", i)
		}
		if fps["placed"] != fps["unplaced"] || fps["partly placed"] != fps["unplaced"] {
			t.Fatalf("plan %d: the round-robin placement encodes unlike the unplaced plan", i)
		}
	}
}

// allocWriter is a reusable http.ResponseWriter, so the count below is the
// server's.
type allocWriter struct {
	h      http.Header
	status int
	buf    bytes.Buffer
}

func (w *allocWriter) Header() http.Header         { return w.h }
func (w *allocWriter) WriteHeader(c int)           { w.status = c }
func (w *allocWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }

// coldPredictAllocs is the ceiling on a cold miss's allocations through
// Server.ServeHTTP, the flush loop's share included, per shape of plan: 23,
// 25 and 40 measured plus a slack of 3 for the plans whose slabs outgrow the
// pooled scratch. Every shape encodes into the pooled scratch; the others
// only carry more to decode, a NoChain set or a placement's map and names.
var coldPredictAllocs = map[string]float64{"unplaced": 26, "no_chain": 28, "placed": 43}

// coldShapes turn an unplaced plan into the other shapes a request can take.
var coldShapes = map[string]func(*queryplan.PQP, *cluster.Cluster) error{
	"unplaced": nil,
	"no_chain": func(p *queryplan.PQP, _ *cluster.Cluster) error {
		t, err := p.Query.Analyze()
		if err != nil {
			return err
		}
		for pos, in := range t.In {
			if len(in) == 1 && in[0].Partitioning == queryplan.PartForward {
				p.SetNoChain(t.Ops[pos].ID, true)
			}
		}
		return nil
	},
	"placed": func(p *queryplan.PQP, c *cluster.Cluster) error { return cluster.Place(p, c) },
}

// TestColdPredictAllocCeiling serves distinct plans of each shape, each a miss
// of both caches, and bounds the allocations of one.
func TestColdPredictAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random")
	}
	for name, shape := range coldShapes {
		t.Run(name, func(t *testing.T) {
			s := New(Options{BatchWindow: -1, CacheSize: 64})
			defer s.Close()
			s.Registry().Install(coldModel(t), "m", "")
			const runs = 200
			bodies := shapedBodies(t, 0, 2*runs+1, shape)
			w := &allocWriter{h: make(http.Header)}
			serve := func(r *http.Request) {
				w.status = http.StatusOK
				w.buf.Reset()
				clear(w.h)
				s.ServeHTTP(w, r)
				if w.status != http.StatusOK {
					t.Fatalf("status %d: %s", w.status, w.buf.Bytes())
				}
			}
			for _, body := range bodies[runs+1:] { // grow the pooled scratch
				serve(httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
			}
			reqs := make([]*http.Request, runs+1)
			for i := range reqs {
				reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(bodies[i]))
			}
			defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection would empty the pool
			next := 0
			allocs := testing.AllocsPerRun(runs, func() {
				serve(reqs[next])
				next++
			})
			if snap := s.Snapshot(); snap.BodyHits+snap.Cache.Hits+snap.Cache.Coalesced != 0 {
				t.Fatalf("%d body hits, %+v: every request should miss both caches", snap.BodyHits, snap.Cache)
			}
			t.Logf("%.2f allocations per cold predict", allocs)
			if allocs > coldPredictAllocs[name] {
				t.Errorf("%.2f allocations per cold predict, ceiling %v", allocs, coldPredictAllocs[name])
			}
		})
	}
}

// TestAbandonedScratchIsNotReused: requests that leave while their items are
// queued or in a wedged forward pass — cancelled, or past the deadline — keep
// their scratch out of the pool, so the requests that follow, served while
// the flush loop still reads the abandoned graphs, reuse only released
// scratch and are answered right. Run it with -race.
func TestAbandonedScratchIsNotReused(t *testing.T) {
	zt := coldModel(t)
	s := New(Options{BatchWindow: -1, RequestTimeout: 40 * time.Millisecond, CircuitThreshold: -1})
	defer func() {
		// An item handed back twice wedges the flush loop, and Close with it.
		stopped := make(chan struct{})
		go func() { s.Close(); close(stopped) }()
		select {
		case <-stopped:
		case <-time.After(10 * time.Second):
			t.Error("the flush loop did not stop")
		}
	}()
	s.Registry().Install(zt, "m", "")
	inner := s.batcher.forward
	gate := make(chan struct{})
	var wedged atomic.Bool
	wedged.Store(true)
	s.batcher.SetForward(func(e *ModelEntry, graphs []*features.Graph) ([]gnn.Prediction, error) {
		if wedged.Load() {
			<-gate
		}
		return inner(e, graphs)
	})
	const abandon, later = 24, 48
	bodies := coldBodies(t, 0, abandon+later)

	var wg sync.WaitGroup
	for i, body := range bodies[:abandon] {
		wg.Add(1)
		go func(i int, body []byte) {
			defer wg.Done()
			ctx := context.Background()
			if i%2 == 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, 10*time.Millisecond)
				defer cancel()
			}
			// The deadline degrades the request to the fallback; the
			// cancelled context is a 499 (or a 503 timeout, should the
			// server's deadline come first).
			status, payload := servePost(s, ctx, body)
			var ans PredictResponse
			switch {
			case status == http.StatusOK && json.Unmarshal(payload, &ans) == nil && ans.Degraded:
			case status == StatusClientClosedRequest, status == http.StatusServiceUnavailable:
			default:
				t.Errorf("abandoned request %d: status %d %q", i, status, payload)
			}
		}(i, body)
	}
	wg.Wait()

	wedged.Store(false)
	close(gate)
	for i, body := range bodies[abandon:] {
		wg.Add(1)
		go func(i int, body []byte) {
			defer wg.Done()
			status, payload := servePost(s, context.Background(), body)
			var req PredictRequest
			var ans PredictResponse
			if status != http.StatusOK || json.Unmarshal(payload, &ans) != nil || ans.Degraded || json.Unmarshal(body, &req) != nil {
				t.Errorf("later request %d: status %d %q", i, status, payload)
				return
			}
			c, err := req.Cluster.Build()
			if err != nil {
				t.Error(err)
				return
			}
			want, err := zt.Predict(context.Background(), req.Plan, c)
			if err != nil {
				t.Error(err)
				return
			}
			if ans.LatencyMs != want.LatencyMs || ans.ThroughputEPS != want.ThroughputEPS {
				t.Errorf("later request %d: served %+v, the model predicts %+v", i, ans, want)
			}
		}(i, body)
	}
	wg.Wait()
}
