package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"zerotune/internal/artifact"
	"zerotune/internal/cluster"
	"zerotune/internal/features"
	"zerotune/internal/gnn"
	"zerotune/internal/metrics"
	"zerotune/internal/optimizer"
	"zerotune/internal/queryplan"
	"zerotune/internal/simulator"
	"zerotune/internal/tensor"
	"zerotune/internal/workload"
)

// smallTrained trains a small model on a small workload; shared across
// tests via t.Helper-style lazy init (kept simple: retrain per test where
// needed, tests below reuse this one fixture).
func smallTrained(t *testing.T, n int, epochs int) (*ZeroTune, *workload.Dataset) {
	t.Helper()
	gen := workload.NewSeenGenerator(11)
	items, err := gen.Generate(workload.SeenRanges().Structures, n)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := workload.Split(items, 0.8, 0.1, 12)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultTrainOptions()
	opts.Hidden, opts.EncDepth, opts.HeadHidden = 24, 1, 24
	opts.Epochs = epochs
	zt, _, err := Train(context.Background(), ds.Train, opts)
	if err != nil {
		t.Fatal(err)
	}
	return zt, ds
}

func TestTrainRejectsEmpty(t *testing.T) {
	if _, _, err := Train(context.Background(), nil, DefaultTrainOptions()); err == nil {
		t.Fatal("accepted empty training set")
	}
}

func TestTrainPredictLearns(t *testing.T) {
	// A deliberately small smoke-scale run: the wide OptiSample exploration
	// makes the label distribution heavy-tailed, so the bar here is loose;
	// the experiments suite validates real accuracy at full scale.
	zt, ds := smallTrained(t, 500, 30)
	latQ, tptQ, err := zt.QErrors(ds.Test)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Median(latQ) > 8 {
		t.Fatalf("latency median q-error %v after training", metrics.Median(latQ))
	}
	if metrics.Median(tptQ) > 8 {
		t.Fatalf("throughput median q-error %v after training", metrics.Median(tptQ))
	}
}

func TestPredictAutoPlaces(t *testing.T) {
	zt, _ := smallTrained(t, 60, 5)
	q := queryplan.SpikeDetection(5000)
	p := queryplan.NewPQP(q)
	c, _ := cluster.New(2, cluster.SeenTypes(), 10)
	pred, err := zt.Predict(context.Background(), p, c) // no placement yet
	if err != nil {
		t.Fatal(err)
	}
	if pred.LatencyMs <= 0 || pred.ThroughputEPS <= 0 {
		t.Fatalf("bad prediction %+v", pred)
	}
}

// TestPredictLeavesThePlanAlone: Predict and PredictBatch price a plan
// without a complete placement as cluster.Place would place it, and leave
// the plan as it was: no placement, a nil one, or a partial one stays so.
func TestPredictLeavesThePlanAlone(t *testing.T) {
	zt := &ZeroTune{Model: gnn.New(tensor.NewRNG(37), gnn.DefaultConfig()), Mask: features.MaskAll}
	if err := zt.Compile(gnn.CompileOptions{}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := queryplan.SmartGridGlobal(30_000)
	c, err := cluster.New(3, cluster.SeenTypes(), 10)
	if err != nil {
		t.Fatal(err)
	}
	unplaced := queryplan.NewPQP(q)
	for _, op := range q.Ops {
		unplaced.SetDegree(op.ID, 2+op.ID%3)
	}
	decoded := unplaced.Clone()
	decoded.Placement = nil
	partly := unplaced.Clone()
	if err := cluster.Place(partly, c); err != nil {
		t.Fatal(err)
	}
	partly.Placement = map[int][]string{q.Ops[0].ID: partly.Placement[q.Ops[0].ID]}
	plans := []*queryplan.PQP{unplaced, decoded, partly}
	before := make([]*queryplan.PQP, len(plans))
	placed := make([]*queryplan.PQP, len(plans))
	for i, p := range plans {
		before[i], placed[i] = p.Clone(), p.Clone()
		if p.Placement == nil {
			before[i].Placement = nil
		}
		if err := cluster.Place(placed[i], c); err != nil {
			t.Fatal(err)
		}
	}
	want, err := zt.PredictBatch(ctx, placed, c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := zt.PredictBatch(ctx, plans, c)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range plans {
		one, err := zt.Predict(ctx, p, c)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want[i] || one != want[i] {
			t.Errorf("plan %d: PredictBatch %+v, Predict %+v; placed by cluster.Place %+v", i, got[i], one, want[i])
		}
		if !reflect.DeepEqual(p, before[i]) {
			t.Errorf("plan %d: predicting wrote the plan: placement %v, was %v", i, p.Placement, before[i].Placement)
		}
	}
}

func TestTuneReturnsValidPlan(t *testing.T) {
	zt, _ := smallTrained(t, 60, 5)
	q := queryplan.SpikeDetection(100_000)
	c, _ := cluster.New(4, cluster.SeenTypes(), 10)
	res, err := zt.Tune(context.Background(), q, c, optimizer.DefaultTuneOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Plan.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Candidates < 5 {
		t.Fatalf("candidates %d", res.Candidates)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	zt, ds := smallTrained(t, 60, 5)
	var buf bytes.Buffer
	if err := zt.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := zt.QErrors(ds.Test[:3])
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := loaded.QErrors(ds.Test[:3])
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("loaded model predicts differently")
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("{not json")); err == nil {
		t.Fatal("accepted garbage")
	}
	if _, err := Load(strings.NewReader(`{"mask":0}`)); err == nil {
		t.Fatal("accepted payload without model")
	}
}

func TestFineTuneImprovesOnTarget(t *testing.T) {
	zt, _ := smallTrained(t, 200, 15)
	// Fine-tune on a structure the model never saw.
	gen := workload.NewSeenGenerator(13)
	few, err := gen.Generate([]string{"2-chained-filters"}, 80)
	if err != nil {
		t.Fatal(err)
	}
	test, err := workload.NewSeenGenerator(14).Generate([]string{"2-chained-filters"}, 40)
	if err != nil {
		t.Fatal(err)
	}
	before, _, err := zt.QErrors(test)
	if err != nil {
		t.Fatal(err)
	}
	cfg := FewShotTrainOptions()
	cfg.Epochs = 15
	if _, err := zt.FineTune(context.Background(), few, cfg); err != nil {
		t.Fatal(err)
	}
	after, _, err := zt.QErrors(test)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Median(after) > metrics.Median(before)*1.5 {
		t.Fatalf("few-shot hurt badly: before %v after %v", metrics.Median(before), metrics.Median(after))
	}
}

func TestFineTuneRejectsEmpty(t *testing.T) {
	zt, _ := smallTrained(t, 60, 3)
	if _, err := zt.FineTune(context.Background(), nil, FewShotTrainOptions()); err == nil {
		t.Fatal("accepted empty fine-tune set")
	}
}

func TestTrainWithMask(t *testing.T) {
	gen := workload.NewSeenGenerator(15)
	items, err := gen.Generate([]string{"linear"}, 60)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultTrainOptions()
	opts.Hidden, opts.EncDepth, opts.HeadHidden = 16, 1, 16
	opts.Epochs = 3
	opts.Mask = features.MaskOperatorOnly
	zt, _, err := Train(context.Background(), items, opts)
	if err != nil {
		t.Fatal(err)
	}
	if zt.Mask != features.MaskOperatorOnly {
		t.Fatal("mask not recorded")
	}
	// QErrors must re-encode with the same mask without error.
	if _, _, err := zt.QErrors(items[:5]); err != nil {
		t.Fatal(err)
	}
}

// TestCompileGatesUnderTheTrainedMask: the accuracy gate compares the engines
// on the inputs the model serves, encoded under its own mask. An
// operator-only model never sees a resource feature, so the weights that read
// them are never trained; scaled until unmasked inputs overflow, they must not
// matter to its gate, nor to loading its file.
func TestCompileGatesUnderTheTrainedMask(t *testing.T) {
	items, err := workload.NewSeenGenerator(15).Generate([]string{"linear"}, 40)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultTrainOptions()
	opts.Hidden, opts.EncDepth, opts.HeadHidden = 8, 1, 8
	opts.Epochs = 1
	opts.Mask = features.MaskOperatorOnly
	zt, _, err := Train(context.Background(), items, opts)
	if err != nil {
		t.Fatal(err)
	}
	w := zt.Model.EncRes.Layers[0].W.Data
	for i := range w {
		w[i] *= 1e20
	}
	// The premise: shown every feature, this model overflows.
	if _, err := gnn.Compile(zt.Model, features.MaskAll, gnn.CompileOptions{}); !errors.Is(err, gnn.ErrAccuracyGate) {
		t.Fatalf("compile under MaskAll: err = %v, want the accuracy gate's refusal", err)
	}
	if err := zt.Compile(gnn.CompileOptions{}); err != nil {
		t.Fatalf("compile under the trained mask: %v", err)
	}
	if g := zt.Compiled().Gate; g.Engine != gnn.EngineF32 || !(g.MaxQErr <= 1+g.Threshold) {
		t.Errorf("gate report %+v, want a finite f32 verdict within budget", g)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := zt.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err != nil {
		t.Errorf("load of the operator-only model file: %v", err)
	}
}

func TestEstimatorInterface(t *testing.T) {
	zt, _ := smallTrained(t, 60, 3)
	est := zt.Estimator()
	q := queryplan.SmartGridLocal(10_000)
	p := queryplan.NewPQP(q)
	c, _ := cluster.New(2, cluster.SeenTypes(), 10)
	if err := cluster.Place(p, c); err != nil {
		t.Fatal(err)
	}
	e, err := est.Estimate(context.Background(), p, c)
	if err != nil {
		t.Fatal(err)
	}
	if e.LatencyMs <= 0 || e.ThroughputEPS <= 0 {
		t.Fatalf("bad estimate %+v", e)
	}
}

func TestFineTuneMetricBusyCores(t *testing.T) {
	zt, ds := smallTrained(t, 400, 20)
	metric, err := zt.FineTuneMetric(context.Background(), "busy-cores", ds.Train, func(it *workload.Item) float64 {
		res, err := simulator.Simulate(it.Plan.Clone(), it.Cluster, simulator.Options{DisableNoise: true})
		if err != nil {
			t.Fatal(err)
		}
		return res.BusyCores + 0.1
	}, DefaultTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	if metric.Name() != "busy-cores" {
		t.Fatal("metric name lost")
	}
	// Evaluate on held-out items: predictions must correlate with truth
	// (median q-error bounded).
	var qs []float64
	for _, it := range ds.Test[:20] {
		pred, err := metric.Predict(context.Background(), it.Plan, it.Cluster)
		if err != nil {
			t.Fatal(err)
		}
		truth, err := simulator.Simulate(it.Plan.Clone(), it.Cluster, simulator.Options{DisableNoise: true})
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, metrics.QError(truth.BusyCores+0.1, pred))
	}
	if med := metrics.Median(qs); med > 6 {
		t.Fatalf("busy-cores median q-error %v", med)
	}
}

func TestFineTuneMetricValidation(t *testing.T) {
	zt, ds := smallTrained(t, 60, 3)
	if _, err := zt.FineTuneMetric(context.Background(), "x", ds.Train, nil, DefaultTrainOptions()); err == nil {
		t.Fatal("accepted nil extractor")
	}
}

func TestLoadRejectsTruncatedBytes(t *testing.T) {
	zt, _ := smallTrained(t, 60, 3)
	var buf bytes.Buffer
	if err := zt.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Every truncation point must produce an error, never a panic or a
	// silently-broken model.
	for _, frac := range []float64{0, 0.25, 0.5, 0.9, 0.999} {
		cut := int(float64(len(data)) * frac)
		if _, err := Load(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("accepted model truncated to %d of %d bytes", cut, len(data))
		}
	}
}

func TestLoadRejectsStructurallyCorruptModel(t *testing.T) {
	zt, _ := smallTrained(t, 60, 3)

	// Chop the latency head down to its hidden layer: each remaining MLP is
	// internally consistent, so only whole-model validation can catch it.
	model := *zt.Model // a copy, so the chopped head stays off zt
	mangled := &ZeroTune{Model: &model, Mask: zt.Mask}
	headless := *zt.Model.LatHead
	headless.Layers = headless.Layers[:1]
	mangled.Model.LatHead = &headless
	var buf bytes.Buffer
	if err := mangled.Save(&buf); err != nil {
		t.Fatal(err)
	}
	_, err := Load(&buf)
	if err == nil {
		t.Fatal("accepted model with a chopped latency head")
	}
	if !strings.Contains(err.Error(), "core: load model") {
		t.Fatalf("undescriptive error: %v", err)
	}

	// An out-of-range feature mask is rejected too.
	buf.Reset()
	if err := zt.Save(&buf); err != nil {
		t.Fatal(err)
	}
	corrupt := bytes.Replace(buf.Bytes(), []byte(`{"mask":0,`), []byte(`{"mask":42,`), 1)
	if !bytes.Contains(corrupt, []byte(`"mask":42`)) {
		t.Fatal("test setup: mask field not found in serialized model")
	}
	if _, err := Load(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("accepted unknown feature mask")
	}
}

func TestSaveFileLoadFileRoundTrip(t *testing.T) {
	zt, ds := smallTrained(t, 60, 3)
	path := filepath.Join(t.TempDir(), "model.zt")
	if err := zt.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := zt.QErrors(ds.Test[:3])
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := loaded.QErrors(ds.Test[:3])
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("file round-tripped model predicts differently")
		}
	}
}

// TestLoadLegacyBareJSON: the pre-envelope format (bare JSON, no checksum)
// is no longer read. A model file saved that way is rejected as not an
// artifact, by Load and LoadFile alike, rather than decoded unchecked.
func TestLoadLegacyBareJSON(t *testing.T) {
	zt, _ := smallTrained(t, 60, 3)
	legacyBytes, err := json.Marshal(persisted{Mask: zt.Mask, Model: zt.Model})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(legacyBytes)); !errors.Is(err, artifact.ErrNotArtifact) {
		t.Fatalf("Load(bare JSON) = %v, want ErrNotArtifact", err)
	}
	path := filepath.Join(t.TempDir(), "legacy.json")
	if err := os.WriteFile(path, legacyBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); !errors.Is(err, artifact.ErrNotArtifact) {
		t.Fatalf("LoadFile(bare JSON) = %v, want ErrNotArtifact", err)
	}
}

// TestLoadRejectsBitFlippedEnvelope flips a payload byte inside the
// envelope: the checksum must catch it and say so, instead of JSON-decoding
// garbage weights.
func TestLoadRejectsBitFlippedEnvelope(t *testing.T) {
	zt, _ := smallTrained(t, 60, 3)
	var buf bytes.Buffer
	if err := zt.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)/2] ^= 0x20
	_, err := Load(bytes.NewReader(data))
	if err == nil {
		t.Fatal("accepted bit-flipped model file")
	}
	if !errors.Is(err, artifact.ErrChecksum) {
		t.Fatalf("corruption not reported as a checksum mismatch: %v", err)
	}
}

func TestEncodePlanPredictEncodedMatchesPredict(t *testing.T) {
	zt, _ := smallTrained(t, 60, 3)
	c, err := cluster.New(4, cluster.SeenTypes(), 10)
	if err != nil {
		t.Fatal(err)
	}
	var graphs []*features.Graph
	var want []float64
	for _, rate := range []float64{5_000, 20_000, 80_000} {
		p := queryplan.NewPQP(queryplan.SpikeDetection(rate))
		var topo queryplan.Topology
		deg, err := p.AnalyzeIn(&topo, nil)
		if err != nil {
			t.Fatal(err)
		}
		g, err := zt.EncodePlan(context.Background(), new(features.Encoder), new(features.Arena), &topo, p, deg, c)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
		pred, err := zt.Predict(context.Background(), queryplan.NewPQP(queryplan.SpikeDetection(rate)), c)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, pred.LatencyMs)
	}
	preds := zt.PredictEncoded(graphs)
	for i, pred := range preds {
		if pred.LatencyMs != want[i] {
			t.Fatalf("graph %d: PredictEncoded %v != Predict %v", i, pred.LatencyMs, want[i])
		}
	}
}

// TestPredictBatchConcurrent: concurrent sweeps each draw their own arena, so
// every call must return exactly what per-plan Predict calls return — for
// batches of different queries and sizes interleaved on several goroutines,
// one of them too large for its arena to be pooled. Run under -race, which is
// what would see two calls carving from one arena.
func TestPredictBatchConcurrent(t *testing.T) {
	zt := &ZeroTune{Model: gnn.New(tensor.NewRNG(29), gnn.DefaultConfig()), Mask: features.MaskAll}
	if err := zt.Compile(gnn.CompileOptions{}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	gen := workload.NewSeenGenerator(29)
	type sweep struct {
		c     *cluster.Cluster
		plans []*queryplan.PQP
		want  []gnn.Prediction
	}
	var sweeps []sweep
	for i, size := range []int{1, 7, 24, 40, maxPooledSweep + 3} {
		structures := workload.SeenRanges().Structures
		q, c, err := gen.SampleQuery(structures[i%len(structures)], uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		sw := sweep{c: c}
		for j := 0; j < size; j++ {
			p := queryplan.NewPQP(q)
			for _, op := range q.Ops {
				if op.Type != queryplan.OpSource && op.Type != queryplan.OpSink {
					p.SetDegree(op.ID, 1+(j+op.ID)%7)
				}
			}
			pred, err := zt.Predict(ctx, p, c)
			if err != nil {
				t.Fatal(err)
			}
			sw.plans, sw.want = append(sw.plans, p), append(sw.want, pred)
		}
		sweeps = append(sweeps, sw)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				sw := sweeps[(w+round)%len(sweeps)]
				got, err := zt.PredictBatch(ctx, sw.plans, sw.c)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range got {
					if got[i] != sw.want[i] {
						t.Errorf("worker %d, sweep of %d, plan %d: PredictBatch %+v != Predict %+v", w, len(sw.plans), i, got[i], sw.want[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestHandBuiltValueRunsReferenceEngine: a ZeroTune assembled from a bare
// gnn.Model was never compiled. Its first use — here from several goroutines
// at once — installs one float64 reference engine, whose answers are
// Model.Predict's bit for bit.
func TestHandBuiltValueRunsReferenceEngine(t *testing.T) {
	zt := &ZeroTune{Model: gnn.New(tensor.NewRNG(31), gnn.DefaultConfig()), Mask: features.MaskAll}
	engines := make([]*gnn.CompiledModel, 4)
	var wg sync.WaitGroup
	for i := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			engines[i] = zt.Compiled()
		}()
	}
	wg.Wait()
	for _, cm := range engines {
		if cm != engines[0] || cm.Engine != gnn.EngineF64 {
			t.Fatalf("concurrent first uses installed %p (%v), want one f64 engine %p", cm, cm.Engine, engines[0])
		}
	}
	ctx := context.Background()
	c, err := cluster.New(4, cluster.SeenTypes(), 10)
	if err != nil {
		t.Fatal(err)
	}
	p := queryplan.NewPQP(queryplan.SpikeDetection(20_000))
	got, err := zt.Predict(ctx, p, c)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := p.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	g, err := zt.EncodePlan(ctx, new(features.Encoder), new(features.Arena), topo, p, nil, c)
	if err != nil {
		t.Fatal(err)
	}
	if want := zt.Model.Predict(g); got != want {
		t.Fatalf("hand-built value predicts %+v, Model.Predict %+v", got, want)
	}
}
