package gnn

import (
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"zerotune/internal/cluster"
	"zerotune/internal/features"
	"zerotune/internal/queryplan"
	"zerotune/internal/tensor"
)

// corpusQueries builds a structurally diverse query set: the three benchmark
// templates (seen structures) plus synthetic linear / chained-filter /
// n-way-join plans (unseen structures).
func corpusQueries() []*queryplan.Query {
	src := queryplan.SourceSpec{EventRate: 12_000, TupleWidth: 3, DataType: queryplan.TypeInt}
	filt := queryplan.FilterSpec{Func: queryplan.CmpGT, LiteralClass: queryplan.TypeInt, Selectivity: 0.6}
	agg := queryplan.AggSpec{
		Func: queryplan.AggSum, Class: queryplan.TypeInt, KeyClass: queryplan.TypeInt, Selectivity: 0.3,
		Window: queryplan.WindowSpec{Type: queryplan.WindowTumbling, Policy: queryplan.PolicyCount, Length: 50},
	}
	join := queryplan.JoinSpec{
		KeyClass: queryplan.TypeInt, Selectivity: 0.05,
		Window: queryplan.WindowSpec{Type: queryplan.WindowTumbling, Policy: queryplan.PolicyTime, Length: 1000},
	}
	return []*queryplan.Query{
		queryplan.SpikeDetection(10_000),
		queryplan.SmartGridLocal(20_000),
		queryplan.SmartGridGlobal(30_000),
		queryplan.Linear(src, filt, agg),
		queryplan.ChainedFilters(3, src, []queryplan.FilterSpec{filt, filt, filt}),
		queryplan.NWayJoin(2,
			[]queryplan.SourceSpec{src, src},
			[]queryplan.FilterSpec{filt, filt},
			[]queryplan.JoinSpec{join},
			agg),
	}
}

// corpusGraphs encodes each corpus query at several parallelism degrees on
// seen and unseen clusters, yielding a mixed-topology batch.
func corpusGraphs(tb testing.TB) []*features.Graph {
	tb.Helper()
	seen, err := cluster.New(4, cluster.SeenTypes(), 10)
	if err != nil {
		tb.Fatal(err)
	}
	unseen, err := cluster.New(3, cluster.UnseenTypes(), 25)
	if err != nil {
		tb.Fatal(err)
	}
	var graphs []*features.Graph
	for qi, q := range corpusQueries() {
		for v := 0; v < 3; v++ {
			c := seen
			if qi%2 == 1 {
				c = unseen
			}
			p := queryplan.NewPQP(q)
			for _, op := range q.Ops {
				p.SetDegree(op.ID, 1+(qi+v+op.ID)%6)
			}
			if err := cluster.Place(p, c); err != nil {
				tb.Fatal(err)
			}
			g, err := features.Encode(p, c, features.MaskAll)
			if err != nil {
				tb.Fatal(err)
			}
			graphs = append(graphs, g)
		}
	}
	return graphs
}

// TestCompiledF64BitIdentical: the float64 fused engine must reproduce the
// reference forward bit for bit on every graph, across seen and unseen
// structures, in a single mixed-topology batch.
func TestCompiledF64BitIdentical(t *testing.T) {
	m := New(tensor.NewRNG(11), DefaultConfig())
	cm, err := Compile(m, features.MaskAll, CompileOptions{Engine: EngineF64})
	if err != nil {
		t.Fatalf("Compile(f64): %v", err)
	}
	if cm.Gate.MaxQErr != 1 {
		t.Errorf("f64 gate q-error = %v, want exactly 1", cm.Gate.MaxQErr)
	}
	graphs := corpusGraphs(t)
	got := cm.PredictBatch(graphs)
	for i, g := range graphs {
		want := m.Predict(g)
		if got[i] != want {
			t.Errorf("graph %d (%s): fused f64 %+v != reference %+v", i, g.Template, got[i], want)
		}
	}
	// Single-graph path too.
	for i, g := range graphs[:4] {
		if p := cm.Predict(g); p != m.Predict(g) {
			t.Errorf("graph %d: Predict mismatch %+v", i, p)
		}
	}
}

// TestCompiledF64ReadoutSink covers the ablation read-out mode: the f64
// engine equals Model.Predict bit for bit; the f32 engine stays within the
// gate budget of it and its batched results equal its single-graph ones.
func TestCompiledF64ReadoutSink(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Readout = ReadoutSink
	m := New(tensor.NewRNG(12), cfg)
	graphs := corpusGraphs(t)
	for _, engine := range []Engine{EngineF64, EngineF32} {
		cm, err := Compile(m, features.MaskAll, CompileOptions{Engine: engine})
		if err != nil {
			t.Fatalf("Compile(%v, sink): %v", engine, err)
		}
		batched := cm.PredictBatch(graphs)
		for i, g := range graphs {
			got, want := cm.Predict(g), m.Predict(g)
			if batched[i] != got {
				t.Errorf("%v graph %d: sink readout batched %+v != single %+v", engine, i, batched[i], got)
			}
			if engine == EngineF64 {
				if got != want {
					t.Errorf("graph %d: sink readout fused %+v != reference %+v", i, got, want)
				}
				continue
			}
			if q := max(qerr(want.LatencyMs, got.LatencyMs), qerr(want.ThroughputEPS, got.ThroughputEPS)); q > 1+DefaultGateThreshold {
				t.Errorf("graph %d: sink readout f32 q-error %v vs reference (%+v vs %+v)", i, q, got, want)
			}
		}
	}
}

// TestCompiledF32WithinGate: the float32 engine must pass the default 1%
// accuracy gate and stay within it on an independent corpus.
func TestCompiledF32WithinGate(t *testing.T) {
	m := New(tensor.NewRNG(13), DefaultConfig())
	cm, err := Compile(m, features.MaskAll, CompileOptions{})
	if err != nil {
		t.Fatalf("Compile(f32): %v", err)
	}
	if cm.Engine != EngineF32 {
		t.Fatalf("default engine = %v, want f32", cm.Engine)
	}
	if cm.Gate.MaxQErr > 1+DefaultGateThreshold {
		t.Fatalf("gate q-error %v exceeds default budget", cm.Gate.MaxQErr)
	}
	graphs := corpusGraphs(t)
	got := cm.PredictBatch(graphs)
	for i, g := range graphs {
		want := m.Predict(g)
		for _, pair := range [][2]float64{
			{want.LatencyMs, got[i].LatencyMs},
			{want.ThroughputEPS, got[i].ThroughputEPS},
		} {
			if q := qerr(pair[0], pair[1]); q > 1+DefaultGateThreshold {
				t.Errorf("graph %d (%s): f32 q-error %v vs reference (%v vs %v)",
					i, g.Template, q, pair[1], pair[0])
			}
		}
	}
}

// TestCompiledF32PortableKernel: every vector kernel this CPU has must
// produce near-identical results to the portable Go kernel (which still passes
// the gate), so non-amd64 builds share the tested numerics — and the vector
// kernels must agree with each other exactly, so a prediction does not depend
// on which of them a CPU selects.
func TestCompiledF32PortableKernel(t *testing.T) {
	m := New(tensor.NewRNG(14), DefaultConfig())
	cm, err := Compile(m, features.MaskAll, CompileOptions{})
	if err != nil {
		t.Fatalf("Compile(f32): %v", err)
	}
	graphs := append(corpusGraphs(t), sweepGraphs(t, 25)...)
	defer tensor.SetSIMD(tensor.SetSIMD("portable"))
	slow := cm.PredictBatch(graphs)
	var vector []Prediction
	for _, kernel := range []string{"avx2", "avx512"} {
		if tensor.SetSIMD(kernel); tensor.Kernel() != kernel {
			t.Logf("this CPU has no %s kernel", kernel)
			continue
		}
		fast := cm.PredictBatch(graphs)
		for i := range graphs {
			for _, pair := range [][2]float64{
				{fast[i].LogLatency, slow[i].LogLatency},
				{fast[i].LogThroughput, slow[i].LogThroughput},
			} {
				if d := math.Abs(pair[0] - pair[1]); d > 1e-4 {
					t.Errorf("graph %d: %s/portable drift %v (%v vs %v)", i, kernel, d, pair[0], pair[1])
				}
			}
			if vector != nil && fast[i] != vector[i] {
				t.Errorf("graph %d: %s predicts %+v, the narrower vector kernel %+v", i, kernel, fast[i], vector[i])
			}
		}
		vector = fast
	}
}

// TestCompiledGateRejectsCorruptedModel: an honestly compiled model passes the
// default gate; the same engine with one f32 weight matrix scaled ×64
// (simulating a damaged conversion) must be refused by it.
func TestCompiledGateRejectsCorruptedModel(t *testing.T) {
	m := New(tensor.NewRNG(15), DefaultConfig())
	cm, err := Compile(m, features.MaskAll, CompileOptions{})
	if err != nil {
		t.Fatalf("honest f32 refused: %v", err)
	}
	// The resource combiner: corrupting it leaves the q-error finite, so the
	// gate measures the damage rather than just seeing +Inf.
	for i := range cm.f32.combineRes[0].w.data {
		cm.f32.combineRes[0].w.data[i] *= 64
	}
	err = cm.gate(features.MaskAll)
	if !errors.Is(err, ErrAccuracyGate) {
		t.Fatalf("corrupted f32 layer: got err %v, want ErrAccuracyGate", err)
	}
	if math.IsInf(cm.Gate.MaxQErr, 0) {
		t.Errorf("corrupted gate q-error %v, want finite", cm.Gate.MaxQErr)
	}
}

// TestCompiledZeroAlloc: steady-state fused inference must not allocate —
// batch, single-graph, and mixed-topology paths, for both instantiations of
// the schedule.
func TestCompiledZeroAlloc(t *testing.T) {
	m := New(tensor.NewRNG(17), DefaultConfig())
	graphs := append(corpusGraphs(t), sweepGraphs(t, 25)...)
	for _, engine := range []Engine{EngineF32, EngineF64} {
		cm, err := Compile(m, features.MaskAll, CompileOptions{Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]Prediction, 0, len(graphs))
		dst = cm.PredictBatchInto(dst, graphs) // warm the scratch pool
		if n := testing.AllocsPerRun(20, func() {
			dst = cm.PredictBatchInto(dst, graphs)
		}); n != 0 {
			t.Errorf("%v: PredictBatchInto allocs/op = %v, want 0", engine, n)
		}
		g := graphs[0]
		cm.Predict(g)
		if n := testing.AllocsPerRun(20, func() {
			cm.Predict(g)
		}); n != 0 {
			t.Errorf("%v: Predict allocs/op = %v, want 0", engine, n)
		}
	}
}

// TestCompiledScratchDropsGraphs: the fused scratch sits in a free list that
// is never drained, so a graph pointer left in it (a bucket's graph list, the
// single-graph slot) keeps the caller's last batch alive for good — and, once
// graphs share an arena, every slab of it.
func TestCompiledScratchDropsGraphs(t *testing.T) {
	cm, err := Compile(New(tensor.NewRNG(24), DefaultConfig()), features.MaskAll, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for name, predict := range map[string]func(*features.Graph){
		"PredictBatchInto": func(g *features.Graph) { cm.PredictBatchInto(nil, []*features.Graph{g}) },
		"Predict":          func(g *features.Graph) { cm.Predict(g) },
	} {
		collected := make(chan struct{})
		func() {
			g := sweepGraphs(t, 1)[0]
			runtime.SetFinalizer(g, func(*features.Graph) { close(collected) })
			predict(g)
		}()
		runtime.GC()
		runtime.GC()
		select {
		case <-collected:
		case <-time.After(5 * time.Second):
			t.Errorf("%s: the graph is still reachable after the call returned", name)
		}
	}
}

// TestCompileLeavesNoScratch: the gate's validation batch runs through the
// engine's scratch free list, which is never drained; an engine fresh from
// Compile must not carry that scratch into serving.
func TestCompileLeavesNoScratch(t *testing.T) {
	m := New(tensor.NewRNG(25), DefaultConfig())
	for _, engine := range []Engine{EngineF32, EngineF64} {
		cm, err := Compile(m, features.MaskAll, CompileOptions{Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(cm.scratch.free); n != 0 {
			t.Errorf("%v: %d scratches on the free list after Compile, want 0", engine, n)
		}
	}
}

// TestCompiledBucketOrder: predictions come back in input order regardless
// of how the batch buckets, including duplicate graphs.
func TestCompiledBucketOrder(t *testing.T) {
	m := New(tensor.NewRNG(18), DefaultConfig())
	cm, err := Compile(m, features.MaskAll, CompileOptions{Engine: EngineF64})
	if err != nil {
		t.Fatal(err)
	}
	graphs := corpusGraphs(t)
	// Interleave so same-structure graphs are scattered through the batch.
	shuffled := make([]*features.Graph, 0, 2*len(graphs))
	for i := range graphs {
		shuffled = append(shuffled, graphs[i], graphs[len(graphs)-1-i])
	}
	got := cm.PredictBatch(shuffled)
	for i, g := range shuffled {
		if want := m.Predict(g); got[i] != want {
			t.Errorf("position %d: got %+v, want %+v", i, got[i], want)
		}
	}
}

// TestCompiledRaggedBucket: graphs of one operator topology share one bucket
// whatever their resource counts and mapping edges — a tuning sweep's
// candidates do — and sharing must not move a bit: the f64 engine equals
// Model.Predict and the f32 engine equals its own single-graph prediction,
// with the sweep interleaved among other topologies and large enough to split
// into several groups.
func TestCompiledRaggedBucket(t *testing.T) {
	sweep := sweepGraphs(t, 27)
	resCounts, mappings := map[int]bool{}, map[int]bool{}
	for _, g := range sweep {
		resCounts[len(g.ResNodes)] = true
		mappings[len(g.Mapping)] = true
	}
	if len(resCounts) < 3 || len(mappings) < 3 {
		t.Fatalf("sweep is not ragged: resource counts %v, mapping sizes %v", resCounts, mappings)
	}
	others := corpusGraphs(t)
	var mixed []*features.Graph
	for i, g := range sweep {
		mixed = append(mixed, g, others[i%len(others)])
	}

	m := New(tensor.NewRNG(23), DefaultConfig())
	for _, engine := range []Engine{EngineF64, EngineF32} {
		cm, err := Compile(m, features.MaskAll, CompileOptions{Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		cm.PredictBatch(sweep)
		if graphs, buckets := cm.FusedCounts(); graphs != uint64(len(sweep)) || buckets != 1 {
			t.Fatalf("%v: sweep of %d graphs counted as %d graphs in %d buckets, want 1 bucket",
				engine, len(sweep), graphs, buckets)
		}
		got := cm.PredictBatch(mixed)
		for i, g := range mixed {
			want := cm.Predict(g)
			if engine == EngineF64 {
				want = m.Predict(g)
			}
			if got[i] != want {
				t.Errorf("%v: position %d (%s): batched %+v != reference %+v", engine, i, g.Template, got[i], want)
			}
		}
	}
}

// TestCompiledValidatesModel: a broken model must be refused before any
// weight conversion happens.
func TestCompiledValidatesModel(t *testing.T) {
	m := New(tensor.NewRNG(19), DefaultConfig())
	m.LatHead.Layers[0].W.Data[0] = math.NaN()
	if _, err := Compile(m, features.MaskAll, CompileOptions{}); err == nil {
		t.Fatal("Compile accepted a NaN model")
	}
}
