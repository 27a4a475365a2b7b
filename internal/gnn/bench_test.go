package gnn

import (
	"fmt"
	"testing"

	"zerotune/internal/cluster"
	"zerotune/internal/features"
	"zerotune/internal/queryplan"
	"zerotune/internal/tensor"
	"zerotune/internal/workload"
)

// benchGraphs builds a candidate-sweep-shaped batch: two queries at many
// parallelism assignments placed on one cluster, alternating — what the
// optimizer feeds PredictBatch, with two operator topologies sharing every
// pass of the fused engine.
func benchGraphs(tb testing.TB, n int) []*features.Graph {
	tb.Helper()
	c, err := cluster.New(4, cluster.SeenTypes(), 10)
	if err != nil {
		tb.Fatal(err)
	}
	queries := []*queryplan.Query{
		queryplan.SpikeDetection(10_000),
		queryplan.SmartGridLocal(20_000),
	}
	graphs := make([]*features.Graph, 0, n)
	for i := 0; len(graphs) < n; i++ {
		q := queries[i%len(queries)]
		p := queryplan.NewPQP(q)
		for _, op := range q.Ops {
			p.SetDegree(op.ID, 1+(i+op.ID)%8)
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
	return graphs
}

// sweepGraphs builds n candidates of one query — one operator topology — at n
// different degree vectors on a six-node cluster, so resource counts and
// mapping edges vary from graph to graph the way a tuning sweep's do.
func sweepGraphs(tb testing.TB, n int) []*features.Graph {
	tb.Helper()
	c, err := cluster.New(6, cluster.SeenTypes(), 10)
	if err != nil {
		tb.Fatal(err)
	}
	q := queryplan.SmartGridLocal(20_000)
	topo, err := q.Analyze()
	if err != nil {
		tb.Fatal(err)
	}
	enc := features.NewEncoder(topo, c, features.MaskAll)
	graphs := make([]*features.Graph, n)
	for i := range graphs {
		p := queryplan.NewPQP(q)
		for _, op := range q.Ops {
			p.SetDegree(op.ID, 1+(i*(op.ID+1)+op.ID)%(1+i%11))
		}
		if graphs[i], err = enc.Encode(p); err != nil {
			tb.Fatal(err)
		}
	}
	return graphs
}

// mixedGraphs builds n graphs drawn round-robin from the named workload
// structures: the seen and benchmark ones sampled from the training grid on
// seen hardware, the others from the testing grid on unseen hardware, every
// graph at its own degree vector on its own cluster — a batch of the mixed
// topologies a cold predict workload brings the batcher.
func mixedGraphs(tb testing.TB, structures []string, n int) []*features.Graph {
	tb.Helper()
	seen, unseen := workload.NewSeenGenerator(3), workload.NewUnseenGenerator(3)
	unseenNames := map[string]bool{}
	for _, s := range workload.UnseenRanges().Structures {
		unseenNames[s] = true
	}
	graphs := make([]*features.Graph, n)
	for i := range graphs {
		name := structures[i%len(structures)]
		gen := seen
		if unseenNames[name] {
			gen = unseen
		}
		q, c, err := gen.SampleQuery(name, uint64(i))
		if err != nil {
			tb.Fatal(err)
		}
		p := queryplan.NewPQP(q)
		for _, op := range q.Ops {
			p.SetDegree(op.ID, 1+(i+op.ID)%6)
		}
		if err := cluster.Place(p, c); err != nil {
			tb.Fatal(err)
		}
		if graphs[i], err = features.Encode(p, c, features.MaskAll); err != nil {
			tb.Fatal(err)
		}
	}
	return graphs
}

func benchModel() *Model {
	return New(tensor.NewRNG(7), DefaultConfig())
}

// BenchmarkPredictBatch measures forward-pass throughput of the production
// batched inference path — the compiled fused engine — over a 64-plan
// candidate sweep, the optimizer's and the serve batcher's hot loop.
// Reported in graphs/sec.
func BenchmarkPredictBatch(b *testing.B) {
	m := benchModel()
	cm, err := Compile(m, features.MaskAll, CompileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	graphs := benchGraphs(b, 64)
	dst := make([]Prediction, 0, len(graphs))
	dst = cm.PredictBatchInto(dst, graphs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = cm.PredictBatchInto(dst, graphs)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(graphs))/b.Elapsed().Seconds(), "graphs/sec")
}

// BenchmarkPredictCompiledSingle measures one-graph latency through the
// compiled engine (scratch pool warm).
func BenchmarkPredictCompiledSingle(b *testing.B) {
	m := benchModel()
	cm, err := Compile(m, features.MaskAll, CompileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	g := benchGraphs(b, 1)[0]
	cm.Predict(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.Predict(g)
	}
}

// BenchmarkPredictSingle measures one-graph latency of the reference
// per-graph forward pass (trace reused across iterations).
func BenchmarkPredictSingle(b *testing.B) {
	m := benchModel()
	g := benchGraphs(b, 1)[0]
	tr := &trace{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.forwardInto(tr, g)
	}
}

// BenchmarkPredictSweep measures the fused engine on what a tuning sweep
// hands it: n graphs of one operator topology with n different mappings. A
// batch runs in near-equal passes of at most passCap graphs, so us/graph
// against n shows what the cap costs a sweep: n ≤ 8 is one pass, 12 and 16
// two, 24 three, 48 six.
func BenchmarkPredictSweep(b *testing.B) {
	cm, err := Compile(benchModel(), features.MaskAll, CompileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1, 2, 4, 8, 12, 16, 24, 48} {
		b.Run(fmt.Sprintf("graphs=%d", n), func(b *testing.B) {
			graphs := sweepGraphs(b, n)
			dst := cm.PredictBatchInto(make([]Prediction, 0, n), graphs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = cm.PredictBatchInto(dst, graphs)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*n), "us/graph")
		})
	}
}

// BenchmarkPredictMixed measures the fused engine on the batches a cold
// predict workload hands the batcher: graphs drawn round-robin from the seen
// and unseen topologies (3 to 10 operators), alone, five at a time — the
// serve tier's mean batch under load — and 64, the batcher's cap.
func BenchmarkPredictMixed(b *testing.B) {
	cm, err := Compile(benchModel(), features.MaskAll, CompileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	structures := append(workload.SeenRanges().Structures, workload.UnseenRanges().Structures...)
	for _, n := range []int{1, 5, 64} {
		b.Run(fmt.Sprintf("graphs=%d", n), func(b *testing.B) {
			graphs := mixedGraphs(b, structures, n)
			dst := cm.PredictBatchInto(make([]Prediction, 0, n), graphs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = cm.PredictBatchInto(dst, graphs)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*n), "us/graph")
		})
	}
}
