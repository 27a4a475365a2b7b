package gnn

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"zerotune/internal/cluster"
	"zerotune/internal/features"
	"zerotune/internal/nn"
	"zerotune/internal/queryplan"
	"zerotune/internal/tensor"
)

func testGraph(t *testing.T, join bool, degrees map[int]int) *features.Graph {
	t.Helper()
	var q *queryplan.Query
	if join {
		srcs := []queryplan.SourceSpec{
			{EventRate: 1000, TupleWidth: 3, DataType: queryplan.TypeInt},
			{EventRate: 2000, TupleWidth: 4, DataType: queryplan.TypeDouble},
		}
		filts := []queryplan.FilterSpec{
			{Func: queryplan.CmpGT, LiteralClass: queryplan.TypeInt, Selectivity: 0.8},
			{Func: queryplan.CmpLE, LiteralClass: queryplan.TypeDouble, Selectivity: 0.5},
		}
		joins := []queryplan.JoinSpec{{KeyClass: queryplan.TypeInt, Selectivity: 0.01,
			Window: queryplan.WindowSpec{Type: queryplan.WindowTumbling, Policy: queryplan.PolicyTime, Length: 1000}}}
		agg := queryplan.AggSpec{Func: queryplan.AggSum, Class: queryplan.TypeInt, KeyClass: queryplan.TypeInt,
			Selectivity: 0.3, Window: queryplan.WindowSpec{Type: queryplan.WindowTumbling, Policy: queryplan.PolicyCount, Length: 25}}
		q = queryplan.NWayJoin(2, srcs, filts, joins, agg)
	} else {
		q = queryplan.Linear(
			queryplan.SourceSpec{EventRate: 10_000, TupleWidth: 3, DataType: queryplan.TypeDouble},
			queryplan.FilterSpec{Func: queryplan.CmpLE, LiteralClass: queryplan.TypeDouble, Selectivity: 0.5},
			queryplan.AggSpec{Func: queryplan.AggAvg, Class: queryplan.TypeDouble, KeyClass: queryplan.TypeInt,
				Selectivity: 0.2, Window: queryplan.WindowSpec{Type: queryplan.WindowTumbling, Policy: queryplan.PolicyCount, Length: 50}},
		)
	}
	p := queryplan.NewPQP(q)
	for id, d := range degrees {
		p.SetDegree(id, d)
	}
	c, err := cluster.New(3, cluster.SeenTypes(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Place(p, c); err != nil {
		t.Fatal(err)
	}
	g, err := features.Encode(p, c, features.MaskAll)
	if err != nil {
		t.Fatal(err)
	}
	g.LatencyMs = 12.5
	g.ThroughputEPS = 9000
	return g
}

func smallModel(seed uint64) *Model {
	return New(tensor.NewRNG(seed), Config{Hidden: 6, EncDepth: 1, HeadHidden: 6})
}

func TestForwardShapeAndDeterminism(t *testing.T) {
	g := testGraph(t, false, map[int]int{1: 4})
	m1, m2 := smallModel(3), smallModel(3)
	p1, p2 := m1.Predict(g), m2.Predict(g)
	if p1.LatencyMs != p2.LatencyMs || p1.ThroughputEPS != p2.ThroughputEPS {
		t.Fatal("same seed models disagree")
	}
	if p1.LatencyMs <= 0 || p1.ThroughputEPS <= 0 {
		t.Fatalf("non-positive predictions: %+v", p1)
	}
	if math.IsNaN(p1.LogLatency) || math.IsNaN(p1.LogThroughput) {
		t.Fatal("NaN predictions")
	}
}

func TestPredictionSensitiveToDegrees(t *testing.T) {
	m := smallModel(5)
	a := m.Predict(testGraph(t, false, map[int]int{1: 1}))
	b := m.Predict(testGraph(t, false, map[int]int{1: 16}))
	if a.LogLatency == b.LogLatency {
		t.Fatal("prediction ignores parallelism degree")
	}
}

// Full-model gradient check: the gradients Train's batched step computes for
// one graph must match central finite differences for a sample of parameters
// in every sub-network. An infinite Huber threshold makes the step's loss the
// squared error the finite differences take.
func TestGNNGradientCheck(t *testing.T) {
	for _, join := range []bool{false, true} {
		m := smallModel(11)
		g := testGraph(t, join, map[int]int{1: 3})
		targetLat := LogTarget(g.LatencyMs)
		targetTpt := LogTarget(g.ThroughputEPS)

		lossOf := func() float64 {
			pred := m.Predict(g)
			l1, _ := nn.Huber(pred.LogLatency, targetLat, math.Inf(1))
			l2, _ := nn.Huber(pred.LogThroughput, targetTpt, math.Inf(1))
			return l1 + l2
		}

		newTrainStep(m, 1, math.Inf(1)).run([]*features.Graph{g})

		const h = 1e-6
		params := m.Params()
		checked := 0
		for pi, p := range params {
			// Sample a few entries per tensor to keep the test fast.
			stride := len(p.Value)/3 + 1
			for i := 0; i < len(p.Value); i += stride {
				orig := p.Value[i]
				p.Value[i] = orig + h
				lp := lossOf()
				p.Value[i] = orig - h
				lm := lossOf()
				p.Value[i] = orig
				num := (lp - lm) / (2 * h)
				if math.Abs(num-p.Grad[i]) > 1e-4*(1+math.Abs(num)) {
					t.Fatalf("join=%v param %d[%d]: analytic %v numeric %v", join, pi, i, p.Grad[i], num)
				}
				checked++
			}
		}
		if checked < 20 {
			t.Fatalf("only %d parameters checked", checked)
		}
	}
}

// The model must be able to overfit a handful of graphs (sanity of the
// whole training loop).
func TestTrainOverfitsSmallSet(t *testing.T) {
	graphs := []*features.Graph{
		testGraph(t, false, map[int]int{1: 1}),
		testGraph(t, false, map[int]int{1: 4}),
		testGraph(t, true, map[int]int{1: 2}),
	}
	graphs[0].LatencyMs, graphs[0].ThroughputEPS = 5, 1000
	graphs[1].LatencyMs, graphs[1].ThroughputEPS = 50, 20000
	graphs[2].LatencyMs, graphs[2].ThroughputEPS = 500, 300

	m := New(tensor.NewRNG(7), Config{Hidden: 16, EncDepth: 1, HeadHidden: 16})
	cfg := DefaultTrainConfig()
	cfg.Epochs = 300
	cfg.BatchSize = 3
	cfg.LR = 5e-3
	stats, err := Train(context.Background(), m, graphs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FinalLoss > 0.05 {
		t.Fatalf("failed to overfit: final loss %v", stats.FinalLoss)
	}
	for _, g := range graphs {
		pred := m.Predict(g)
		q := math.Max(pred.LatencyMs/g.LatencyMs, g.LatencyMs/pred.LatencyMs)
		if q > 2 {
			t.Fatalf("latency q-error %v after overfit", q)
		}
	}
}

func TestTrainRejectsBadInput(t *testing.T) {
	m := smallModel(1)
	if _, err := Train(context.Background(), m, nil, DefaultTrainConfig()); err == nil {
		t.Fatal("accepted empty training set")
	}
	g := testGraph(t, false, nil)
	bad := DefaultTrainConfig()
	bad.Epochs = 0
	if _, err := Train(context.Background(), m, []*features.Graph{g}, bad); err == nil {
		t.Fatal("accepted zero epochs")
	}
}

func TestTrainDeterministic(t *testing.T) {
	graphs := []*features.Graph{testGraph(t, false, nil), testGraph(t, true, nil)}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 5
	run := func() float64 {
		m := smallModel(9)
		stats, err := Train(context.Background(), m, graphs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return stats.FinalLoss
	}
	if run() != run() {
		t.Fatal("training not deterministic")
	}
}

func TestModelSerializationRoundTrip(t *testing.T) {
	m := smallModel(17)
	g := testGraph(t, true, map[int]int{1: 2})
	want := m.Predict(g)

	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var m2 Model
	if err := json.Unmarshal(data, &m2); err != nil {
		t.Fatal(err)
	}
	got := m2.Predict(g)
	if got.LogLatency != want.LogLatency || got.LogThroughput != want.LogThroughput {
		t.Fatal("round trip changed predictions")
	}
}

func TestModelUnmarshalRejectsIncomplete(t *testing.T) {
	var m Model
	if err := json.Unmarshal([]byte(`{"cfg":{"Hidden":4}}`), &m); err == nil {
		t.Fatal("accepted model without encoders")
	}
}

func TestLogTarget(t *testing.T) {
	if math.Abs(LogTarget(999.999)-3) > 1e-6 {
		t.Fatalf("LogTarget(1000) = %v", LogTarget(999.999))
	}
	if math.IsInf(LogTarget(0), -1) {
		t.Fatal("LogTarget(0) must be finite")
	}
}

func TestNumParamsPositive(t *testing.T) {
	m := smallModel(19)
	if m.NumParams() < 500 {
		t.Fatalf("suspicious parameter count %d", m.NumParams())
	}
}

func TestFewShotConfigGentler(t *testing.T) {
	base, few := DefaultTrainConfig(), FewShotConfig()
	if few.LR >= base.LR {
		t.Fatal("few-shot LR should be below base LR")
	}
}

// Sink-mode read-out (the paper's original read-out, kept as an ablation)
// must also pass the full gradient check on the batched step.
func TestGNNSinkReadoutGradientCheck(t *testing.T) {
	m := New(tensor.NewRNG(21), Config{Hidden: 6, EncDepth: 1, HeadHidden: 6, Readout: ReadoutSink})
	g := testGraph(t, true, map[int]int{1: 2})
	targetLat := LogTarget(g.LatencyMs)
	targetTpt := LogTarget(g.ThroughputEPS)

	lossOf := func() float64 {
		pred := m.Predict(g)
		l1, _ := nn.Huber(pred.LogLatency, targetLat, math.Inf(1))
		l2, _ := nn.Huber(pred.LogThroughput, targetTpt, math.Inf(1))
		return l1 + l2
	}
	newTrainStep(m, 1, math.Inf(1)).run([]*features.Graph{g})

	const h = 1e-6
	for pi, p := range m.Params() {
		stride := len(p.Value)/3 + 1
		for i := 0; i < len(p.Value); i += stride {
			orig := p.Value[i]
			p.Value[i] = orig + h
			lp := lossOf()
			p.Value[i] = orig - h
			lm := lossOf()
			p.Value[i] = orig
			num := (lp - lm) / (2 * h)
			if math.Abs(num-p.Grad[i]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("sink readout param %d[%d]: analytic %v numeric %v", pi, i, p.Grad[i], num)
			}
		}
	}
}

func TestSinkReadoutTrains(t *testing.T) {
	graphs := []*features.Graph{
		testGraph(t, false, map[int]int{1: 1}),
		testGraph(t, false, map[int]int{1: 4}),
	}
	graphs[0].LatencyMs, graphs[0].ThroughputEPS = 5, 1000
	graphs[1].LatencyMs, graphs[1].ThroughputEPS = 50, 20000
	m := New(tensor.NewRNG(23), Config{Hidden: 12, EncDepth: 1, HeadHidden: 12, Readout: ReadoutSink})
	cfg := DefaultTrainConfig()
	cfg.Epochs = 200
	cfg.BatchSize = 2
	stats, err := Train(context.Background(), m, graphs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FinalLoss > 0.1 {
		t.Fatalf("sink readout failed to fit: loss %v", stats.FinalLoss)
	}
}

func TestReadoutModeSerialized(t *testing.T) {
	m := New(tensor.NewRNG(25), Config{Hidden: 6, EncDepth: 1, HeadHidden: 6, Readout: ReadoutSink})
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var m2 Model
	if err := json.Unmarshal(data, &m2); err != nil {
		t.Fatal(err)
	}
	if m2.Cfg.Readout != ReadoutSink {
		t.Fatal("readout mode lost in serialization")
	}
	g := testGraph(t, false, nil)
	if m.Predict(g).LogLatency != m2.Predict(g).LogLatency {
		t.Fatal("round trip changed predictions")
	}
}

func TestReadoutModeString(t *testing.T) {
	if ReadoutStructured.String() != "structured" || ReadoutSink.String() != "sink" {
		t.Fatal("readout stringer")
	}
	_ = ReadoutMode(9).String()
}

func TestTrainWithoutValRunsAllEpochs(t *testing.T) {
	g := testGraph(t, false, nil)
	m := smallModel(73)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 7
	stats, err := Train(context.Background(), m, []*features.Graph{g}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Epochs != 7 {
		t.Fatalf("ran %d epochs, want 7", stats.Epochs)
	}
}
