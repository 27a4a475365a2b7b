package gnn

import (
	"context"
	"math"
	"strings"
	"testing"

	"zerotune/internal/features"
	"zerotune/internal/tensor"
)

func TestEmbedShapeAndDeterminism(t *testing.T) {
	m := smallModel(61)
	g := testGraph(t, false, map[int]int{1: 4})
	e1, e2 := m.Embed(g), m.Embed(g)
	if len(e1) != 2*m.Cfg.Hidden {
		t.Fatalf("embedding width %d, want %d", len(e1), 2*m.Cfg.Hidden)
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("embedding not deterministic")
		}
	}
	if e1.HasNaN() {
		t.Fatal("NaN in embedding")
	}
}

func TestFineTuneMetricHeadLearns(t *testing.T) {
	m := smallModel(63)
	// A synthetic metric correlated with the plan: total instances.
	var graphs []*features.Graph
	var targets []float64
	for _, d := range []int{1, 2, 4, 8, 16} {
		for rep := 0; rep < 4; rep++ {
			g := testGraph(t, rep%2 == 1, map[int]int{1: d})
			graphs = append(graphs, g)
			targets = append(targets, float64(3+d)) // grows with degree
		}
	}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 800
	cfg.LR = 5e-3
	head, err := FineTuneMetricHead(context.Background(), m, "instances", graphs, targets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if head.Name != "instances" {
		t.Fatal("name lost")
	}
	var worst float64
	for i, g := range graphs {
		pred := head.Predict(m, g)
		q := math.Max(pred/targets[i], targets[i]/pred)
		if q > worst {
			worst = q
		}
	}
	if worst > 3.0 {
		t.Fatalf("metric head failed to fit: worst q-error %v", worst)
	}
}

func TestFineTuneMetricHeadFreezesEncoder(t *testing.T) {
	m := smallModel(65)
	g := testGraph(t, false, nil)
	before := m.Predict(g)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 10
	if _, err := FineTuneMetricHead(context.Background(), m, "x", []*features.Graph{g}, []float64{42}, cfg); err != nil {
		t.Fatal(err)
	}
	after := m.Predict(g)
	if before.LogLatency != after.LogLatency || before.LogThroughput != after.LogThroughput {
		t.Fatal("metric fine-tuning mutated the frozen model")
	}
}

func TestFineTuneMetricHeadValidation(t *testing.T) {
	m := smallModel(67)
	if _, err := FineTuneMetricHead(context.Background(), m, "x", nil, nil, DefaultTrainConfig()); err == nil {
		t.Fatal("accepted empty set")
	}
	g := testGraph(t, false, nil)
	if _, err := FineTuneMetricHead(context.Background(), m, "x", []*features.Graph{g}, []float64{1, 2}, DefaultTrainConfig()); err == nil {
		t.Fatal("accepted length mismatch")
	}
	bad := DefaultTrainConfig()
	bad.Epochs = 0
	if _, err := FineTuneMetricHead(context.Background(), m, "x", []*features.Graph{g}, []float64{1}, bad); err == nil {
		t.Fatal("accepted zero epochs")
	}
	_ = tensor.NewRNG(1)
}

// TestFineTuneMetricHeadRejectsBadInput: a target the log-space loss cannot
// use, or a graph the frozen encoder cannot embed, is an error naming its
// index before any epoch runs. Unchecked, a NaN target trains as if it were
// infinitely large, and a NaN feature yields a head that predicts NaN.
func TestFineTuneMetricHeadRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		name   string
		target float64
		spoil  func(g *features.Graph)
		want   string
	}{
		{"NaN target", math.NaN(), nil, "gnn: metric target 3 is NaN"},
		{"+Inf target", math.Inf(1), nil, "gnn: metric target 3 is +Inf"},
		{"-Inf target", math.Inf(-1), nil, "gnn: metric target 3 is -Inf"},
		{"negative target", -5, nil, "gnn: metric target 3 is -5"},
		{"NaN operator feature", 7, func(g *features.Graph) { g.OpNodes[0].Feat[0] = math.NaN() }, "gnn: metric graph 3: operator 0: feature 0 is NaN"},
		{"Inf machine feature", 7, func(g *features.Graph) { g.ResNodes[1].Feat[2] = math.Inf(1) }, "gnn: metric graph 3: machine 1: feature 2 is +Inf"},
		{"unknown operator type", 7, func(g *features.Graph) { g.OpNodes[0].Type = 99 }, "gnn: metric graph 3: operator 0: unknown type"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			graphs := trainSet(t, 8)
			targets := make([]float64, len(graphs))
			for i := range targets {
				targets[i] = float64(3 + i)
			}
			targets[3] = tc.target
			if tc.spoil != nil {
				tc.spoil(graphs[3])
			}
			m := smallModel(5)
			cfg := DefaultTrainConfig()
			cfg.Epochs = 3
			head, err := FineTuneMetricHead(context.Background(), m, "x", graphs, targets, cfg)
			if err == nil {
				t.Fatalf("returned a head (%v on graph 3) without an error", head.Predict(m, graphs[3]))
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not say %q", err, tc.want)
			}
		})
	}
}
