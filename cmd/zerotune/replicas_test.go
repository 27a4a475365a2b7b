package main

import (
	"context"
	"net/http"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
	"time"

	"zerotune/internal/core"
	"zerotune/internal/workload"
)

// tinyModel trains a model just large enough to pass the serve-time accuracy
// gate and saves it under t.TempDir().
func tinyModel(t *testing.T) string {
	t.Helper()
	items, err := workload.NewSeenGenerator(5).Generate(workload.SeenRanges().Structures, 60)
	if err != nil {
		t.Fatal(err)
	}
	topts := core.DefaultTrainOptions()
	topts.Hidden, topts.EncDepth, topts.HeadHidden = 12, 1, 12
	topts.Epochs = 2
	zt, _, err := core.Train(context.Background(), items, topts)
	if err != nil {
		t.Fatal(err)
	}
	model := filepath.Join(t.TempDir(), "model.json")
	if err := zt.SaveFile(model); err != nil {
		t.Fatal(err)
	}
	return model
}

// TestInProcessServersRunFusedEngine: the servers the CLI builds inside its
// own process — the replicas behind bench and gateway — answer through the
// fused engine with nothing set in the environment: one predict moves
// /metrics' fused-graph count by exactly one. (The load probe already ran one
// graph through the same engine.)
func TestInProcessServersRunFusedEngine(t *testing.T) {
	model := tinyModel(t)
	bodies, err := benchBodies(1, 1)
	if err != nil {
		t.Fatal(err)
	}

	fusedGraphs := regexp.MustCompile(`(?m)^zerotune_fused_graphs_total (\S+)$`)
	t.Run("inProcessReplicas", func(t *testing.T) {
		pool, closeAll, err := inProcessReplicas("test", model, 1, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(closeAll)
		b := pool[0]
		fused := func() float64 {
			t.Helper()
			_, metrics, _ := b.Call(context.Background(), "/metrics", nil)
			m := fusedGraphs.FindSubmatch(metrics)
			if m == nil {
				t.Fatal("/metrics lacks zerotune_fused_graphs_total")
			}
			v, err := strconv.ParseFloat(string(m[1]), 64)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		before := fused()
		if status, body, err := b.Call(context.Background(), "/v1/predict", bodies[0]); err != nil || status != http.StatusOK {
			t.Fatalf("predict: status %d, err %v: %s", status, err, body)
		}
		if after := fused(); after != before+1 {
			t.Errorf("zerotune_fused_graphs_total %v → %v after one predict, want +1", before, after)
		}
	})
}
