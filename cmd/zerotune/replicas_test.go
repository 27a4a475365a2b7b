package main

import (
	"context"
	"net/http"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"zerotune/internal/core"
	"zerotune/internal/workload"
)

// TestInProcessReplicasHonourCompiledEnv: the replicas bench and gateway
// build run the fused engine exactly when ZEROTUNE_COMPILED asks for it, as
// `zerotune serve` does — read off /metrics after one predict.
func TestInProcessReplicasHonourCompiledEnv(t *testing.T) {
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
	bodies, err := benchBodies(1, 1)
	if err != nil {
		t.Fatal(err)
	}

	fusedGraphs := regexp.MustCompile(`(?m)^zerotune_fused_graphs_total (\S+)$`)
	for _, tc := range []struct {
		env  string
		want string
	}{{"1", "1"}, {"", "0"}} {
		t.Setenv(core.CompiledEnv, tc.env)
		pool, closeAll, err := inProcessReplicas("test", model, 1, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if status, body, err := pool[0].Call(context.Background(), "/v1/predict", bodies[0]); err != nil || status != http.StatusOK {
			t.Fatalf("%s=%q: predict: status %d, err %v: %s", core.CompiledEnv, tc.env, status, err, body)
		}
		_, metrics, _ := pool[0].Call(context.Background(), "/metrics", nil)
		if m := fusedGraphs.FindSubmatch(metrics); m == nil || string(m[1]) != tc.want {
			t.Errorf("%s=%q: zerotune_fused_graphs_total = %q, want %s", core.CompiledEnv, tc.env, m, tc.want)
		}
		closeAll()
	}
}
