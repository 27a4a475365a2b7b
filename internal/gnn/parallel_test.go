package gnn

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"zerotune/internal/features"
	"zerotune/internal/tensor"
)

// trainSet builds a small mixed corpus with varied labels so the loss
// surface is non-trivial.
func trainSet(t *testing.T, n int) []*features.Graph {
	t.Helper()
	graphs := make([]*features.Graph, 0, n)
	for i := 0; i < n; i++ {
		g := testGraph(t, i%2 == 0, map[int]int{1: 1 + i%8})
		g.LatencyMs = 5 + float64(i%7)*3.5
		g.ThroughputEPS = 1000 + float64(i%5)*2500
		graphs = append(graphs, g)
	}
	return graphs
}

// paramsEqual reports whether two models have bit-identical weights.
func paramsEqual(a, b *Model) (bool, string) {
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		return false, "param count mismatch"
	}
	for i := range pa {
		for j := range pa[i].Value {
			if pa[i].Value[j] != pb[i].Value[j] {
				return false, "weight mismatch"
			}
		}
	}
	return true, ""
}

// TestTrainDeterministicAcrossWorkers is the core guarantee of the
// data-parallel training loop: workers split a step only over independent
// outputs (chunks of a minibatch's graphs, whole parameter tensors), never
// inside a sum, so the final weights and loss are bit-identical for any
// worker count (1, 2, 3 and 8; 3 and 8 are more workers than a 2-core box
// has, where the step's team parks instead of polling).
func TestTrainDeterministicAcrossWorkers(t *testing.T) {
	graphs := trainSet(t, 24)

	run := func(workers int) (*Model, TrainStats) {
		m := smallModel(7)
		cfg := DefaultTrainConfig()
		cfg.Epochs = 3
		cfg.BatchSize = 5 // odd split: workers get uneven chunks of a batch
		cfg.Workers = workers
		stats, err := Train(context.Background(), m, graphs, cfg)
		if err != nil {
			t.Fatalf("train with %d workers: %v", workers, err)
		}
		return m, stats
	}

	base, baseStats := run(1)
	for _, w := range []int{2, 3, 8} {
		m, stats := run(w)
		if stats.FinalLoss != baseStats.FinalLoss {
			t.Errorf("workers=%d: final loss %v != sequential %v", w, stats.FinalLoss, baseStats.FinalLoss)
		}
		if ok, why := paramsEqual(base, m); !ok {
			t.Errorf("workers=%d: %s vs sequential run", w, why)
		}
	}
}

// TestTrainSameBitsEveryKernel: training runs on the float64 vector kernels
// of whatever CPU it lands on, and those kernels are bit-identical to the
// portable loops — so a model trained under any kernel this CPU can run
// (portable, avx2 and avx512, as tensor.SetSIMD allows) equals one trained
// under the portable kernel, weight for weight. Widths 6 and 48 take the
// kernels through their tails and their full column blocks.
func TestTrainSameBitsEveryKernel(t *testing.T) {
	graphs := trainSet(t, 24)
	run := func(kernel string, cfg Config) (*Model, TrainStats) {
		defer tensor.SetSIMD(tensor.SetSIMD(kernel))
		m := New(tensor.NewRNG(7), cfg)
		tc := DefaultTrainConfig()
		tc.Epochs = 3
		tc.BatchSize = 5
		stats, err := Train(context.Background(), m, graphs, tc)
		if err != nil {
			t.Fatalf("train under %s: %v", kernel, err)
		}
		return m, stats
	}
	var kernels []string
	for _, k := range []string{"avx2", "avx512"} {
		prev := tensor.SetSIMD(k)
		if tensor.Kernel() == k {
			kernels = append(kernels, k)
		}
		tensor.SetSIMD(prev)
	}
	if len(kernels) == 0 {
		t.Log("this CPU runs only the portable kernel: nothing to compare it with")
	}
	for _, cfg := range []Config{{Hidden: 6, EncDepth: 1, HeadHidden: 6}, DefaultConfig()} {
		want, wantStats := run("portable", cfg)
		for _, k := range kernels {
			got, gotStats := run(k, cfg)
			if gotStats.FinalLoss != wantStats.FinalLoss {
				t.Errorf("hidden %d: final loss %v under %s != %v under portable", cfg.Hidden, gotStats.FinalLoss, k, wantStats.FinalLoss)
			}
			if ok, why := paramsEqual(want, got); !ok {
				t.Errorf("hidden %d: %s between %s and portable", cfg.Hidden, why, k)
			}
		}
	}
}

// TestTrainRejectsBadLabels: a label the log-space loss cannot use is an
// error naming the graph, returned before any epoch runs — not a NaN or
// infinite FinalLoss with the weights stepped anyway.
func TestTrainRejectsBadLabels(t *testing.T) {
	for _, tc := range []struct {
		name     string
		lat, tpt float64
	}{
		{"NaN latency", math.NaN(), 1000},
		{"+Inf latency", math.Inf(1), 1000},
		{"-Inf latency", math.Inf(-1), 1000},
		{"zero latency", 0, 1000},
		{"negative latency", -5, 1000},
		{"NaN throughput", 10, math.NaN()},
		{"+Inf throughput", 10, math.Inf(1)},
		{"-Inf throughput", 10, math.Inf(-1)},
		{"zero throughput", 10, 0},
		{"negative throughput", 10, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			graphs := trainSet(t, 6)
			graphs[3].LatencyMs, graphs[3].ThroughputEPS = tc.lat, tc.tpt
			m := smallModel(7)
			before := smallModel(7)
			cfg := DefaultTrainConfig()
			cfg.Epochs = 2
			epochs := 0
			cfg.Progress = func(int, float64) { epochs++ }
			stats, err := Train(context.Background(), m, graphs, cfg)
			if err == nil {
				t.Fatalf("trained to FinalLoss %v without an error", stats.FinalLoss)
			}
			if !strings.Contains(err.Error(), "training graph 3") {
				t.Errorf("error %q does not name graph 3", err)
			}
			if epochs != 0 {
				t.Errorf("%d epochs ran before the error", epochs)
			}
			if ok, why := paramsEqual(before, m); !ok {
				t.Errorf("weights moved: %s", why)
			}
		})
	}
}

// TestTrainLeavesNoGoroutine: the worker team a Train call starts ends on
// every way out of it — a full run, a run stopped by a cancelled context and
// a run aborted by its checkpoint hook — so no goroutine of Train's outlives
// it.
func TestTrainLeavesNoGoroutine(t *testing.T) {
	graphs := trainSet(t, 12)
	hookErr := errors.New("disk full")
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		hook func(*Checkpoint) error
		want error
	}{
		{"full run", context.Background(), nil, nil},
		{"cancelled", cancelled, func(*Checkpoint) error { return nil }, nil},
		{"checkpoint error", context.Background(), func(*Checkpoint) error { return hookErr }, hookErr},
	} {
		before := runtime.NumGoroutine()
		cfg := DefaultTrainConfig()
		cfg.Epochs = 3
		cfg.BatchSize = 5
		cfg.Workers = 3
		cfg.Checkpoint = tc.hook
		stats, err := Train(tc.ctx, smallModel(7), graphs, cfg)
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if tc.name == "cancelled" && !stats.Interrupted {
			t.Fatalf("%s: the run was not interrupted", tc.name)
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after Train, %d before", tc.name, runtime.NumGoroutine(), before)
			}
		}
	}
}
