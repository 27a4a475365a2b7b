package gnn

import (
	"context"
	"encoding/json"
	"testing"

	"zerotune/internal/tensor"
)

// resumeCfg is the shared training configuration of the resume tests.
func resumeCfg(epochs int) TrainConfig {
	cfg := DefaultTrainConfig()
	cfg.Epochs = epochs
	cfg.BatchSize = 5
	return cfg
}

// TestResumeBitIdentical is the core crash-safety guarantee: a run stopped
// at an arbitrary epoch and resumed from its checkpoint ends with weights
// bit-identical to a run that was never interrupted.
func TestResumeBitIdentical(t *testing.T) {
	graphs := trainSet(t, 24)
	const epochs = 8

	full := smallModel(7)
	fullStats, err := Train(context.Background(), full, graphs, resumeCfg(epochs))
	if err != nil {
		t.Fatal(err)
	}

	for _, stopAt := range []int{1, 3, 7} {
		var last *Checkpoint
		part := smallModel(7)
		cfg := resumeCfg(stopAt)
		cfg.Checkpoint = func(ck *Checkpoint) error {
			// Round-trip through JSON: the persisted form, not the in-memory
			// pointer graph, is what a real resume starts from.
			data, err := json.Marshal(ck)
			if err != nil {
				return err
			}
			last = &Checkpoint{}
			return json.Unmarshal(data, last)
		}
		if _, err := Train(context.Background(), part, graphs, cfg); err != nil {
			t.Fatal(err)
		}
		if last == nil || last.Epoch != stopAt {
			t.Fatalf("stopAt=%d: no checkpoint at the final epoch (got %+v)", stopAt, last)
		}

		resumed := smallModel(7) // fresh weights; restore must overwrite them
		rcfg := resumeCfg(epochs)
		rcfg.Resume = last
		stats, err := Train(context.Background(), resumed, graphs, rcfg)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Epochs != epochs {
			t.Fatalf("stopAt=%d: resumed run reports %d epochs, want %d", stopAt, stats.Epochs, epochs)
		}
		if stats.FinalLoss != fullStats.FinalLoss {
			t.Errorf("stopAt=%d: resumed final loss %v != uninterrupted %v", stopAt, stats.FinalLoss, fullStats.FinalLoss)
		}
		if ok, why := paramsEqual(full, resumed); !ok {
			t.Errorf("stopAt=%d: %s between resumed and uninterrupted run", stopAt, why)
		}
	}
}

// TestInterruptCheckpointsAndStops cancels the context before training
// starts: the loop must stop after exactly one epoch, having
// delivered an off-schedule checkpoint, and resuming from it must match the
// uninterrupted run.
func TestInterruptCheckpointsAndStops(t *testing.T) {
	graphs := trainSet(t, 24)
	const epochs = 6

	full := smallModel(5)
	fullStats, err := Train(context.Background(), full, graphs, resumeCfg(epochs))
	if err != nil {
		t.Fatal(err)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	var last *Checkpoint
	m := smallModel(5)
	cfg := resumeCfg(epochs)
	cfg.CheckpointEvery = 100 // off-schedule: only the interrupt forces a snapshot
	cfg.Checkpoint = func(ck *Checkpoint) error { last = ck; return nil }
	stats, err := Train(cancelled, m, graphs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Interrupted {
		t.Fatal("interrupted run not reported as interrupted")
	}
	if stats.Epochs != 1 {
		t.Fatalf("interrupted run completed %d epochs, want 1", stats.Epochs)
	}
	if last == nil || last.Epoch != 1 {
		t.Fatalf("interrupt did not force a checkpoint: %+v", last)
	}

	resumed := smallModel(5)
	rcfg := resumeCfg(epochs)
	rcfg.Resume = last
	rstats, err := Train(context.Background(), resumed, graphs, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if rstats.FinalLoss != fullStats.FinalLoss {
		t.Errorf("resumed final loss %v != uninterrupted %v", rstats.FinalLoss, fullStats.FinalLoss)
	}
	if ok, why := paramsEqual(full, resumed); !ok {
		t.Errorf("%s between interrupt-resumed and uninterrupted run", why)
	}
}

// TestResumeRejectsMismatches: a checkpoint from a different architecture or
// corpus must fail loudly, not silently train a diverged model.
func TestResumeRejectsMismatches(t *testing.T) {
	graphs := trainSet(t, 12)
	var last *Checkpoint
	m := smallModel(3)
	cfg := resumeCfg(2)
	cfg.Checkpoint = func(ck *Checkpoint) error { last = ck; return nil }
	if _, err := Train(context.Background(), m, graphs, cfg); err != nil {
		t.Fatal(err)
	}

	// Wrong architecture: different hidden width → different tensor shapes.
	other := New(tensor.NewRNG(3), Config{Hidden: 8, EncDepth: 1, HeadHidden: 8})
	bad := resumeCfg(4)
	bad.Resume = last
	if _, err := Train(context.Background(), other, graphs, bad); err == nil {
		t.Fatal("accepted checkpoint from a different architecture")
	}

	// Wrong corpus size.
	bad = resumeCfg(4)
	bad.Resume = last
	if _, err := Train(context.Background(), smallModel(3), trainSet(t, 10), bad); err == nil {
		t.Fatal("accepted checkpoint from a different corpus size")
	}

	// Corrupted permutation.
	mangled := *last
	mangled.Idx = append([]int(nil), last.Idx...)
	mangled.Idx[0] = mangled.Idx[1]
	bad = resumeCfg(4)
	bad.Resume = &mangled
	if _, err := Train(context.Background(), smallModel(3), graphs, bad); err == nil {
		t.Fatal("accepted checkpoint with a corrupt example order")
	}
}
