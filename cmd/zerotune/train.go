package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"zerotune/internal/artifact"
	"zerotune/internal/core"
	"zerotune/internal/gnn"
	"zerotune/internal/obs"
	"zerotune/internal/tensor"
	"zerotune/internal/workload"
)

// trainCheckpointKind tags checkpoint artifacts so a model file and a
// checkpoint file can never be confused for each other.
const trainCheckpointKind = "zerotune-train-checkpoint"

// trainCheckpoint is the durable snapshot of an in-flight training run.
// The hyperparameters ride along because the corpus and the model skeleton
// are regenerated from them on resume — a resume under different flags
// would silently train a different model, so the stored values win.
type trainCheckpoint struct {
	N      int             `json:"n"`
	Epochs int             `json:"epochs"`
	Hidden int             `json:"hidden"`
	Seed   uint64          `json:"seed"`
	State  *gnn.Checkpoint `json:"state"`
}

func loadTrainCheckpoint(path string) (*trainCheckpoint, error) {
	kind, payload, err := artifact.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("train: read checkpoint %s: %w", path, err)
	}
	if kind != trainCheckpointKind {
		return nil, fmt.Errorf("train: %s is a %q artifact, not a training checkpoint", path, kind)
	}
	var ck trainCheckpoint
	if err := json.Unmarshal(payload, &ck); err != nil {
		return nil, fmt.Errorf("train: decode checkpoint %s: %w", path, err)
	}
	if ck.State == nil {
		return nil, fmt.Errorf("train: checkpoint %s has no training state", path)
	}
	return &ck, nil
}

func saveTrainCheckpoint(path string, ck *trainCheckpoint) error {
	payload, err := json.Marshal(ck)
	if err != nil {
		return err
	}
	return artifact.WriteFile(path, trainCheckpointKind, payload)
}

func trainCommand(fs *flag.FlagSet) func() error {
	opts := core.DefaultTrainOptions()
	n := fs.Int("n", 3000, "training corpus size")
	fs.IntVar(&opts.Epochs, "epochs", 60, "training epochs")
	fs.IntVar(&opts.Hidden, "hidden", opts.Hidden, "hidden width")
	fs.Uint64Var(&opts.Seed, "seed", opts.Seed, "random seed")
	out := fs.String("out", defaultModel, "output model path")
	ckptPath := fs.String("checkpoint", "", "checkpoint file path (empty: checkpointing disabled)")
	fs.IntVar(&opts.CheckpointEvery, "checkpoint-every", 5, "checkpoint every N epochs")
	resume := fs.String("resume", "", "resume from this checkpoint file")
	tracePath := fs.String("trace", "", "write the training trace (per-epoch spans) as JSON to this file")
	return func() error {
		if *resume != "" {
			ck, err := loadTrainCheckpoint(*resume)
			if err != nil {
				return err
			}
			// Stored hyperparameters win: the corpus and model are rebuilt from
			// them, so flag values that disagree are ignored (and said so).
			if *n != ck.N || opts.Epochs != ck.Epochs || opts.Hidden != ck.Hidden || opts.Seed != ck.Seed {
				fmt.Fprintf(os.Stderr, "resume: using checkpointed hyperparameters (n=%d epochs=%d hidden=%d seed=%d)\n",
					ck.N, ck.Epochs, ck.Hidden, ck.Seed)
			}
			*n, opts.Epochs, opts.Hidden, opts.Seed = ck.N, ck.Epochs, ck.Hidden, ck.Seed
			opts.Resume = ck.State
			if *ckptPath == "" {
				*ckptPath = *resume // keep checkpointing where we resumed from
			}
			fmt.Fprintf(os.Stderr, "resuming from %s at epoch %d/%d\n", *resume, ck.State.Epoch, ck.Epochs)
		}
		// -hidden is the one width the CLI exposes: the read-out head follows it.
		opts.HeadHidden = opts.Hidden
		if err := opts.Validate(); err != nil {
			return err
		}

		gen := workload.NewSeenGenerator(opts.Seed)
		fmt.Fprintf(os.Stderr, "generating %d labelled queries...\n", *n)
		items, err := gen.Generate(workload.SeenRanges().Structures, *n)
		if err != nil {
			return err
		}
		ds, err := workload.Split(items, 0.8, 0.1, opts.Seed+1)
		if err != nil {
			return err
		}
		opts.Progress = func(epoch int, loss float64) {
			if epoch%5 == 0 {
				fmt.Fprintf(os.Stderr, "epoch %3d loss %.4f\n", epoch, loss)
			}
		}
		if *ckptPath != "" {
			wrapper := &trainCheckpoint{N: *n, Epochs: opts.Epochs, Hidden: opts.Hidden, Seed: opts.Seed}
			opts.Checkpoint = func(ck *gnn.Checkpoint) error {
				wrapper.State = ck
				return saveTrainCheckpoint(*ckptPath, wrapper)
			}
		}

		// SIGINT/SIGTERM cancels the context, which asks the trainer to finish
		// the current epoch, write a final checkpoint, and stop — not to die
		// mid-gradient-step.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		// With -trace, record the run's span tree (core.train → one train.epoch
		// per epoch with loss/grad-norm/timing attributes) and write it as JSON.
		var tracer *obs.Tracer
		if *tracePath != "" {
			tracer = obs.NewTracer(4)
			ctx = obs.WithTracer(ctx, tracer)
		}

		zt, stats, err := core.Train(ctx, ds.Train, opts)
		stop()
		if err != nil {
			return err
		}
		if tracer != nil {
			if err := writeJSON(*tracePath, tracer.Traces()); err != nil {
				fmt.Fprintf(os.Stderr, "warning: could not write trace %s: %v\n", *tracePath, err)
			} else {
				fmt.Fprintf(os.Stderr, "training trace written to %s\n", *tracePath)
			}
		}
		if stats.Interrupted {
			fmt.Fprintf(os.Stderr, "received a signal, checkpointing and stopping: interrupted after epoch %d/%d", stats.Epochs, opts.Epochs)
			if *ckptPath != "" {
				fmt.Fprintf(os.Stderr, "; *resume with: zerotune train -resume %s -out %s", *ckptPath, *out)
			}
			fmt.Fprintln(os.Stderr)
			return nil
		}
		fmt.Fprintf(os.Stderr, "trained in %s, final loss %.4f\n", stats.Duration.Round(1e9), stats.FinalLoss)

		// core.Train compiled the model, so a gate refusal was its error; the
		// verdict line says which engine `serve` will run.
		g := zt.Compiled().Gate
		fmt.Fprintf(os.Stderr, "compiled engine (%s, %s kernel) passed accuracy gate: max q-error %.6f over %d graphs (budget %.6f)\n",
			g.Engine, tensor.Kernel(), g.MaxQErr, g.Graphs, g.Threshold)

		if err := zt.SaveFile(*out); err != nil {
			return err
		}
		if *ckptPath != "" {
			// The run completed and the model is durable; the checkpoint has
			// served its purpose.
			if err := os.Remove(*ckptPath); err != nil && !os.IsNotExist(err) {
				fmt.Fprintf(os.Stderr, "warning: could not remove checkpoint %s: %v\n", *ckptPath, err)
			}
		}
		fmt.Fprintf(os.Stderr, "model written to %s\n", *out)
		return nil
	}
}
