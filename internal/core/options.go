package core

import (
	"fmt"

	"zerotune/internal/features"
	"zerotune/internal/gnn"
)

// TrainOptions is the single training configuration shared by library
// callers and the CLI — one flat, validated struct instead of the former
// gnn.Config/gnn.TrainConfig/flag-bag triplication. Construct it with
// NewTrainOptions (validated functional options) or DefaultTrainOptions
// and mutate fields directly; Train validates either way.
type TrainOptions struct {
	// Architecture (see gnn.Config).
	Hidden     int
	EncDepth   int
	HeadHidden int
	Readout    gnn.ReadoutMode

	// Optimization schedule (see gnn.TrainConfig).
	Epochs      int
	BatchSize   int
	LR          float64
	WeightDecay float64
	ClipNorm    float64
	HuberDelta  float64
	Seed        uint64
	Workers     int

	// Mask restricts feature visibility (ablations, Sec. IV-E).
	Mask features.Mask

	// Progress receives (epoch, mean training loss) after every epoch.
	Progress func(epoch int, loss float64)

	// Val enables early stopping on a held-out set; Patience is the
	// tolerance in epochs (0 = gnn default).
	Val      []*features.Graph
	Patience int

	// Checkpointing and clean interruption (see gnn.TrainConfig).
	Checkpoint      func(*gnn.Checkpoint) error
	CheckpointEvery int
	Resume          *gnn.Checkpoint
	Interrupt       <-chan struct{}
}

// TrainOption mutates a TrainOptions under construction.
type TrainOption func(*TrainOptions)

// DefaultTrainOptions returns the configuration used across the
// experiments: the default architecture and the default schedule.
func DefaultTrainOptions() *TrainOptions {
	mc, tc := gnn.DefaultConfig(), gnn.DefaultTrainConfig()
	return optionsFrom(mc, tc, features.MaskAll)
}

// FewShotTrainOptions returns the gentler fine-tuning schedule for
// few-shot learning (Sec. V-A: short run, reduced learning rate).
func FewShotTrainOptions() *TrainOptions {
	return optionsFrom(gnn.DefaultConfig(), gnn.FewShotConfig(), features.MaskAll)
}

// NewTrainOptions builds a validated configuration: defaults first, then
// every option in order, then Validate.
func NewTrainOptions(opts ...TrainOption) (*TrainOptions, error) {
	o := DefaultTrainOptions()
	for _, opt := range opts {
		opt(o)
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return o, nil
}

// WithArchitecture sets the model shape. Zero values keep the defaults.
func WithArchitecture(hidden, encDepth, headHidden int) TrainOption {
	return func(o *TrainOptions) {
		if hidden > 0 {
			o.Hidden = hidden
		}
		if encDepth > 0 {
			o.EncDepth = encDepth
		}
		if headHidden > 0 {
			o.HeadHidden = headHidden
		}
	}
}

// WithEpochs sets the epoch budget.
func WithEpochs(n int) TrainOption { return func(o *TrainOptions) { o.Epochs = n } }

// WithSeed sets the RNG seed for init and shuffling.
func WithSeed(seed uint64) TrainOption { return func(o *TrainOptions) { o.Seed = seed } }

// WithProgress installs a per-epoch progress callback.
func WithProgress(fn func(epoch int, loss float64)) TrainOption {
	return func(o *TrainOptions) { o.Progress = fn }
}

// WithCheckpoint installs a checkpoint sink called every `every` epochs
// (values below 1 mean every epoch).
func WithCheckpoint(fn func(*gnn.Checkpoint) error, every int) TrainOption {
	return func(o *TrainOptions) { o.Checkpoint = fn; o.CheckpointEvery = every }
}

// WithResume continues training from a snapshot.
func WithResume(ck *gnn.Checkpoint) TrainOption { return func(o *TrainOptions) { o.Resume = ck } }

// WithInterrupt requests a clean checkpointed stop once ch closes.
func WithInterrupt(ch <-chan struct{}) TrainOption {
	return func(o *TrainOptions) { o.Interrupt = ch }
}

// Validate checks the configuration for values training would reject.
func (o *TrainOptions) Validate() error {
	switch {
	case o == nil:
		return fmt.Errorf("core: nil TrainOptions")
	case o.Hidden <= 0 || o.EncDepth <= 0 || o.HeadHidden <= 0:
		return fmt.Errorf("core: invalid architecture hidden=%d encDepth=%d headHidden=%d",
			o.Hidden, o.EncDepth, o.HeadHidden)
	case o.Readout != gnn.ReadoutStructured && o.Readout != gnn.ReadoutSink:
		return fmt.Errorf("core: unknown readout mode %d", int(o.Readout))
	case o.Epochs <= 0:
		return fmt.Errorf("core: epochs must be positive, got %d", o.Epochs)
	case o.BatchSize <= 0:
		return fmt.Errorf("core: batch size must be positive, got %d", o.BatchSize)
	case o.LR <= 0:
		return fmt.Errorf("core: learning rate must be positive, got %g", o.LR)
	case o.WeightDecay < 0 || o.ClipNorm < 0 || o.HuberDelta <= 0:
		return fmt.Errorf("core: invalid schedule weightDecay=%g clipNorm=%g huberDelta=%g",
			o.WeightDecay, o.ClipNorm, o.HuberDelta)
	case o.Workers < 0:
		return fmt.Errorf("core: workers must be non-negative, got %d", o.Workers)
	case o.Mask != features.MaskAll && o.Mask != features.MaskOperatorOnly && o.Mask != features.MaskParallelismResource:
		return fmt.Errorf("core: unknown feature mask %d", int(o.Mask))
	}
	return nil
}

// modelConfig projects the architecture fields into the gnn layer.
func (o *TrainOptions) modelConfig() gnn.Config {
	return gnn.Config{Hidden: o.Hidden, EncDepth: o.EncDepth, HeadHidden: o.HeadHidden, Readout: o.Readout}
}

// trainConfig projects the schedule fields into the gnn layer.
func (o *TrainOptions) trainConfig() gnn.TrainConfig {
	return gnn.TrainConfig{
		Epochs: o.Epochs, BatchSize: o.BatchSize, LR: o.LR,
		WeightDecay: o.WeightDecay, ClipNorm: o.ClipNorm, HuberDelta: o.HuberDelta,
		Seed: o.Seed, Workers: o.Workers, Progress: o.Progress,
		Val: o.Val, Patience: o.Patience,
		Checkpoint: o.Checkpoint, CheckpointEvery: o.CheckpointEvery,
		Resume: o.Resume, Interrupt: o.Interrupt,
	}
}

// optionsFrom flattens the two gnn configs into one TrainOptions.
func optionsFrom(mc gnn.Config, tc gnn.TrainConfig, mask features.Mask) *TrainOptions {
	return &TrainOptions{
		Hidden: mc.Hidden, EncDepth: mc.EncDepth, HeadHidden: mc.HeadHidden, Readout: mc.Readout,
		Epochs: tc.Epochs, BatchSize: tc.BatchSize, LR: tc.LR,
		WeightDecay: tc.WeightDecay, ClipNorm: tc.ClipNorm, HuberDelta: tc.HuberDelta,
		Seed: tc.Seed, Workers: tc.Workers, Progress: tc.Progress,
		Val: tc.Val, Patience: tc.Patience,
		Checkpoint: tc.Checkpoint, CheckpointEvery: tc.CheckpointEvery,
		Resume: tc.Resume, Interrupt: tc.Interrupt,
		Mask: mask,
	}
}
