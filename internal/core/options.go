package core

import (
	"fmt"

	"zerotune/internal/features"
	"zerotune/internal/gnn"
)

// TrainOptions is the training configuration shared by library callers and
// the CLI: the gnn layer's own two structs, embedded, plus the feature
// mask. Every promoted field (Hidden, Epochs, Seed, Checkpoint, …) is
// declared and documented once, in gnn, and Train hands the embedded
// structs to gnn as they are. Start from DefaultTrainOptions or
// FewShotTrainOptions and set fields; Train validates.
type TrainOptions struct {
	gnn.Config      // architecture
	gnn.TrainConfig // optimisation schedule, checkpointing, interruption

	// Mask restricts feature visibility (ablations, Sec. IV-E).
	Mask features.Mask
}

// DefaultTrainOptions returns the configuration used across the
// experiments: the default architecture and the default schedule.
func DefaultTrainOptions() *TrainOptions {
	return &TrainOptions{Config: gnn.DefaultConfig(), TrainConfig: gnn.DefaultTrainConfig(), Mask: features.MaskAll}
}

// FewShotTrainOptions returns the gentler fine-tuning schedule for
// few-shot learning (Sec. V-A: short run, reduced learning rate).
func FewShotTrainOptions() *TrainOptions {
	return &TrainOptions{Config: gnn.DefaultConfig(), TrainConfig: gnn.FewShotConfig(), Mask: features.MaskAll}
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
