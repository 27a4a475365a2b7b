package gnn

import (
	"context"
	"fmt"
	"math"
	"time"

	"zerotune/internal/fault"
	"zerotune/internal/features"
	"zerotune/internal/nn"
	"zerotune/internal/obs"
	"zerotune/internal/parallel"
	"zerotune/internal/tensor"
)

// TrainConfig holds the optimization hyper-parameters.
type TrainConfig struct {
	Epochs      int
	BatchSize   int
	LR          float64
	WeightDecay float64
	ClipNorm    float64 // global gradient-norm clip; 0 disables
	HuberDelta  float64 // log-space Huber threshold
	Seed        uint64
	// Workers is the size of the run's worker team, the calling goroutine
	// included (0 resolves via parallel.Workers, i.e. the ZEROTUNE_WORKERS
	// override or GOMAXPROCS). The result is identical for every worker
	// count, because work is split only over independent outputs: contiguous
	// chunks of a minibatch's graphs, whose activation and input-gradient
	// rows are their own, and whole parameter tensors, whose sums one task
	// computes — never a sum.
	Workers int
	// Progress, when non-nil, receives (epoch, mean training loss) after
	// every epoch.
	Progress func(epoch int, loss float64)

	// Checkpoint, when non-nil, receives a resumable state snapshot every
	// CheckpointEvery epochs, after the final epoch, and at the interrupt
	// boundary. The hook owns persistence (the CLI writes snapshots through
	// the atomic artifact writer); a non-nil return aborts training with
	// that error.
	Checkpoint func(*Checkpoint) error
	// CheckpointEvery is the epoch interval between Checkpoint calls
	// (values below 1 mean every epoch).
	CheckpointEvery int
	// Resume continues a run from a snapshot instead of starting at epoch
	// zero. The resumed run is bit-identical to an uninterrupted run with
	// the same config, corpus and worker count.
	Resume *Checkpoint
}

// DefaultTrainConfig returns the settings used by the experiments.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Epochs:      40,
		BatchSize:   16,
		LR:          3e-3,
		WeightDecay: 1e-5,
		ClipNorm:    5,
		HuberDelta:  1.0,
		Seed:        1,
	}
}

// FewShotConfig returns the fine-tuning settings for few-shot learning
// (Sec. V-A: 500 extra complex-join queries, short run, gentle LR).
func FewShotConfig() TrainConfig {
	cfg := DefaultTrainConfig()
	cfg.Epochs = 25
	cfg.LR = 8e-4
	return cfg
}

// LogTarget maps a cost (latency ms or throughput ev/s) into the log space
// the model regresses. math.Log10 inlines to a product: float64 keeps arm64
// from fusing it into a caller's subtraction.
func LogTarget(x float64) float64 { return float64(math.Log10(x + 1e-3)) }

// checkGraph rejects a graph training cannot use, naming what is wrong: a
// label the log-space loss cannot use (LogTarget of a non-positive cost is NaN
// or far below any real one, and an infinite or NaN label makes the loss
// non-finite while the clipped gradients still step the weights), or a graph
// checkStructure rejects.
func checkGraph(g *features.Graph) error {
	if !positiveFinite(g.LatencyMs) {
		return fmt.Errorf("latency label %v ms is not positive and finite", g.LatencyMs)
	}
	if !positiveFinite(g.ThroughputEPS) {
		return fmt.Errorf("throughput label %v ev/s is not positive and finite", g.ThroughputEPS)
	}
	return checkStructure(g)
}

// checkStructure rejects a graph the forward pass cannot use, whatever its
// labels: a feature that is NaN or ±Inf (one turns every weight it reaches
// into NaN), or a structure the message passing cannot run: no operator, an
// operator type without an encoder, a sink, edge or mapping index out of
// range, or a data-flow edge that does not run from a lower to a higher
// operator index (operators are topologically ordered, which the step's depth
// levels need).
func checkStructure(g *features.Graph) error {
	n, r := len(g.OpNodes), len(g.ResNodes)
	for i, node := range g.OpNodes {
		if typeSlot(node.Type) < 0 {
			return fmt.Errorf("operator %d: unknown type %v", i, node.Type)
		}
		if err := checkFeatures(node.Feat, features.OpFeatDim); err != nil {
			return fmt.Errorf("operator %d: %w", i, err)
		}
	}
	for i, node := range g.ResNodes {
		if err := checkFeatures(node.Feat, features.ResFeatDim); err != nil {
			return fmt.Errorf("machine %d: %w", i, err)
		}
	}
	if n == 0 || g.SinkIdx < 0 || g.SinkIdx >= n {
		return fmt.Errorf("sink index %d with %d operators", g.SinkIdx, n)
	}
	for _, e := range g.DataEdges {
		if e[0] < 0 || e[0] >= e[1] || e[1] >= n {
			return fmt.Errorf("data-flow edge %d→%d with %d operators", e[0], e[1], n)
		}
	}
	for _, e := range g.Mapping {
		if e.OpIdx < 0 || e.OpIdx >= n || e.ResIdx < 0 || e.ResIdx >= r {
			return fmt.Errorf("mapping edge %d→%d with %d operators and %d machines", e.OpIdx, e.ResIdx, n, r)
		}
	}
	return nil
}

func checkFeatures(feat []float64, dim int) error {
	if len(feat) != dim {
		return fmt.Errorf("%d features, want %d", len(feat), dim)
	}
	for j, x := range feat {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("feature %d is %v", j, x)
		}
	}
	return nil
}

func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// TrainStats summarizes a training run.
type TrainStats struct {
	Epochs    int // total epochs completed, including epochs before a resume
	FinalLoss float64
	Duration  time.Duration
	// Interrupted reports that a cancelled context stopped the run at an
	// epoch boundary; the last Checkpoint call holds the state to resume from.
	Interrupted bool
}

// snapshotParams deep-copies the current parameter values.
func snapshotParams(params []nn.Param) [][]float64 {
	out := make([][]float64, len(params))
	for i, p := range params {
		out[i] = append([]float64(nil), p.Value...)
	}
	return out
}

// restoreParams writes a snapshot back into the parameters.
func restoreParams(params []nn.Param, snap [][]float64) {
	for i, p := range params {
		copy(p.Value, snap[i])
	}
}

// Train optimizes the model on the labelled graphs. Graphs must carry
// LatencyMs and ThroughputEPS labels. Returns an error for empty input and,
// before any epoch runs, for a graph that checkGraph rejects: a label that is
// not positive and finite, a NaN or infinite feature, or a broken structure.
// A run lasts exactly cfg.Epochs epochs unless its context is cancelled.
//
// The context plays two roles. Cancelling it requests a clean stop: training
// halts at the next epoch boundary — after a final Checkpoint call when one
// is configured — and TrainStats.Interrupted reports the interrupt. This is
// how SIGINT/SIGTERM becomes a resumable checkpoint instead of lost work.
// When it carries an obs tracer, every epoch emits a "train.epoch"
// span with loss, gradient norm, and shuffle/checkpoint timings.
//
// A minibatch is one batched step (see trainStep): every sub-network runs
// once over the stacked rows of all the batch's graphs that use it — the
// data-flow combiner once per topological depth level — as float64 GEMMs
// whose rows are bit-identical to the per-graph mat-vecs, and each weight
// gradient is one sum over the batch's samples in sample order (graph in
// batch order, then node in per-graph backward order) into the model's single
// gradient buffer. One worker team of cfg.Workers (parallel.Team) runs every
// step as three phases: chunks of the batch's graphs, then the per-layer
// gradient sums in Model.Params order with the global gradient norm's one
// ordered sum of squares following them as they finish, then the Adam step
// over the parameter tensors, largest first, reading each gradient through
// the clip's scale (nn.Adam.StepScaled) instead of rescaling it in place.
// Between phases the team's goroutines poll for a bounded time before they
// park, and they end before Train returns, on every path. Nothing is split inside a sum, so
// fixed-seed runs produce bit-identical models at any worker count, and the
// same bits as ClipGradNorm followed by Adam.Step.
func Train(ctx context.Context, m *Model, graphs []*features.Graph, cfg TrainConfig) (TrainStats, error) {
	if len(graphs) == 0 {
		return TrainStats{}, fmt.Errorf("gnn: no training graphs")
	}
	if cfg.Epochs <= 0 || cfg.BatchSize <= 0 || cfg.LR <= 0 {
		return TrainStats{}, fmt.Errorf("gnn: invalid train config %+v", cfg)
	}
	for i, g := range graphs {
		if err := checkGraph(g); err != nil {
			return TrainStats{}, fmt.Errorf("gnn: training graph %d: %w", i, err)
		}
	}
	start := time.Now()
	rng := tensor.NewRNG(cfg.Seed)
	opt := nn.NewAdam(cfg.LR)
	opt.WeightDecay = cfg.WeightDecay

	workers := cfg.Workers
	if workers <= 0 {
		workers = parallel.Workers()
	}
	step := newTrainStep(m, workers, cfg.HuberDelta)
	defer step.team.Close()
	step.clip = cfg.ClipNorm > 0
	batch := make([]*features.Graph, 0, cfg.BatchSize)
	params := m.Params()

	idx := make([]int, len(graphs))
	for i := range idx {
		idx[i] = i
	}
	startEpoch := 0
	if cfg.Resume != nil {
		if err := cfg.Resume.restore(params, opt, rng, idx, len(graphs)); err != nil {
			return TrainStats{}, err
		}
		startEpoch = cfg.Resume.Epoch
	}
	ckptEvery := cfg.CheckpointEvery
	if ckptEvery < 1 {
		ckptEvery = 1
	}

	var meanLoss float64
	epochsRun := startEpoch
	interrupted := false
	for epoch := startEpoch; epoch < cfg.Epochs; epoch++ {
		epochsRun = epoch + 1
		_, epochSpan := obs.StartSpan(ctx, "train.epoch")
		epochSpan.SetAttr("epoch", epoch)
		shuffleStart := time.Now()
		rng.Shuffle(idx)
		epochSpan.SetAttr("shuffle_ms", float64(time.Since(shuffleStart))/float64(time.Millisecond))
		var epochLoss float64
		var gradNorm float64
		for batchStart := 0; batchStart < len(idx); batchStart += cfg.BatchSize {
			end := batchStart + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			batch = batch[:0]
			for _, gi := range idx[batchStart:end] {
				batch = append(batch, graphs[gi])
			}
			step.run(batch)
			for _, loss := range step.losses {
				epochLoss += loss
			}
			gradNorm = step.norm
			opt.StepScaled(step.team, params, nn.GradScale(gradNorm, cfg.ClipNorm))
		}
		meanLoss = epochLoss / float64(len(idx))
		epochSpan.SetAttr("loss", meanLoss)
		if cfg.ClipNorm > 0 {
			// Pre-clip global gradient norm of the epoch's last batch — the
			// cheap per-epoch signal for divergence monitoring.
			epochSpan.SetAttr("grad_norm", gradNorm)
		}
		if cfg.Progress != nil {
			cfg.Progress(epoch, meanLoss)
		}
		// Context cancellation is an interrupt: stop cleanly at the epoch
		// boundary, after the final checkpoint below.
		interrupted = ctx.Err() != nil
		// Checkpoint on schedule, at the natural end, and at an interrupt
		// boundary (so a signal loses at most the in-progress epoch, never
		// the run).
		if cfg.Checkpoint != nil && ((epoch+1)%ckptEvery == 0 || epoch == cfg.Epochs-1 || interrupted) {
			ckptStart := time.Now()
			ck := captureCheckpoint(epoch+1, params, opt, rng, idx)
			err := fault.Inject(fault.CheckpointWrite)
			if err == nil {
				err = cfg.Checkpoint(ck)
			}
			epochSpan.SetAttr("checkpoint_ms", float64(time.Since(ckptStart))/float64(time.Millisecond))
			if err != nil {
				epochSpan.End()
				return TrainStats{}, fmt.Errorf("gnn: checkpoint after epoch %d: %w", epoch+1, err)
			}
		}
		epochSpan.End()
		if interrupted {
			break
		}
	}
	return TrainStats{Epochs: epochsRun, FinalLoss: meanLoss, Duration: time.Since(start), Interrupted: interrupted}, nil
}
