package gnn

import (
	"context"
	"fmt"
	"math"

	"zerotune/internal/features"
	"zerotune/internal/nn"
	"zerotune/internal/parallel"
	"zerotune/internal/tensor"
)

// Support for additional cost metrics (paper Sec. III-A: "our model can be
// fine-tuned for other cost metrics like resource usage ... by simply
// replacing the final MLP node"): the trained graph encoder is frozen and a
// fresh read-out head is fitted on a small labelled set for the new metric.

// Embed runs the frozen graph passes and returns the pooled state
// [sink ‖ mean of per-operator states] that read-out heads consume.
func (m *Model) Embed(g *features.Graph) tensor.Vector {
	tr := &trace{}
	m.forwardInto(tr, g)
	return tr.pooled.Clone()
}

// MetricHead is a read-out for one additional cost metric, regressing
// log10(metric) from the frozen graph embedding.
type MetricHead struct {
	Name string
	Net  *nn.MLP
}

// FineTuneMetricHead fits a fresh head for a new metric on labelled graphs,
// keeping every encoder weight frozen (only the new head trains). targets
// are the metric values in natural units; they are regressed in log10
// space with Huber loss. Before any epoch runs it returns an error naming the
// index of a target that is NaN, infinite or negative, or of a graph that
// checkStructure rejects.
func FineTuneMetricHead(ctx context.Context, m *Model, name string, graphs []*features.Graph, targets []float64, cfg TrainConfig) (*MetricHead, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(graphs) == 0 || len(graphs) != len(targets) {
		return nil, fmt.Errorf("gnn: bad metric fine-tuning set (%d graphs, %d targets)", len(graphs), len(targets))
	}
	if cfg.Epochs <= 0 || cfg.BatchSize <= 0 || cfg.LR <= 0 {
		return nil, fmt.Errorf("gnn: invalid metric train config %+v", cfg)
	}
	for i, t := range targets {
		if math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
			return nil, fmt.Errorf("gnn: metric target %d is %v, want finite and non-negative", i, t)
		}
	}
	for i, g := range graphs {
		if err := checkStructure(g); err != nil {
			return nil, fmt.Errorf("gnn: metric graph %d: %w", i, err)
		}
	}
	// Precompute embeddings once: the encoder is frozen, so they never
	// change during head training. The passes are read-only on the model,
	// so they fan out across workers with one reusable trace each.
	emb := make([]tensor.Vector, len(graphs))
	workers := cfg.Workers
	if workers <= 0 {
		workers = parallel.Workers()
	}
	workers = parallel.Clamp(workers, len(graphs))
	traces := make([]*trace, workers)
	parallel.ForWorker(len(graphs), workers, func(w, i int) {
		if traces[w] == nil {
			traces[w] = &trace{}
		}
		m.forwardInto(traces[w], graphs[i])
		emb[i] = traces[w].pooled.Clone()
	})
	rng := tensor.NewRNG(cfg.Seed ^ 0xC0FFEE)
	head := nn.NewMLP(rng, []int{2 * m.Cfg.Hidden, m.Cfg.HeadHidden, 1}, nn.LeakyReLU, nn.Identity)
	opt := nn.NewAdam(cfg.LR)
	idx := make([]int, len(graphs))
	for i := range idx {
		idx[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(idx)
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			head.ZeroGrad()
			for _, i := range idx[start:end] {
				tr := head.Forward(emb[i])
				_, grad := nn.Huber(tr.Output()[0], LogTarget(targets[i]), cfg.HuberDelta)
				head.Backward(tr, tensor.Vector{grad})
			}
			params := head.Params()
			scale := 1.0 / float64(end-start)
			for _, p := range params {
				for j := range p.Grad {
					p.Grad[j] *= scale
				}
			}
			if cfg.ClipNorm > 0 {
				nn.ClipGradNorm(params, cfg.ClipNorm)
			}
			opt.Step(params, 1)
		}
	}
	return &MetricHead{Name: name, Net: head}, nil
}

// Predict returns the metric estimate in natural units for one graph.
func (h *MetricHead) Predict(m *Model, g *features.Graph) float64 {
	return math.Pow(10, h.Net.Predict(m.Embed(g))[0])
}
