package flatvec

import (
	"fmt"

	"zerotune/internal/nn"
	"zerotune/internal/tensor"
)

// MLPModel is the "Flat Vector MLP" baseline: a deep network over the flat
// vector with two log-space outputs (latency, throughput).
type MLPModel struct {
	Net *nn.MLP
}

// NewMLPModel builds a flat-vector MLP with two hidden layers.
func NewMLPModel(rng *tensor.RNG, hidden int) *MLPModel {
	if hidden <= 0 {
		hidden = 64
	}
	return &MLPModel{Net: nn.NewMLP(rng, []int{Dim, hidden, hidden, 2}, nn.LeakyReLU, nn.Identity)}
}

// MLPTrainConfig configures MLP baseline training.
type MLPTrainConfig struct {
	Epochs     int
	BatchSize  int
	LR         float64
	HuberDelta float64
	Seed       uint64
}

// DefaultMLPTrainConfig mirrors the GNN's training budget for a fair
// comparison.
func DefaultMLPTrainConfig() MLPTrainConfig {
	return MLPTrainConfig{Epochs: 40, BatchSize: 16, LR: 3e-3, HuberDelta: 1.0, Seed: 1}
}

// Fit trains the network on flat vectors X with log-space targets
// yLat and yTpt.
func (m *MLPModel) Fit(X []tensor.Vector, yLat, yTpt []float64, cfg MLPTrainConfig) error {
	if len(X) == 0 || len(X) != len(yLat) || len(X) != len(yTpt) {
		return fmt.Errorf("flatvec: bad MLP training set (%d rows)", len(X))
	}
	if cfg.Epochs <= 0 || cfg.BatchSize <= 0 || cfg.LR <= 0 {
		return fmt.Errorf("flatvec: invalid MLP config %+v", cfg)
	}
	rng := tensor.NewRNG(cfg.Seed)
	opt := nn.NewAdam(cfg.LR)
	idx := make([]int, len(X))
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
			m.Net.ZeroGrad()
			for _, i := range idx[start:end] {
				tr := m.Net.Forward(X[i])
				out := tr.Output()
				_, g1 := nn.Huber(out[0], yLat[i], cfg.HuberDelta)
				_, g2 := nn.Huber(out[1], yTpt[i], cfg.HuberDelta)
				m.Net.Backward(tr, tensor.Vector{g1, g2})
			}
			params := m.Net.Params()
			scale := 1.0 / float64(end-start)
			for _, p := range params {
				for j := range p.Grad {
					p.Grad[j] *= scale
				}
			}
			nn.ClipGradNorm(params, 5)
			opt.Step(params, 1)
		}
	}
	return nil
}

// Predict returns (logLatency, logThroughput) for one flat vector.
func (m *MLPModel) Predict(x tensor.Vector) (logLat, logTpt float64) {
	out := m.Net.Predict(x)
	return out[0], out[1]
}
