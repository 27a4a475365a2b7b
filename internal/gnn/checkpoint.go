package gnn

import (
	"fmt"

	"zerotune/internal/nn"
	"zerotune/internal/tensor"
)

// Checkpoint is a resumable snapshot of a Train run, captured at an epoch
// boundary. It holds everything the loop's next epoch depends on — parameter
// values, Adam moments, the RNG cursor and the current example order (epoch
// shuffles compound, so the permutation itself is state) — which is what
// makes a resumed run bit-identical to one that was never interrupted.
type Checkpoint struct {
	// Epoch counts completed epochs; the resumed run starts at this epoch
	// index.
	Epoch int `json:"epoch"`
	// Params are the flat parameter tensors in Model.Params order.
	Params [][]float64 `json:"params"`
	// Opt is the Adam step count and moment estimates.
	Opt nn.AdamState `json:"opt"`
	// RNG is the shuffle generator's cursor after the last completed epoch.
	RNG uint64 `json:"rng"`
	// Idx is the current training-example permutation.
	Idx []int `json:"idx"`
}

// captureCheckpoint snapshots the loop state after `completed` epochs.
func captureCheckpoint(completed int, params []nn.Param, opt *nn.Adam, rng *tensor.RNG, idx []int) *Checkpoint {
	return &Checkpoint{
		Epoch:  completed,
		Params: snapshotParams(params),
		Opt:    opt.State(),
		RNG:    rng.State(),
		Idx:    append([]int(nil), idx...),
	}
}

// restore validates the checkpoint against the model/corpus being resumed
// and writes its state back into the training loop's structures. nGraphs is
// the training-set size; a checkpoint from a different corpus or model
// architecture is rejected with a descriptive error instead of silently
// producing a diverged run.
func (ck *Checkpoint) restore(params []nn.Param, opt *nn.Adam, rng *tensor.RNG, idx []int, nGraphs int) error {
	if ck.Epoch < 0 {
		return fmt.Errorf("gnn: checkpoint has negative epoch %d", ck.Epoch)
	}
	if len(ck.Params) != len(params) {
		return fmt.Errorf("gnn: checkpoint has %d parameter tensors, model has %d (architecture mismatch?)",
			len(ck.Params), len(params))
	}
	for i, p := range params {
		if len(ck.Params[i]) != len(p.Value) {
			return fmt.Errorf("gnn: checkpoint tensor %d has %d values, model expects %d",
				i, len(ck.Params[i]), len(p.Value))
		}
	}
	if len(ck.Idx) != nGraphs {
		return fmt.Errorf("gnn: checkpoint permutes %d examples, training set has %d (different corpus?)",
			len(ck.Idx), nGraphs)
	}
	seen := make([]bool, nGraphs)
	for _, v := range ck.Idx {
		if v < 0 || v >= nGraphs || seen[v] {
			return fmt.Errorf("gnn: checkpoint example order is not a permutation of [0,%d)", nGraphs)
		}
		seen[v] = true
	}
	if ck.Opt.M != nil && len(ck.Opt.M) != len(params) {
		return fmt.Errorf("gnn: checkpoint optimizer tracks %d tensors, model has %d", len(ck.Opt.M), len(params))
	}
	for i := range ck.Opt.M {
		if len(ck.Opt.M[i]) != len(params[i].Value) {
			return fmt.Errorf("gnn: checkpoint optimizer moment %d has %d values, model expects %d",
				i, len(ck.Opt.M[i]), len(params[i].Value))
		}
	}
	restoreParams(params, ck.Params)
	if err := opt.SetState(ck.Opt); err != nil {
		return fmt.Errorf("gnn: checkpoint: %w", err)
	}
	rng.SetState(ck.RNG)
	copy(idx, ck.Idx)
	return nil
}
