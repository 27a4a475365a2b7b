package workload

import (
	"fmt"

	"zerotune/internal/features"
	"zerotune/internal/tensor"
)

// Dataset is a labelled workload split. The trainers consume Train and the
// evaluations Test; Val is a held-back share that nothing reads, kept so that
// Train and Test draw the same items they always have.
type Dataset struct {
	Train []*Item
	Val   []*Item
	Test  []*Item
}

// Split partitions items into train/val/test with the paper's 80/10/10
// default, shuffling deterministically with the seed. Fractions must sum
// to at most 1; the remainder (if any) goes to test.
func Split(items []*Item, trainFrac, valFrac float64, seed uint64) (*Dataset, error) {
	if len(items) == 0 {
		return nil, fmt.Errorf("workload: cannot split an empty dataset")
	}
	if trainFrac <= 0 || valFrac < 0 || trainFrac+valFrac > 1 {
		return nil, fmt.Errorf("workload: bad split fractions train=%v val=%v", trainFrac, valFrac)
	}
	idx := tensor.NewRNG(seed).Perm(len(items))
	nTrain := int(trainFrac * float64(len(items)))
	nVal := int(valFrac * float64(len(items)))
	if nTrain == 0 {
		nTrain = 1
	}
	ds := &Dataset{}
	for i, j := range idx {
		switch {
		case i < nTrain:
			ds.Train = append(ds.Train, items[j])
		case i < nTrain+nVal:
			ds.Val = append(ds.Val, items[j])
		default:
			ds.Test = append(ds.Test, items[j])
		}
	}
	return ds, nil
}

// Graphs extracts the encoded graphs of the items.
func Graphs(items []*Item) []*features.Graph {
	out := make([]*features.Graph, len(items))
	for i, it := range items {
		out[i] = it.Graph
	}
	return out
}

// Reencode rebuilds every item's graph with the given feature mask (used by
// the Fig. 11 ablation, which retrains the model on masked features without
// regenerating the workload).
func Reencode(items []*Item, mask features.Mask) ([]*Item, error) {
	out := make([]*Item, len(items))
	for i, it := range items {
		g, err := features.Encode(it.Plan, it.Cluster, mask)
		if err != nil {
			return nil, fmt.Errorf("workload: reencode item %d: %w", i, err)
		}
		g.LatencyMs = it.LatencyMs
		g.ThroughputEPS = it.ThroughputEPS
		clone := *it
		clone.Graph = g
		out[i] = &clone
	}
	return out, nil
}
