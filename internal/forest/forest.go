// Package forest implements a random-forest regressor (bagged CART trees
// with feature subsampling) — the third flat-vector baseline model of the
// paper's evaluation.
package forest

import (
	"fmt"
	"math"
	"sort"

	"zerotune/internal/tensor"
)

// Config holds the forest hyper-parameters.
type Config struct {
	Trees       int
	MaxDepth    int
	MinLeaf     int // minimum samples per leaf
	FeatureFrac float64
	Seed        uint64
}

// DefaultConfig returns a forest sized for the experiment datasets.
func DefaultConfig() Config {
	return Config{Trees: 50, MaxDepth: 12, MinLeaf: 3, FeatureFrac: 0.6, Seed: 1}
}

// Forest is a trained random forest for one regression target.
type Forest struct {
	cfg   Config
	trees []*node
	dim   int
}

// node is a CART tree node; leaves carry the mean target value.
type node struct {
	feature  int
	thresh   float64
	left     *node
	right    *node
	value    float64
	isLeaf   bool
	nSamples int
}

// Fit trains the forest on rows X with targets y.
func Fit(X []tensor.Vector, y []float64, cfg Config) (*Forest, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, fmt.Errorf("forest: bad training set (%d rows, %d targets)", len(X), len(y))
	}
	if cfg.Trees <= 0 || cfg.MaxDepth <= 0 || cfg.MinLeaf <= 0 {
		return nil, fmt.Errorf("forest: invalid config %+v", cfg)
	}
	if cfg.FeatureFrac <= 0 || cfg.FeatureFrac > 1 {
		cfg.FeatureFrac = 1
	}
	f := &Forest{cfg: cfg, dim: len(X[0])}
	rng := tensor.NewRNG(cfg.Seed)
	for t := 0; t < cfg.Trees; t++ {
		// Bootstrap sample.
		idx := make([]int, len(X))
		for i := range idx {
			idx[i] = rng.Intn(len(X))
		}
		tree := f.grow(X, y, idx, 0, rng)
		f.trees = append(f.trees, tree)
	}
	return f, nil
}

// grow recursively builds a CART node over the sample indices.
func (f *Forest) grow(X []tensor.Vector, y []float64, idx []int, depth int, rng *tensor.RNG) *node {
	mean := 0.0
	for _, i := range idx {
		mean += y[i]
	}
	mean /= float64(len(idx))

	if depth >= f.cfg.MaxDepth || len(idx) < 2*f.cfg.MinLeaf || pure(y, idx) {
		return &node{isLeaf: true, value: mean, nSamples: len(idx)}
	}

	// Feature subsample.
	nFeat := int(math.Ceil(f.cfg.FeatureFrac * float64(f.dim)))
	feats := rng.Perm(f.dim)[:nFeat]

	bestFeat, bestThresh, bestScore := -1, 0.0, math.Inf(1)
	vals := make([]float64, 0, len(idx))
	for _, feat := range feats {
		vals = vals[:0]
		for _, i := range idx {
			vals = append(vals, X[i][feat])
		}
		sort.Float64s(vals)
		// Candidate thresholds: a handful of quantile midpoints.
		for q := 1; q < 8; q++ {
			pos := q * len(vals) / 8
			if pos == 0 || pos >= len(vals) {
				continue
			}
			thresh := (vals[pos-1] + vals[pos]) / 2
			if vals[pos-1] == vals[pos] {
				continue
			}
			score := splitScore(X, y, idx, feat, thresh, f.cfg.MinLeaf)
			if score < bestScore {
				bestFeat, bestThresh, bestScore = feat, thresh, score
			}
		}
	}
	if bestFeat < 0 {
		return &node{isLeaf: true, value: mean, nSamples: len(idx)}
	}

	var leftIdx, rightIdx []int
	for _, i := range idx {
		if X[i][bestFeat] <= bestThresh {
			leftIdx = append(leftIdx, i)
		} else {
			rightIdx = append(rightIdx, i)
		}
	}
	if len(leftIdx) < f.cfg.MinLeaf || len(rightIdx) < f.cfg.MinLeaf {
		return &node{isLeaf: true, value: mean, nSamples: len(idx)}
	}
	return &node{
		feature:  bestFeat,
		thresh:   bestThresh,
		left:     f.grow(X, y, leftIdx, depth+1, rng),
		right:    f.grow(X, y, rightIdx, depth+1, rng),
		nSamples: len(idx),
	}
}

// splitScore returns the weighted variance after splitting idx on
// (feat, thresh), or +Inf when a side falls under minLeaf.
func splitScore(X []tensor.Vector, y []float64, idx []int, feat int, thresh float64, minLeaf int) float64 {
	var nL, nR int
	var sumL, sumR, sqL, sqR float64
	for _, i := range idx {
		v := y[i]
		if X[i][feat] <= thresh {
			nL++
			sumL += v
			sqL += float64(v * v)
		} else {
			nR++
			sumR += v
			sqR += float64(v * v)
		}
	}
	if nL < minLeaf || nR < minLeaf {
		return math.Inf(1)
	}
	varL := sqL - sumL*sumL/float64(nL)
	varR := sqR - sumR*sumR/float64(nR)
	return varL + varR
}

// pure reports whether all targets in idx are (nearly) identical.
func pure(y []float64, idx []int) bool {
	first := y[idx[0]]
	for _, i := range idx[1:] {
		if math.Abs(y[i]-first) > 1e-12 {
			return false
		}
	}
	return true
}

// Predict returns the forest's mean prediction for one row.
func (f *Forest) Predict(x tensor.Vector) float64 {
	if len(x) != f.dim {
		panic(fmt.Sprintf("forest: input width %d, want %d", len(x), f.dim))
	}
	var sum float64
	for _, t := range f.trees {
		sum += predictTree(t, x)
	}
	return sum / float64(len(f.trees))
}

func predictTree(n *node, x tensor.Vector) float64 {
	for !n.isLeaf {
		if x[n.feature] <= n.thresh {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// NumTrees returns the number of trees in the forest.
func (f *Forest) NumTrees() int { return len(f.trees) }

// Depth returns the maximum depth across trees (for diagnostics).
func (f *Forest) Depth() int {
	maxD := 0
	var walk func(n *node, d int)
	walk = func(n *node, d int) {
		if n == nil {
			return
		}
		if d > maxD {
			maxD = d
		}
		walk(n.left, d+1)
		walk(n.right, d+1)
	}
	for _, t := range f.trees {
		walk(t, 0)
	}
	return maxD
}
