// Package experiments reproduces every table and figure of the paper's
// evaluation (Sec. V). Each RunXxx function regenerates one artifact —
// Table IV, Figs. 3 and 5–11 — returning a result struct whose String()
// renders the same rows/series the paper reports.
//
// The Lab caches the expensive shared state (the labelled training corpus,
// the trained ZeroTune model, the flat-vector baselines) so a full
// experiment suite trains each model once. Dataset sizes are scaled down
// from the paper's 24k-query corpus via Config so the suite runs on a
// single machine in minutes; EXPERIMENTS.md records paper-vs-measured
// shapes.
package experiments

import (
	"bytes"
	"context"
	"fmt"
	"sync"

	"zerotune/internal/cluster"
	"zerotune/internal/core"
	"zerotune/internal/flatvec"
	"zerotune/internal/forest"
	"zerotune/internal/gnn"
	"zerotune/internal/optisample"
	"zerotune/internal/tensor"
	"zerotune/internal/workload"
)

// Config scales the experiment suite.
type Config struct {
	// TrainQueries is the size of the seen-workload corpus (paper: 24,000;
	// split 80/10/10).
	TrainQueries int
	// TestPerType is the number of evaluation queries per unseen structure
	// (paper: 200).
	TestPerType int
	// Epochs for model training.
	Epochs int
	// Hidden width of the GNN.
	Hidden int
	// FewShotQueries for the Fig. 6 fine-tuning set (paper: 500).
	FewShotQueries int
	// TuneQueriesPerType for the Fig. 10 optimizer comparison (paper: 100).
	TuneQueriesPerType int
	// Seed drives all sampling.
	Seed uint64
	// Workers caps the data-parallel fan-out of corpus generation and model
	// training (0 resolves via parallel.Workers: the ZEROTUNE_WORKERS
	// override or GOMAXPROCS). Results are identical for any worker count.
	Workers int
}

// DefaultConfig returns the scaled-down configuration used by the bench
// harness (minutes, not hours).
func DefaultConfig() Config {
	return Config{
		TrainQueries:       2500,
		TestPerType:        100,
		Epochs:             50,
		Hidden:             48,
		FewShotQueries:     300,
		TuneQueriesPerType: 10,
		Seed:               1,
	}
}

// PaperScaleConfig approaches the paper's dataset sizes (hours of CPU
// training).
func PaperScaleConfig() Config {
	return Config{
		TrainQueries:       24000,
		TestPerType:        200,
		Epochs:             80,
		Hidden:             64,
		FewShotQueries:     500,
		TuneQueriesPerType: 100,
		Seed:               1,
	}
}

// QuickConfig is the smoke scale: every artifact regenerates in seconds. It
// is the configuration CI's determinism job pins (`experiment all -scale
// quick` twice, CSVs compared byte for byte).
func QuickConfig() Config {
	return Config{
		TrainQueries:       400,
		TestPerType:        30,
		Epochs:             12,
		Hidden:             24,
		FewShotQueries:     60,
		TuneQueriesPerType: 3,
		Seed:               1,
	}
}

// ScaleConfig returns the configuration named quick, default or paper.
func ScaleConfig(scale string) (Config, error) {
	cfg, ok := map[string]func() Config{"quick": QuickConfig, "default": DefaultConfig, "paper": PaperScaleConfig}[scale]
	if !ok {
		return Config{}, fmt.Errorf("experiments: unknown scale %q (want quick, default or paper)", scale)
	}
	return cfg(), nil
}

// Lab holds the shared, lazily built experiment state.
type Lab struct {
	Cfg Config

	mu        sync.Mutex
	items     []*workload.Item
	ds        *workload.Dataset
	zt        *core.ZeroTune
	ztStats   gnn.TrainStats
	baselines *Baselines
}

// Baselines bundles the trained flat-vector models (Fig. 5): linear
// regression, deep MLP and random forest, each with one regressor per cost
// metric (log space).
type Baselines struct {
	LinLat, LinTpt *flatvec.LinearRegression
	MLP            *flatvec.MLPModel
	RFLat, RFTpt   *forest.Forest
}

// NewLab returns a lab for the given configuration.
func NewLab(cfg Config) *Lab {
	if cfg.TrainQueries <= 0 {
		cfg = DefaultConfig()
	}
	return &Lab{Cfg: cfg}
}

// Dataset returns the seen-workload corpus, generating and splitting it on
// first use (OptiSample enumeration on seen structures, ranges, hardware).
func (l *Lab) Dataset() (*workload.Dataset, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.datasetLocked()
}

func (l *Lab) datasetLocked() (*workload.Dataset, error) {
	if l.ds != nil {
		return l.ds, nil
	}
	gen := workload.NewSeenGenerator(l.Cfg.Seed)
	gen.Workers = l.Cfg.Workers
	items, err := gen.Generate(workload.SeenRanges().Structures, l.Cfg.TrainQueries)
	if err != nil {
		return nil, fmt.Errorf("experiments: generate corpus: %w", err)
	}
	ds, err := workload.Split(items, 0.8, 0.1, l.Cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	l.items, l.ds = items, ds
	return ds, nil
}

// ZeroTune returns the trained model, training it on first use.
func (l *Lab) ZeroTune() (*core.ZeroTune, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.zerotuneLocked()
}

func (l *Lab) zerotuneLocked() (*core.ZeroTune, error) {
	if l.zt != nil {
		return l.zt, nil
	}
	ds, err := l.datasetLocked()
	if err != nil {
		return nil, err
	}
	zt, stats, err := core.Train(context.Background(), ds.Train, l.trainOptions())
	if err != nil {
		return nil, fmt.Errorf("experiments: train ZeroTune: %w", err)
	}
	l.zt, l.ztStats = zt, stats
	return zt, nil
}

// trainOptions is the lab's Config as the training configuration every model
// the suite trains starts from.
func (l *Lab) trainOptions() *core.TrainOptions {
	opts := core.DefaultTrainOptions()
	opts.Hidden, opts.HeadHidden = l.Cfg.Hidden, l.Cfg.Hidden
	opts.Epochs, opts.Seed, opts.Workers = l.Cfg.Epochs, l.Cfg.Seed, l.Cfg.Workers
	return opts
}

// CloneZeroTune returns an independent copy of the trained model (for
// few-shot fine-tuning without disturbing the shared instance).
func (l *Lab) CloneZeroTune() (*core.ZeroTune, error) {
	zt, err := l.ZeroTune()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := zt.Save(&buf); err != nil {
		return nil, err
	}
	return core.Load(&buf)
}

// FlatBaselines returns the trained flat-vector baselines, fitting them on
// first use with the same training split as the GNN.
func (l *Lab) FlatBaselines() (*Baselines, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.baselines != nil {
		return l.baselines, nil
	}
	ds, err := l.datasetLocked()
	if err != nil {
		return nil, err
	}
	X := make([]tensor.Vector, len(ds.Train))
	yLat := make([]float64, len(ds.Train))
	yTpt := make([]float64, len(ds.Train))
	for i, it := range ds.Train {
		X[i] = flatvec.FromPlan(it.Plan, it.Cluster)
		yLat[i] = gnn.LogTarget(it.LatencyMs)
		yTpt[i] = gnn.LogTarget(it.ThroughputEPS)
	}
	b := &Baselines{
		LinLat: flatvec.NewLinearRegression(1e-3),
		LinTpt: flatvec.NewLinearRegression(1e-3),
	}
	if err := b.LinLat.Fit(X, yLat); err != nil {
		return nil, err
	}
	if err := b.LinTpt.Fit(X, yTpt); err != nil {
		return nil, err
	}
	b.MLP = flatvec.NewMLPModel(tensor.NewRNG(l.Cfg.Seed+7), 64)
	mlpCfg := flatvec.DefaultMLPTrainConfig()
	mlpCfg.Epochs = l.Cfg.Epochs
	mlpCfg.Seed = l.Cfg.Seed
	if err := b.MLP.Fit(X, yLat, yTpt, mlpCfg); err != nil {
		return nil, err
	}
	fCfg := forest.DefaultConfig()
	fCfg.Seed = l.Cfg.Seed
	b.RFLat, err = forest.Fit(X, yLat, fCfg)
	if err != nil {
		return nil, err
	}
	fCfg.Seed = l.Cfg.Seed + 1
	b.RFTpt, err = forest.Fit(X, yTpt, fCfg)
	if err != nil {
		return nil, err
	}
	l.baselines = b
	return b, nil
}

// UnseenStructures generates evaluation items for one unseen structure,
// keeping parameters and hardware within the seen ranges so the measurement
// isolates *structural* generalization (Exp. 1 ②). Seeds differ per
// structure so sets are independent.
func (l *Lab) UnseenStructures(structure string, n int, seedOffset uint64) ([]*workload.Item, error) {
	gen := &workload.Generator{
		Ranges:    workload.SeenRanges(),
		Strategy:  optisample.Default(),
		Seed:      l.Cfg.Seed + 1000 + seedOffset,
		NodeTypes: cluster.SeenTypes(),
		Workers:   l.Cfg.Workers,
	}
	return gen.Generate([]string{structure}, n)
}
