package workload

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"zerotune/internal/cluster"
	"zerotune/internal/features"
	"zerotune/internal/optisample"
	"zerotune/internal/parallel"
	"zerotune/internal/queryplan"
	"zerotune/internal/simulator"
	"zerotune/internal/tensor"
)

// Item is one labelled workload sample: a placed parallel query plan, the
// cluster it runs on, its simulated costs, and the encoded GNN graph.
type Item struct {
	Plan          *queryplan.PQP
	Cluster       *cluster.Cluster
	LatencyMs     float64
	ThroughputEPS float64
	Graph         *features.Graph
}

// Overrides pins individual workload parameters for the Fig. 8 sweeps;
// zero values sample from the grid as usual.
type Overrides struct {
	EventRate        float64
	TupleWidth       int
	WindowLength     float64 // forces count-based windows of this length
	WindowDurationMs float64 // forces time-based windows of this duration
	Workers          int
	NodeTypes        []cluster.NodeType // forces the machine pool
}

// Generator samples labelled workloads.
type Generator struct {
	Ranges   Ranges
	Strategy optisample.Strategy
	Cost     *simulator.CostModel // nil = DefaultCostModel
	Mask     features.Mask
	Seed     uint64
	// NodeTypes to build clusters from; nil selects by the seen flag passed
	// to Generate.
	NodeTypes []cluster.NodeType
	// Workers caps the per-query fan-out of Generate (0 resolves via
	// parallel.Workers, i.e. the ZEROTUNE_WORKERS override or GOMAXPROCS).
	// Every item draws from its own index-derived RNG, so the corpus is
	// identical for any worker count.
	Workers int
}

// NewSeenGenerator returns a generator over the training grid with the
// OptiSample strategy — the paper's default data-collection setup.
func NewSeenGenerator(seed uint64) *Generator {
	return &Generator{Ranges: SeenRanges(), Strategy: optisample.Default(), Seed: seed, NodeTypes: cluster.SeenTypes()}
}

// NewUnseenGenerator returns a generator over the testing grid on unseen
// hardware.
func NewUnseenGenerator(seed uint64) *Generator {
	return &Generator{Ranges: UnseenRanges(), Strategy: optisample.Default(), Seed: seed, NodeTypes: cluster.UnseenTypes()}
}

// Generate samples n labelled items with structures drawn uniformly from
// the given template names.
func (g *Generator) Generate(structures []string, n int) ([]*Item, error) {
	return g.GenerateWith(structures, n, Overrides{})
}

// GenerateWith is Generate with parameter overrides. The simulate-and-label
// loop is embarrassingly parallel, so items fan out across a worker pool;
// each item draws from an RNG seeded by (generator seed, item index), which
// makes the corpus order-independent: the same seed yields the same items at
// any worker count.
func (g *Generator) GenerateWith(structures []string, n int, ov Overrides) ([]*Item, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: need a positive sample count, got %d", n)
	}
	if len(structures) == 0 {
		return nil, fmt.Errorf("workload: no structures given")
	}
	workers := g.Workers
	if workers <= 0 {
		workers = parallel.Workers()
	}
	items := make([]*Item, n)
	err := parallel.ForErr(n, workers, func(i int) error {
		rng := tensor.NewRNG(itemSeed(g.Seed, uint64(i)))
		item, err := g.sample(tensor.Pick(rng, structures), rng, ov)
		if err != nil {
			return fmt.Errorf("workload: sample %d: %w", i, err)
		}
		items[i] = item
		return nil
	})
	if err != nil {
		return nil, err
	}
	return items, nil
}

// itemSeed mixes the generator seed with an item index (splitmix64
// finalizer) so per-item RNG streams are decorrelated and independent of
// generation order.
func itemSeed(seed, i uint64) uint64 {
	x := seed + (i+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// SampleQuery draws one query and one cluster from the generator's ranges
// without assigning parallelism degrees or labels — the input the
// parallelism-tuning experiments hand to the optimizers. seq decorrelates
// consecutive draws under the same generator seed.
func (g *Generator) SampleQuery(structure string, seq uint64) (*queryplan.Query, *cluster.Cluster, error) {
	rng := tensor.NewRNG(g.Seed ^ (seq+1)*0x9E3779B97F4A7C15)
	q, err := g.buildQuery(structure, rng, Overrides{})
	if err != nil {
		return nil, nil, err
	}
	c, err := g.buildCluster(rng, Overrides{})
	if err != nil {
		return nil, nil, err
	}
	return q, c, nil
}

// sample draws one labelled item.
func (g *Generator) sample(structure string, rng *tensor.RNG, ov Overrides) (*Item, error) {
	q, err := g.buildQuery(structure, rng, ov)
	if err != nil {
		return nil, err
	}
	c, err := g.buildCluster(rng, ov)
	if err != nil {
		return nil, err
	}
	p := queryplan.NewPQP(q)
	strat := g.Strategy
	if strat == nil {
		strat = optisample.Default()
	}
	if err := strat.Assign(p, c, rng); err != nil {
		return nil, err
	}
	// Simulate places the plan, with the analysis it holds anyway.
	res, err := simulator.Simulate(p, c, simulator.Options{Cost: g.Cost, Seed: rng.Uint64()})
	if err != nil {
		return nil, err
	}
	graph, err := features.Encode(p, c, g.Mask)
	if err != nil {
		return nil, err
	}
	graph.LatencyMs = res.LatencyMs
	graph.ThroughputEPS = res.ThroughputEPS
	return &Item{
		Plan:          p,
		Cluster:       c,
		LatencyMs:     res.LatencyMs,
		ThroughputEPS: res.ThroughputEPS,
		Graph:         graph,
	}, nil
}

// buildCluster samples the hardware side.
func (g *Generator) buildCluster(rng *tensor.RNG, ov Overrides) (*cluster.Cluster, error) {
	workers := ov.Workers
	if workers == 0 {
		workers = tensor.Pick(rng, g.Ranges.Workers)
	}
	link := tensor.Pick(rng, g.Ranges.LinkGbps)
	types := ov.NodeTypes
	if types == nil {
		types = g.NodeTypes
	}
	if types == nil {
		types = cluster.SeenTypes()
	}
	return cluster.NewRandom(rng, workers, types, link)
}

// buildQuery instantiates a structure template with sampled parameters.
func (g *Generator) buildQuery(structure string, rng *tensor.RNG, ov Overrides) (*queryplan.Query, error) {
	switch {
	case structure == "linear":
		return queryplan.Linear(g.sampleSource(rng, ov), g.sampleFilter(rng), g.sampleAgg(rng, ov)), nil

	case strings.HasSuffix(structure, "-chained-filters"):
		n, err := strconv.Atoi(strings.TrimSuffix(structure, "-chained-filters"))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("workload: bad structure %q", structure)
		}
		filters := make([]queryplan.FilterSpec, n)
		for i := range filters {
			filters[i] = g.sampleFilter(rng)
		}
		return queryplan.ChainedFilters(n, g.sampleSource(rng, ov), filters), nil

	case strings.HasSuffix(structure, "-way-join"):
		n, err := strconv.Atoi(strings.TrimSuffix(structure, "-way-join"))
		if err != nil || n < 2 {
			return nil, fmt.Errorf("workload: bad structure %q", structure)
		}
		srcs := make([]queryplan.SourceSpec, n)
		filts := make([]queryplan.FilterSpec, n)
		for i := range srcs {
			srcs[i] = g.sampleSource(rng, ov)
			filts[i] = g.sampleFilter(rng)
		}
		joins := make([]queryplan.JoinSpec, n-1)
		for i := range joins {
			joins[i] = g.sampleJoin(rng, ov)
		}
		return queryplan.NWayJoin(n, srcs, filts, joins, g.sampleAgg(rng, ov)), nil

	case structure == "spike-detection":
		return queryplan.SpikeDetection(g.sampleRate(rng, ov)), nil
	case structure == "smart-grid-local":
		return queryplan.SmartGridLocal(g.sampleRate(rng, ov)), nil
	case structure == "smart-grid-global":
		return queryplan.SmartGridGlobal(g.sampleRate(rng, ov)), nil
	default:
		return nil, fmt.Errorf("workload: unknown structure %q", structure)
	}
}

func (g *Generator) sampleRate(rng *tensor.RNG, ov Overrides) float64 {
	if ov.EventRate > 0 {
		return ov.EventRate
	}
	return tensor.Pick(rng, g.Ranges.EventRates)
}

func (g *Generator) sampleSource(rng *tensor.RNG, ov Overrides) queryplan.SourceSpec {
	width := ov.TupleWidth
	if width == 0 {
		width = tensor.Pick(rng, g.Ranges.TupleWidths)
	}
	return queryplan.SourceSpec{
		EventRate:  g.sampleRate(rng, ov),
		TupleWidth: width,
		DataType:   tensor.Pick(rng, g.Ranges.DataTypes),
	}
}

func (g *Generator) sampleFilter(rng *tensor.RNG) queryplan.FilterSpec {
	funcs := []queryplan.CmpFunc{queryplan.CmpLT, queryplan.CmpLE, queryplan.CmpGT,
		queryplan.CmpGE, queryplan.CmpEQ, queryplan.CmpNE}
	classes := []queryplan.DataType{queryplan.TypeInt, queryplan.TypeDouble, queryplan.TypeString}
	return queryplan.FilterSpec{
		Func:         tensor.Pick(rng, funcs),
		LiteralClass: tensor.Pick(rng, classes),
		Selectivity:  rng.Range(0.05, 0.95),
	}
}

func (g *Generator) sampleWindow(rng *tensor.RNG, ov Overrides) queryplan.WindowSpec {
	var w queryplan.WindowSpec
	forceCount := ov.WindowLength > 0
	forceTime := ov.WindowDurationMs > 0
	if forceCount || (!forceTime && rng.Float64() < 0.5) {
		w.Policy = queryplan.PolicyCount
		w.Length = ov.WindowLength
		if w.Length == 0 {
			w.Length = tensor.Pick(rng, g.Ranges.WindowLengths)
		}
	} else {
		w.Policy = queryplan.PolicyTime
		w.Length = ov.WindowDurationMs
		if w.Length == 0 {
			w.Length = tensor.Pick(rng, g.Ranges.WindowDurations)
		}
	}
	if rng.Float64() < 0.5 {
		w.Type = queryplan.WindowTumbling
	} else {
		w.Type = queryplan.WindowSliding
		ratio := tensor.Pick(rng, g.Ranges.SlideRatios)
		w.Slide = math.Max(1, math.Round(w.Length*ratio))
	}
	return w
}

func (g *Generator) sampleAgg(rng *tensor.RNG, ov Overrides) queryplan.AggSpec {
	funcs := []queryplan.AggFunc{queryplan.AggMin, queryplan.AggMax, queryplan.AggAvg,
		queryplan.AggSum, queryplan.AggCount}
	classes := []queryplan.DataType{queryplan.TypeInt, queryplan.TypeDouble}
	keyClasses := []queryplan.DataType{queryplan.TypeNone, queryplan.TypeInt, queryplan.TypeString}
	return queryplan.AggSpec{
		Func:        tensor.Pick(rng, funcs),
		Class:       tensor.Pick(rng, classes),
		KeyClass:    tensor.Pick(rng, keyClasses),
		Selectivity: rng.Range(0.01, 0.8),
		Window:      g.sampleWindow(rng, ov),
	}
}

func (g *Generator) sampleJoin(rng *tensor.RNG, ov Overrides) queryplan.JoinSpec {
	classes := []queryplan.DataType{queryplan.TypeInt, queryplan.TypeString}
	// Equi-join selectivity ≈ 1/k for k distinct keys; sample k
	// log-uniformly in [100, 50k] so join amplification stays plausible.
	k := math.Pow(10, rng.Range(2, 4.7))
	return queryplan.JoinSpec{
		KeyClass:    tensor.Pick(rng, classes),
		Selectivity: 1 / k,
		Window:      g.sampleWindow(rng, ov),
	}
}
