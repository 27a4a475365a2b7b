// Package core is the public face of the library: it ties the featurizer,
// the zero-shot GNN cost model and the parallelism optimizer together into
// the workflow of Fig. 2 — train once on transferable features, then
// predict costs for unseen plans and tune parallelism degrees without ever
// deploying a candidate.
package core

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"zerotune/internal/artifact"
	"zerotune/internal/cluster"
	"zerotune/internal/features"
	"zerotune/internal/flatvec"
	"zerotune/internal/gnn"
	"zerotune/internal/metrics"
	"zerotune/internal/obs"
	"zerotune/internal/optimizer"
	"zerotune/internal/queryplan"
	"zerotune/internal/tensor"
	"zerotune/internal/workload"
)

// ZeroTune is a trained zero-shot cost model.
type ZeroTune struct {
	Model *gnn.Model
	// Mask is the feature visibility the model was trained with; prediction
	// uses the same mask.
	Mask features.Mask
	// Fallback is the cheap flat-vector estimator trained alongside the GNN
	// and persisted in the same artifact. The serving layer degrades to it
	// when the learned forward path is unavailable. Nil on models saved
	// before fallbacks existed.
	Fallback *flatvec.Fallback

	// compiled is the inference engine every prediction runs on (see
	// Compiled).
	compiled atomic.Pointer[gnn.CompiledModel]
}

// Compile builds an inference engine for the model (see gnn.Compile) and
// installs it. The accuracy gate runs first: an engine it refuses is not
// installed, and the error is returned. Train, FineTune and Load end here
// with the float32 engine. Safe to call concurrently with predictions;
// in-flight calls finish on the engine they started with.
func (z *ZeroTune) Compile(opts gnn.CompileOptions) error {
	cm, err := gnn.Compile(z.Model, z.Mask, opts)
	if err != nil {
		return err
	}
	z.compiled.Store(cm)
	return nil
}

// Compiled returns the engine every prediction runs on. A value assembled by
// hand rather than by Train, FineTune or Load has none until its first use,
// which builds the float64 reference engine: bit-identical to Model.Predict
// per graph. It panics when the model is invalid, as its forward pass would.
func (z *ZeroTune) Compiled() *gnn.CompiledModel {
	if cm := z.compiled.Load(); cm != nil {
		return cm
	}
	cm, err := gnn.Compile(z.Model, z.Mask, gnn.CompileOptions{Engine: gnn.EngineF64})
	if err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	z.compiled.CompareAndSwap(nil, cm)
	return z.compiled.Load()
}

// Train fits a fresh ZeroTune model on labelled workload items. The
// context cancels training at the next epoch boundary (after a final
// checkpoint when one is configured) and carries the tracer for the
// per-epoch spans the train loop emits.
func Train(ctx context.Context, items []*workload.Item, opts *TrainOptions) (*ZeroTune, gnn.TrainStats, error) {
	if err := opts.Validate(); err != nil {
		return nil, gnn.TrainStats{}, err
	}
	if len(items) == 0 {
		return nil, gnn.TrainStats{}, fmt.Errorf("core: no training items")
	}
	ctx, span := obs.StartSpan(ctx, "core.train")
	defer span.End()
	span.SetAttr("items", len(items))
	// Re-encode under the requested mask when it differs from the items'
	// encoding default (MaskAll).
	data := items
	if opts.Mask != features.MaskAll {
		var err error
		data, err = workload.Reencode(items, opts.Mask)
		if err != nil {
			return nil, gnn.TrainStats{}, err
		}
	}
	model := gnn.New(tensor.NewRNG(opts.Seed), opts.Config)
	stats, err := gnn.Train(ctx, model, workload.Graphs(data), opts.TrainConfig)
	if err != nil {
		return nil, gnn.TrainStats{}, err
	}
	// The degradation fallback trains on the same corpus. Its fit is
	// closed-form, so it adds no nondeterminism to the saved artifact.
	fb, err := FitFallback(items)
	if err != nil {
		return nil, gnn.TrainStats{}, err
	}
	z := &ZeroTune{Model: model, Mask: opts.Mask, Fallback: fb}
	if err := z.Compile(gnn.CompileOptions{}); err != nil {
		return nil, gnn.TrainStats{}, err
	}
	return z, stats, nil
}

// FitFallback fits the flat-vector ridge-regression fallback estimator on
// labelled items, using the same log-space targets the GNN trains against.
// Train calls it automatically; it is exported so a fallback can be
// (re)fitted for models trained before fallbacks existed.
func FitFallback(items []*workload.Item) (*flatvec.Fallback, error) {
	if len(items) == 0 {
		return nil, fmt.Errorf("core: no items to fit fallback on")
	}
	X := make([]tensor.Vector, len(items))
	yLat := make([]float64, len(items))
	yTpt := make([]float64, len(items))
	for i, it := range items {
		X[i] = flatvec.FromPlan(it.Plan, it.Cluster)
		yLat[i] = gnn.LogTarget(it.LatencyMs)
		yTpt[i] = gnn.LogTarget(it.ThroughputEPS)
	}
	return flatvec.FitFallback(X, yLat, yTpt, 1e-3)
}

// FineTune continues training on additional items (few-shot learning,
// Sec. V-A); FewShotTrainOptions is the usual schedule. The options'
// architecture and mask fields are ignored — the existing model fixes both.
// It ends by compiling the new weights; an accuracy-gate refusal is the
// returned error.
func (z *ZeroTune) FineTune(ctx context.Context, items []*workload.Item, opts *TrainOptions) (gnn.TrainStats, error) {
	if err := opts.Validate(); err != nil {
		return gnn.TrainStats{}, err
	}
	if len(items) == 0 {
		return gnn.TrainStats{}, fmt.Errorf("core: no fine-tuning items")
	}
	data := items
	if z.Mask != features.MaskAll {
		var err error
		data, err = workload.Reencode(items, z.Mask)
		if err != nil {
			return gnn.TrainStats{}, err
		}
	}
	stats, err := gnn.Train(ctx, z.Model, workload.Graphs(data), opts.TrainConfig)
	if err != nil {
		return stats, err
	}
	return stats, z.Compile(gnn.CompileOptions{})
}

// Predict estimates the cost of executing plan p on cluster c, placed as
// EncodePlan places it. p is left as it was.
func (z *ZeroTune) Predict(ctx context.Context, p *queryplan.PQP, c *cluster.Cluster) (gnn.Prediction, error) {
	if err := ctx.Err(); err != nil {
		return gnn.Prediction{}, err
	}
	var pred gnn.Prediction
	err := z.encodeOne(ctx, p, c, func(g *features.Graph) {
		_, span := obs.StartSpan(ctx, "gnn.forward")
		pred = z.Compiled().Predict(g)
		span.End()
	})
	return pred, err
}

// encodeOne encodes p on c as EncodePlan does, into an arena drawn from
// sweepArenas, and hands the graph to use, which must not keep it: the arena
// goes back to the pool when use returns.
func (z *ZeroTune) encodeOne(ctx context.Context, p *queryplan.PQP, c *cluster.Cluster, use func(*features.Graph)) error {
	t, err := p.Query.Analyze()
	if err != nil {
		return err
	}
	a := sweepArenas.Get().(*features.Arena)
	defer func() {
		a.Reset()
		sweepArenas.Put(a)
	}()
	g, err := z.EncodePlan(ctx, new(features.Encoder), a, t, p, nil, c)
	if err != nil {
		return err
	}
	use(g)
	return nil
}

// sweepArenas recycles the graph storage of PredictBatch calls. A sync.Pool,
// not a persistent free list: an idle arena should cost the heap nothing once
// the collector has run.
var sweepArenas = sync.Pool{New: func() any { return new(features.Arena) }}

// maxPooledSweep is the largest batch whose arena goes back to the pool. A
// tuning sweep prices a few dozen candidates; an experiment scoring a whole
// corpus in one call would leave slabs of its size behind for every later
// sweep to carry.
const maxPooledSweep = 256

// PredictBatch estimates costs for many plans on the same cluster, encoding
// the plans and running the model's batched forward pass. Plans that share a
// *queryplan.Query — every candidate set of a tuning sweep does — are
// analysed once: one features.Encoder serves each run of consecutive plans
// over the same query, so a plan costs only what its degree vector changes.
// The graphs are encoded into one recycled features.Arena and die with the
// call: nothing below keeps a graph once it has returned predictions. The
// plans are left as they were. Results match per-plan Predict calls in order
// and value for any worker count.
func (z *ZeroTune) PredictBatch(ctx context.Context, ps []*queryplan.PQP, c *cluster.Cluster) ([]gnn.Prediction, error) {
	var enc *features.Encoder
	var q *queryplan.Query
	return z.predictSweep(ctx, len(ps), func(a *features.Arena, i int) (*features.Graph, error) {
		p := ps[i]
		if enc == nil || q != p.Query {
			t, err := p.Query.Analyze()
			if err != nil {
				return nil, err
			}
			enc, q = features.NewEncoder(t, c, z.Mask), p.Query
		}
		return enc.EncodeIn(a, p, nil)
	})
}

// predictSweep encodes n graphs, graph i by encode, into one pooled arena and
// runs the batched forward pass over them under a "predict.batch" span. It is
// the body of PredictBatch and of the model's tuning sweep.
func (z *ZeroTune) predictSweep(ctx context.Context, n int, encode func(a *features.Arena, i int) (*features.Graph, error)) ([]gnn.Prediction, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	arena := sweepArenas.Get().(*features.Arena)
	if n <= maxPooledSweep {
		defer func() {
			arena.Reset()
			sweepArenas.Put(arena)
		}()
	}
	graphs := make([]*features.Graph, n)
	ctx, span := obs.StartSpan(ctx, "predict.batch")
	defer span.End()
	span.SetAttr("plans", n)
	for i := range graphs {
		g, err := encode(arena, i)
		if err != nil {
			return nil, err
		}
		graphs[i] = g
	}
	// Cancellation is honored between the encode and forward stages; the
	// forward pass itself runs to completion (milliseconds).
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, fwd := obs.StartSpan(ctx, "gnn.forward")
	defer fwd.End()
	return z.Compiled().PredictBatch(graphs), nil
}

// EncodePlan featurizes p on c under the model's mask — the exact graph
// Predict would run the forward pass on — with enc reset to t, c and the
// mask, and the graph carved out of a (see features.Arena for how long it
// lives). A plan without a complete placement is placed as cluster.PlaceWith
// would place it, in the graph only: p is left as it was. t is the caller's
// analysis of p.Query — Query.Analyze, or PQP.AnalyzeIn where a plan from
// outside must be judged before it is encoded (the serving layer), which
// also returns the checked degree vector deg; nil has the encoder derive and
// check it. Callers that need to fingerprint or batch requests encode once,
// key off the graph, and feed the same graph to PredictEncoded, so cache key
// and model input can never disagree.
func (z *ZeroTune) EncodePlan(ctx context.Context, enc *features.Encoder, a *features.Arena,
	t *queryplan.Topology, p *queryplan.PQP, deg []int, c *cluster.Cluster) (*features.Graph, error) {
	_, span := obs.StartSpan(ctx, "encode.plan")
	defer span.End()
	enc.Reset(t, c, z.Mask)
	return enc.EncodeIn(a, p, deg)
}

// PredictEncoded runs the batched forward pass over pre-encoded graphs (see
// EncodePlan). Results are identical to Predict on the plans the graphs came
// from.
func (z *ZeroTune) PredictEncoded(graphs []*features.Graph) []gnn.Prediction {
	return z.Compiled().PredictBatch(graphs)
}

// PredictEncodedInto is PredictEncoded writing into dst (reset to length 0,
// appended once per graph, in order, and returned). With cap(dst) >=
// len(graphs) the call is allocation-free in the steady state — the serve
// batcher's flush path relies on this.
func (z *ZeroTune) PredictEncodedInto(dst []gnn.Prediction, graphs []*features.Graph) []gnn.Prediction {
	return z.Compiled().PredictBatchInto(dst, graphs)
}

// modelEstimator adapts the model to the optimizer's estimator interfaces:
// one plan, a batch of plans, and the tuning sweep over degree vectors.
type modelEstimator struct{ z *ZeroTune }

// Estimate implements optimizer.CostEstimator.
func (e modelEstimator) Estimate(ctx context.Context, p *queryplan.PQP, c *cluster.Cluster) (optimizer.Estimate, error) {
	pred, err := e.z.Predict(ctx, p, c)
	if err != nil {
		return optimizer.Estimate{}, err
	}
	return optimizer.Estimate{LatencyMs: pred.LatencyMs, ThroughputEPS: pred.ThroughputEPS}, nil
}

// EstimateBatch implements optimizer.BatchCostEstimator.
func (e modelEstimator) EstimateBatch(ctx context.Context, ps []*queryplan.PQP, c *cluster.Cluster) ([]optimizer.Estimate, error) {
	return estimates(e.z.PredictBatch(ctx, ps, c))
}

// EstimateSweep implements optimizer.SweepEstimator: one encoder for the
// sweep, each candidate encoded straight from its degree vector.
func (e modelEstimator) EstimateSweep(ctx context.Context, t *queryplan.Topology, c *cluster.Cluster, degs []int) ([]optimizer.Estimate, error) {
	n := len(t.Ops)
	enc := features.NewEncoder(t, c, e.z.Mask)
	return estimates(e.z.predictSweep(ctx, len(degs)/n, func(a *features.Arena, i int) (*features.Graph, error) {
		return enc.EncodeDegrees(a, degs[i*n:(i+1)*n])
	}))
}

func estimates(preds []gnn.Prediction, err error) ([]optimizer.Estimate, error) {
	if err != nil {
		return nil, err
	}
	out := make([]optimizer.Estimate, len(preds))
	for i, p := range preds {
		out[i] = optimizer.Estimate{LatencyMs: p.LatencyMs, ThroughputEPS: p.ThroughputEPS}
	}
	return out, nil
}

// Estimator adapts the model to the optimizer's CostEstimator interface.
// The returned estimator also implements optimizer.SweepEstimator, so Tune
// scores its whole candidate set in one batch without building a plan per
// candidate, and optimizer.BatchCostEstimator for callers holding plans.
func (z *ZeroTune) Estimator() optimizer.CostEstimator {
	return modelEstimator{z: z}
}

// Tune selects parallelism degrees for q on c by minimizing the model's
// predicted weighted cost (Eq. 1) over the optimizer's candidate set.
func (z *ZeroTune) Tune(ctx context.Context, q *queryplan.Query, c *cluster.Cluster, opts optimizer.TuneOptions) (*optimizer.TuneResult, error) {
	return optimizer.Tune(ctx, q, c, z.Estimator(), opts)
}

// QErrors evaluates the model on labelled items, through the engine that
// answers its predictions, and returns the latency and throughput q-errors
// per item.
func (z *ZeroTune) QErrors(items []*workload.Item) (latQ, tptQ []float64, err error) {
	data := items
	if z.Mask != features.MaskAll {
		data, err = workload.Reencode(items, z.Mask)
		if err != nil {
			return nil, nil, err
		}
	}
	preds := z.PredictEncoded(workload.Graphs(data))
	for i, it := range data {
		pred := preds[i]
		latQ = append(latQ, metrics.QError(it.LatencyMs, pred.LatencyMs))
		tptQ = append(tptQ, metrics.QError(it.ThroughputEPS, pred.ThroughputEPS))
	}
	return latQ, tptQ, nil
}

// persisted is the model payload inside the artifact envelope.
type persisted struct {
	Mask     features.Mask     `json:"mask"`
	Model    *gnn.Model        `json:"model"`
	Fallback *flatvec.Fallback `json:"fallback,omitempty"`
}

// ModelArtifactKind tags model payloads inside the artifact envelope.
const ModelArtifactKind = "zerotune-model"

// Save writes the model to w in the versioned, checksummed artifact
// envelope. Writing to a file should go through SaveFile instead, which
// additionally makes the write atomic and durable.
func (z *ZeroTune) Save(w io.Writer) error {
	payload, err := json.Marshal(persisted{Mask: z.Mask, Model: z.Model, Fallback: z.Fallback})
	if err != nil {
		return fmt.Errorf("core: save model: %w", err)
	}
	return artifact.Encode(w, ModelArtifactKind, payload)
}

// SaveFile durably writes the model to path: envelope with checksum, temp
// file, fsync, atomic rename. A crash mid-write leaves the previous file
// intact, and a concurrent reader — including the serve registry's hot
// reload — never observes a torn file.
func (z *ZeroTune) SaveFile(path string) error {
	payload, err := json.Marshal(persisted{Mask: z.Mask, Model: z.Model, Fallback: z.Fallback})
	if err != nil {
		return fmt.Errorf("core: save model: %w", err)
	}
	return artifact.WriteFile(path, ModelArtifactKind, payload)
}

// Load reads a model previously written with Save and compiles it. It rejects
// truncated or structurally corrupt payloads, and weights the accuracy gate
// refuses, with a descriptive error instead of handing back a model that
// would panic on its first forward pass — the serving layer's hot-reload
// endpoint depends on a bad file never taking down a running server.
// Anything outside the artifact envelope, the pre-envelope bare-JSON model
// files included, is artifact.ErrNotArtifact.
func Load(r io.Reader) (*ZeroTune, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}
	return loadBytes(data)
}

// LoadFile is Load on the file at path.
func LoadFile(path string) (*ZeroTune, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return loadBytes(data)
}

// loadBytes opens the envelope and validates and compiles the model inside
// it.
func loadBytes(data []byte) (*ZeroTune, error) {
	kind, payload, err := artifact.DecodeBytes(data)
	if err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}
	if kind != ModelArtifactKind {
		return nil, fmt.Errorf("core: load model: artifact is a %q, not a %q", kind, ModelArtifactKind)
	}
	var p persisted
	if err := json.Unmarshal(payload, &p); err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}
	if p.Model == nil {
		return nil, fmt.Errorf("core: load model: missing model payload")
	}
	if p.Mask != features.MaskAll && p.Mask != features.MaskOperatorOnly && p.Mask != features.MaskParallelismResource {
		return nil, fmt.Errorf("core: load model: unknown feature mask %d", int(p.Mask))
	}
	if p.Fallback != nil {
		if err := p.Fallback.Validate(); err != nil {
			return nil, fmt.Errorf("core: load model: %w", err)
		}
	}
	z := &ZeroTune{Model: p.Model, Mask: p.Mask, Fallback: p.Fallback}
	if err := z.Compile(gnn.CompileOptions{}); err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}
	return z, nil
}

// MetricModel predicts one additional cost metric (e.g. resource usage) on
// top of a frozen ZeroTune model — the fine-tuning path the paper sketches
// in Sec. III-A ("replacing the final MLP node").
type MetricModel struct {
	zt   *ZeroTune
	head *gnn.MetricHead
}

// Name returns the metric's name.
func (m *MetricModel) Name() string { return m.head.Name }

// FineTuneMetric fits a new read-out head for an additional metric on
// labelled items, extracting the target value per item with extract. The
// underlying model's weights are frozen; only the new head trains.
func (z *ZeroTune) FineTuneMetric(ctx context.Context, name string, items []*workload.Item,
	extract func(*workload.Item) float64, opts *TrainOptions) (*MetricModel, error) {
	if extract == nil {
		return nil, fmt.Errorf("core: FineTuneMetric needs an extractor")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	data := items
	if z.Mask != features.MaskAll {
		var err error
		data, err = workload.Reencode(items, z.Mask)
		if err != nil {
			return nil, err
		}
	}
	targets := make([]float64, len(data))
	for i, it := range data {
		targets[i] = extract(it)
	}
	head, err := gnn.FineTuneMetricHead(ctx, z.Model, name, workload.Graphs(data), targets, opts.TrainConfig)
	if err != nil {
		return nil, err
	}
	return &MetricModel{zt: z, head: head}, nil
}

// Predict estimates the metric for plan p on cluster c, placed as
// ZeroTune.Predict places it.
func (m *MetricModel) Predict(ctx context.Context, p *queryplan.PQP, c *cluster.Cluster) (float64, error) {
	var v float64
	err := m.zt.encodeOne(ctx, p, c, func(g *features.Graph) { v = m.head.Predict(m.zt.Model, g) })
	return v, err
}
