// Package gnn implements the ZeroTune zero-shot cost model: a graph neural
// network over the parallel graph representation of features.Graph.
//
// Architecture (paper Fig. 4):
//
//  1. Node-type encoder MLPs turn each operator's transferable features
//     into a hidden state; a resource encoder does the same for machines.
//  2. Bottom-up message passing along the data-flow edges updates operator
//     hidden states from source to sink.
//  3. Physical resource nodes exchange messages with each other, then the
//     operator→resource mapping edges deliver hardware context — weighted
//     by how many instances run where — into a per-operator state.
//  4. Structured read-out: the latency head predicts a per-operator latency
//     contribution and the model sums the contributions (Def. 1: end-to-end
//     latency is the sum of operator, network and wait latencies along the
//     pipeline) — this additive inductive bias is what lets the graph model
//     extrapolate to unseen structures such as windowless filter chains
//     whose latency sits orders of magnitude below any training query. The
//     throughput head reads the sink's hidden state (which has aggregated
//     the whole plan bottom-up) together with a mean pooling over all
//     per-operator states. Both heads work in log10 space.
//
// Everything is trained jointly with Adam on a Huber loss in log space.
package gnn

import (
	"encoding/json"
	"fmt"
	"math"

	"zerotune/internal/features"
	"zerotune/internal/nn"
	"zerotune/internal/queryplan"
	"zerotune/internal/tensor"
)

// ReadoutMode selects how the per-operator states become cost predictions.
type ReadoutMode int

const (
	// ReadoutStructured (default) sums per-operator latency contributions
	// (Def. 1) and reads throughput from the sink state — the additive
	// inductive bias that drives structural extrapolation.
	ReadoutStructured ReadoutMode = iota
	// ReadoutSink reads both metrics from the sink state plus a mean
	// pooling, the read-out the paper's Fig. 4 describes. Kept as an
	// ablation of the structured read-out design decision.
	ReadoutSink
)

// String implements fmt.Stringer.
func (r ReadoutMode) String() string {
	switch r {
	case ReadoutStructured:
		return "structured"
	case ReadoutSink:
		return "sink"
	default:
		return fmt.Sprintf("readout(%d)", int(r))
	}
}

// Config holds the model hyper-parameters.
type Config struct {
	Hidden     int // hidden state width
	EncDepth   int // encoder MLP hidden layers
	HeadHidden int // read-out head hidden width
	Readout    ReadoutMode
}

// DefaultConfig returns the hyper-parameters used throughout the
// experiments: small enough to train in minutes on a CPU, large enough to
// fit the simulator's cost surface.
func DefaultConfig() Config {
	return Config{Hidden: 48, EncDepth: 1, HeadHidden: 48}
}

// opTypeOrder fixes the serialization order of the per-type encoders (and
// their slots in Model.mlps).
var opTypeOrder = [...]queryplan.OpType{
	queryplan.OpSource, queryplan.OpFilter, queryplan.OpAggregate,
	queryplan.OpJoin, queryplan.OpSink,
}

// Model is the ZeroTune cost model.
type Model struct {
	Cfg Config

	EncOp      map[queryplan.OpType]*nn.MLP // per-node-type feature encoders
	EncRes     *nn.MLP                      // resource feature encoder
	CombineOp  *nn.MLP                      // data-flow message combine: [own ‖ Σ upstream] → hidden
	CombineRes *nn.MLP                      // resource exchange combine: [own ‖ mean others] → hidden
	CombineMap *nn.MLP                      // mapping combine: [op state ‖ weighted resources] → hidden
	LatHead    *nn.MLP                      // per-op hidden → log10(latency contribution, ms)
	TptHead    *nn.MLP                      // [sink state ‖ mean op states] → log10(throughput, ev/s)
}

// New builds a model with freshly initialized weights.
func New(rng *tensor.RNG, cfg Config) *Model {
	if cfg.Hidden <= 0 {
		cfg = DefaultConfig()
	}
	h := cfg.Hidden
	encDims := func(in int) []int {
		dims := []int{in}
		for i := 0; i < cfg.EncDepth; i++ {
			dims = append(dims, h)
		}
		dims = append(dims, h)
		return dims
	}
	m := &Model{Cfg: cfg, EncOp: make(map[queryplan.OpType]*nn.MLP, len(opTypeOrder))}
	for _, t := range opTypeOrder {
		m.EncOp[t] = nn.NewMLP(rng, encDims(features.OpFeatDim), nn.LeakyReLU, nn.LeakyReLU)
	}
	m.EncRes = nn.NewMLP(rng, encDims(features.ResFeatDim), nn.LeakyReLU, nn.LeakyReLU)
	m.CombineOp = nn.NewMLP(rng, []int{2 * h, h, h}, nn.LeakyReLU, nn.LeakyReLU)
	m.CombineRes = nn.NewMLP(rng, []int{2 * h, h}, nn.LeakyReLU, nn.LeakyReLU)
	m.CombineMap = nn.NewMLP(rng, []int{2 * h, h}, nn.LeakyReLU, nn.LeakyReLU)
	latIn := h
	if cfg.Readout == ReadoutSink {
		latIn = 2 * h // [sink state ‖ mean op states]
	}
	m.LatHead = nn.NewMLP(rng, []int{latIn, cfg.HeadHidden, 1}, nn.LeakyReLU, nn.Identity)
	m.TptHead = nn.NewMLP(rng, []int{2 * h, cfg.HeadHidden, 1}, nn.LeakyReLU, nn.Identity)
	return m
}

// mlps returns all sub-networks in a stable order.
func (m *Model) mlps() []*nn.MLP {
	out := make([]*nn.MLP, 0, len(opTypeOrder)+6)
	for _, t := range opTypeOrder {
		out = append(out, m.EncOp[t])
	}
	return append(out, m.EncRes, m.CombineOp, m.CombineRes, m.CombineMap, m.LatHead, m.TptHead)
}

// Params returns every parameter/gradient pair for the optimizer.
func (m *Model) Params() []nn.Param {
	var ps []nn.Param
	for _, mm := range m.mlps() {
		ps = append(ps, mm.Params()...)
	}
	return ps
}

// NumParams returns the total scalar parameter count.
func (m *Model) NumParams() int {
	n := 0
	for _, mm := range m.mlps() {
		n += mm.NumParams()
	}
	return n
}

// Prediction is the model output in natural units.
type Prediction struct {
	LatencyMs     float64
	ThroughputEPS float64
	// Log-space raw outputs (what the loss is computed on).
	LogLatency    float64
	LogThroughput float64
}

// trace captures one graph's forward pass: what per-graph inference and
// embedding read, and what the per-graph reference backward of the tests
// replays (training runs the batched trainStep). The zero value is ready for
// use; forwardInto grows every buffer to the graph's shape and overwrites it
// in place, so a long-lived trace (one per worker) eliminates per-graph
// allocation churn. A trace serves one graph at a time and is not safe for
// concurrent use.
type trace struct {
	g *features.Graph

	encOp     []*nn.Trace // per op node
	combineOp []*nn.Trace // per op node
	upstreams [][]int     // per op node: indices of upstream op nodes
	hOp       []tensor.Vector

	encRes     []*nn.Trace
	combineRes []*nn.Trace
	hRes       []tensor.Vector

	combineMap []*nn.Trace     // per op node
	mapWeights [][]weightedRes // per op node

	latTraces []*nn.Trace // structured mode: per-op latency contribution head
	latW      []float64   // structured mode: ∂logLat/∂o_i (softmax of contributions)
	lat       []float64   // structured mode: per-op contributions o_i
	latTrace  *nn.Trace   // sink mode: latency head on [sink ‖ mean op states]
	tptTrace  *nn.Trace   // throughput head on [sink ‖ mean op states]

	// Scratch (transient within one pass).
	concat         tensor.Vector // 2h concat input, copied by ForwardInto
	agg            tensor.Vector // h: upstream aggregation / mapping message
	encSum         tensor.Vector // h: sum of resource encodings
	others         tensor.Vector // h: mean of the other resource encodings
	meanState      tensor.Vector // h: mean pooling over per-op states
	pooled         tensor.Vector // 2h: [sink ‖ mean op states]
	totalInstances []float64     // per op node
}

type weightedRes struct {
	resIdx int
	weight float64
}

// ensure grows the trace's per-node buffers for a graph with n operator
// nodes and r resource nodes under hidden width h.
func (tr *trace) ensure(n, r, h int) {
	tr.encOp = growTraces(tr.encOp, n)
	tr.combineOp = growTraces(tr.combineOp, n)
	tr.upstreams = growIntSlices(tr.upstreams, n)
	tr.hOp = growSlots(tr.hOp, n)
	tr.encRes = growTraces(tr.encRes, r)
	tr.combineRes = growTraces(tr.combineRes, r)
	tr.hRes = growSlots(tr.hRes, r)
	tr.combineMap = growTraces(tr.combineMap, n)
	tr.mapWeights = growWeightSlices(tr.mapWeights, n)
	tr.latTraces = growTraces(tr.latTraces, n)
	tr.latW = growFloats(tr.latW, n)
	tr.lat = growFloats(tr.lat, n)
	tr.totalInstances = growFloats(tr.totalInstances, n)
	tr.concat = ensureVec(tr.concat, 2*h)
	tr.agg = ensureVec(tr.agg, h)
	tr.encSum = ensureVec(tr.encSum, h)
	tr.others = ensureVec(tr.others, h)
	tr.meanState = ensureVec(tr.meanState, h)
	tr.pooled = ensureVec(tr.pooled, 2*h)
}

// concat2 writes [a ‖ b] into the trace's concat buffer. The result is only
// valid until the next concat2 call; ForwardInto copies its input, so the
// buffer can feed every combine network in turn.
func (tr *trace) concat2(a, b tensor.Vector) tensor.Vector {
	buf := tr.concat[:len(a)+len(b)]
	copy(buf, a)
	copy(buf[len(a):], b)
	return buf
}

func growTraces(ts []*nn.Trace, n int) []*nn.Trace {
	for len(ts) < n {
		ts = append(ts, nil)
	}
	return ts[:n]
}

func growSlots(vs []tensor.Vector, n int) []tensor.Vector {
	for len(vs) < n {
		vs = append(vs, nil)
	}
	return vs[:n]
}

// growIntSlices resizes ss to n empty inner slices. It keeps the capacities
// of inner slices beyond the current length, so a scratch that serves batches
// of fluctuating sizes does not shed its warmed-up buffers.
func growIntSlices(ss [][]int, n int) [][]int {
	if cap(ss) < n {
		grown := make([][]int, n)
		copy(grown, ss[:cap(ss)])
		ss = grown
	}
	ss = ss[:n]
	for i := range ss {
		ss[i] = ss[i][:0]
	}
	return ss
}

func growWeightSlices(ss [][]weightedRes, n int) [][]weightedRes {
	for len(ss) < n {
		ss = append(ss, nil)
	}
	ss = ss[:n]
	for i := range ss {
		ss[i] = ss[i][:0]
	}
	return ss
}

func growFloats(fs []float64, n int) []float64 {
	for len(fs) < n {
		fs = append(fs, 0)
	}
	return fs[:n]
}

// ensureVec returns v if it has length dim, else a fresh zeroed vector.
func ensureVec(v tensor.Vector, dim int) tensor.Vector {
	if len(v) != dim {
		return tensor.NewVector(dim)
	}
	return v
}

// forward runs the three-stage message passing with a fresh trace. Hot paths
// should hold a trace and call forwardInto instead.
func (m *Model) forward(g *features.Graph) (*Prediction, *trace) {
	tr := &trace{}
	return m.forwardInto(tr, g), tr
}

// forwardInto runs the three-stage message passing, reusing tr's buffers,
// and leaves in tr everything backward needs. It allocates only when the
// graph outgrows the trace.
func (m *Model) forwardInto(tr *trace, g *features.Graph) *Prediction {
	h := m.Cfg.Hidden
	n := len(g.OpNodes)
	r := len(g.ResNodes)
	tr.ensure(n, r, h)
	tr.g = g

	// Upstream index lists from the data-flow edges.
	for _, e := range g.DataEdges {
		tr.upstreams[e[1]] = append(tr.upstreams[e[1]], e[0])
	}

	// Stage 1: data-flow pass. OpNodes are topologically ordered.
	for i, node := range g.OpNodes {
		enc := m.EncOp[node.Type]
		if enc == nil {
			panic(fmt.Sprintf("gnn: no encoder for node type %v", node.Type))
		}
		tr.encOp[i] = enc.ForwardInto(tr.encOp[i], node.Feat)
		agg := tr.agg.Zero()
		for _, up := range tr.upstreams[i] {
			agg.AddInPlace(tr.hOp[up])
		}
		tr.combineOp[i] = m.CombineOp.ForwardInto(tr.combineOp[i], tr.concat2(tr.encOp[i].Output(), agg))
		tr.hOp[i] = tr.combineOp[i].Output()
	}

	// Stage 2: resource pass.
	encSum := tr.encSum.Zero()
	for i, node := range g.ResNodes {
		tr.encRes[i] = m.EncRes.ForwardInto(tr.encRes[i], node.Feat)
		encSum.AddInPlace(tr.encRes[i].Output())
	}
	for i := range g.ResNodes {
		others := tr.others.Zero()
		if r > 1 {
			copy(others, encSum)
			others.SubInPlace(tr.encRes[i].Output()).ScaleInPlace(1 / float64(r-1))
		}
		tr.combineRes[i] = m.CombineRes.ForwardInto(tr.combineRes[i], tr.concat2(tr.encRes[i].Output(), others))
		tr.hRes[i] = tr.combineRes[i].Output()
	}

	// Stage 3: mapping pass.
	totalInstances := tr.totalInstances
	for i := range totalInstances {
		totalInstances[i] = 0
	}
	for _, e := range g.Mapping {
		totalInstances[e.OpIdx] += float64(e.Instances)
	}
	for i := range g.OpNodes {
		msg := tr.agg.Zero()
		for _, e := range g.Mapping {
			if e.OpIdx != i {
				continue
			}
			w := float64(e.Instances)
			if totalInstances[i] > 0 {
				w /= totalInstances[i]
			}
			msg.AxpyInPlace(w, tr.hRes[e.ResIdx])
			tr.mapWeights[i] = append(tr.mapWeights[i], weightedRes{resIdx: e.ResIdx, weight: w})
		}
		tr.combineMap[i] = m.CombineMap.ForwardInto(tr.combineMap[i], tr.concat2(tr.hOp[i], msg))
	}

	// Stage 4: read-out. Structured mode sums per-operator latency
	// contributions (Def. 1); sink mode reads latency from the pooled sink
	// state like the throughput head. Throughput always reads the sink
	// state plus a mean pooling.
	meanState := tr.meanState.Zero()
	for i := range g.OpNodes {
		meanState.AxpyInPlace(1/float64(n), tr.combineMap[i].Output())
	}
	pooled := tr.pooled
	copy(pooled, tr.combineMap[g.SinkIdx].Output())
	copy(pooled[h:], meanState)

	var logLat float64
	if m.Cfg.Readout == ReadoutSink {
		tr.latTrace = m.LatHead.ForwardInto(tr.latTrace, pooled)
		logLat = tr.latTrace.Output()[0]
	} else {
		lat := tr.lat // o_i = log10 of op i's latency contribution
		for i := range g.OpNodes {
			tr.latTraces[i] = m.LatHead.ForwardInto(tr.latTraces[i], tr.combineMap[i].Output())
			lat[i] = tr.latTraces[i].Output()[0]
		}
		logLat = logSumExp10(lat, tr.latW)
	}
	tr.tptTrace = m.TptHead.ForwardInto(tr.tptTrace, pooled)
	logTpt := tr.tptTrace.Output()[0]

	return &Prediction{
		LatencyMs:     math.Pow(10, logLat),
		ThroughputEPS: math.Pow(10, logTpt),
		LogLatency:    logLat,
		LogThroughput: logTpt,
	}
}

// logSumExp10 computes log10(Σ 10^{x_i}) stably and writes into w the softmax
// weights w_i = 10^{x_i}/Σ 10^{x_j}, which are exactly the partial
// derivatives of the result with respect to x_i. len(w) must equal len(xs).
func logSumExp10(xs, w []float64) float64 {
	maxX := math.Inf(-1)
	for _, x := range xs {
		if x > maxX {
			maxX = x
		}
	}
	var sum float64
	for i, x := range xs {
		w[i] = math.Pow(10, x-maxX)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	// math.Log10 inlines to a product: float64 keeps arm64 from fusing it.
	return maxX + float64(math.Log10(sum))
}

// Predict returns the model's cost estimate for the encoded plan.
func (m *Model) Predict(g *features.Graph) Prediction {
	p, _ := m.forward(g)
	return *p
}

// modelJSON is the serialized form of a Model.
type modelJSON struct {
	Cfg        Config             `json:"cfg"`
	EncOp      map[string]*nn.MLP `json:"enc_op"`
	EncRes     *nn.MLP            `json:"enc_res"`
	CombineOp  *nn.MLP            `json:"combine_op"`
	CombineRes *nn.MLP            `json:"combine_res"`
	CombineMap *nn.MLP            `json:"combine_map"`
	LatHead    *nn.MLP            `json:"lat_head"`
	TptHead    *nn.MLP            `json:"tpt_head"`
}

// MarshalJSON implements json.Marshaler.
func (m *Model) MarshalJSON() ([]byte, error) {
	enc := make(map[string]*nn.MLP, len(m.EncOp))
	for t, mm := range m.EncOp {
		enc[t.String()] = mm
	}
	return json.Marshal(modelJSON{
		Cfg: m.Cfg, EncOp: enc, EncRes: m.EncRes,
		CombineOp: m.CombineOp, CombineRes: m.CombineRes, CombineMap: m.CombineMap,
		LatHead: m.LatHead, TptHead: m.TptHead,
	})
}

// Validate checks that the model's sub-networks exist and chain together
// dimensionally: encoders accept the current feature layout, combiners
// accept concatenated hidden pairs, and the read-out heads emit scalars.
// A model deserialized from truncated or hand-edited bytes can be
// internally consistent per-MLP yet still crash the forward pass; Validate
// turns that crash into a descriptive error before the model is served.
func (m *Model) Validate() error {
	for _, t := range opTypeOrder {
		enc, ok := m.EncOp[t]
		if !ok || enc == nil || len(enc.Layers) == 0 {
			return fmt.Errorf("gnn: model missing %v encoder", t)
		}
	}
	for _, mm := range m.mlps() {
		if mm == nil || len(mm.Layers) == 0 {
			return fmt.Errorf("gnn: model missing sub-networks")
		}
	}
	h := m.EncOp[opTypeOrder[0]].OutDim()
	if h < 1 {
		return fmt.Errorf("gnn: hidden width %d < 1", h)
	}
	for _, t := range opTypeOrder {
		enc := m.EncOp[t]
		if enc.InDim() != features.OpFeatDim {
			return fmt.Errorf("gnn: %v encoder expects %d features, encoding emits %d",
				t, enc.InDim(), features.OpFeatDim)
		}
		if enc.OutDim() != h {
			return fmt.Errorf("gnn: %v encoder width %d, want %d", t, enc.OutDim(), h)
		}
	}
	if m.EncRes.InDim() != features.ResFeatDim {
		return fmt.Errorf("gnn: resource encoder expects %d features, encoding emits %d",
			m.EncRes.InDim(), features.ResFeatDim)
	}
	if m.EncRes.OutDim() != h {
		return fmt.Errorf("gnn: resource encoder width %d, want %d", m.EncRes.OutDim(), h)
	}
	for _, c := range []struct {
		name string
		mlp  *nn.MLP
	}{{"operator combiner", m.CombineOp}, {"resource combiner", m.CombineRes}, {"mapping combiner", m.CombineMap}} {
		if c.mlp.InDim() != 2*h || c.mlp.OutDim() != h {
			return fmt.Errorf("gnn: %s is %d→%d, want %d→%d", c.name, c.mlp.InDim(), c.mlp.OutDim(), 2*h, h)
		}
	}
	latIn := h
	if m.Cfg.Readout == ReadoutSink {
		latIn = 2 * h
	}
	if m.LatHead.InDim() != latIn || m.LatHead.OutDim() != 1 {
		return fmt.Errorf("gnn: latency head is %d→%d, want %d→1", m.LatHead.InDim(), m.LatHead.OutDim(), latIn)
	}
	if m.TptHead.InDim() != 2*h || m.TptHead.OutDim() != 1 {
		return fmt.Errorf("gnn: throughput head is %d→%d, want %d→1", m.TptHead.InDim(), m.TptHead.OutDim(), 2*h)
	}
	return nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (m *Model) UnmarshalJSON(data []byte) error {
	var in modelJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	m.Cfg = in.Cfg
	m.EncOp = make(map[queryplan.OpType]*nn.MLP, len(opTypeOrder))
	for _, t := range opTypeOrder {
		mm, ok := in.EncOp[t.String()]
		if !ok {
			return fmt.Errorf("gnn: serialized model missing encoder for %v", t)
		}
		m.EncOp[t] = mm
	}
	if in.EncRes == nil || in.CombineOp == nil || in.CombineRes == nil ||
		in.CombineMap == nil || in.LatHead == nil || in.TptHead == nil {
		return fmt.Errorf("gnn: serialized model missing sub-networks")
	}
	m.EncRes, m.CombineOp, m.CombineRes = in.EncRes, in.CombineOp, in.CombineRes
	m.CombineMap, m.LatHead, m.TptHead = in.CombineMap, in.LatHead, in.TptHead
	return nil
}
