package gnn

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"zerotune/internal/cluster"
	"zerotune/internal/features"
	"zerotune/internal/nn"
	"zerotune/internal/queryplan"
	"zerotune/internal/tensor"
)

// The compiled inference engine. A CompiledModel is an immutable, inference-
// only view of a Model whose forward pass is restructured around batched
// GEMMs: a batch of graphs of any topologies runs in passes of up to passCap
// graphs, and each MLP application over a pass becomes one matrix multiply of
// stacked rows instead of one vector pass per graph. The rows are laid out by
// the training step's opLayout: each operator type's encoder runs over that
// type's rows from every graph of the pass, the data-flow combiner over one
// depth level at a time, and the resource, mapping and read-out networks once
// over the whole pass; resources are ragged, each graph bringing its own
// machine rows and walking its own mapping edges. Weights are converted once
// at compile time — to float32 for the fast path (tensor.Gemm32BiasActInto,
// AVX-512 or AVX2 where available), or kept float64 for the bit-exact
// reference engine — and a load-time accuracy gate compares the compiled
// predictions against the float64 reference so degraded numerics can never
// reach serving silently.
//
// There is one schedule and two kernels. engine[T].forwardPass owns
// everything the numeric representations share: the row layout, the four
// message-passing stages, the means, the mapping walk and the read-out. What
// differs sits behind engine[T].gemm, one linear layer over stacked rows, and
// the two paddings that kernel needs (gemm32 and gemm64 below). The float64
// instance is the reference the bit-exact tests hold against Model.Predict,
// so what they prove is the schedule serving runs.
//
// Steady-state inference is allocation-free: all per-pass matrices live in
// a fusedScratch arena recycled through a persistent free list, growing only
// when a pass outgrows every previous one.

// Engine selects the numeric representation of a compiled model.
type Engine int

const (
	// EngineF32 runs float32 weights and activations (the fast path).
	EngineF32 Engine = iota
	// EngineF64 runs the fused schedule in float64 with the original
	// weights; its results are bit-identical to Model.Predict per graph and
	// anchor the differential tests.
	EngineF64
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case EngineF32:
		return "f32"
	case EngineF64:
		return "f64"
	default:
		return fmt.Sprintf("engine(%d)", int(e))
	}
}

// DefaultGateThreshold is the accuracy-gate budget: the compiled model's
// worst-case q-error against the float64 reference on the validation set must
// stay below 1 + threshold.
const DefaultGateThreshold = 0.01

// ErrAccuracyGate is wrapped by Compile when the compiled model's validation
// q-error exceeds the gate threshold.
var ErrAccuracyGate = errors.New("gnn: compiled model failed accuracy gate")

// GateReport records the accuracy-gate outcome of a Compile call.
type GateReport struct {
	Engine    Engine  `json:"engine"`
	Graphs    int     `json:"graphs"`    // validation graphs evaluated
	MaxQErr   float64 `json:"max_q_err"` // worst q-error vs the float64 reference
	Threshold float64 `json:"threshold"` // gate budget (MaxQErr must be <= 1+Threshold)
}

// CompileOptions configures Compile.
type CompileOptions struct {
	// Engine selects the numeric representation; default EngineF32.
	Engine Engine
}

// float is the element type of an engine: float32 serves, float64 is the
// reference.
type float interface{ float32 | float64 }

// mat is a row-major matrix with an explicit row stride: element (r, c) is
// data[r*stride+c], columns [cols, stride) of a row are padding.
type mat[T float] struct {
	rows, cols, stride int
	data               []T
}

func (m *mat[T]) row(r int) []T { return m.data[r*m.stride : r*m.stride+m.cols] }

// grow reshapes m, reusing its backing array when large enough (stale values
// are overwritten or live in padding).
func (m *mat[T]) grow(rows, cols, stride int) {
	need := rows * stride
	if cap(m.data) < need {
		m.data = make([]T, need)
	}
	m.rows, m.cols, m.stride, m.data = rows, cols, stride, m.data[:need]
}

// view returns rows [start, start+rows) of m, sharing its storage.
func (m *mat[T]) view(start, rows int) mat[T] {
	return mat[T]{rows, m.cols, m.stride, m.data[start*m.stride : (start+rows)*m.stride]}
}

// layer is one compiled linear layer in its kernel's own weight layout.
type layer[T float] struct {
	w    mat[T]
	bias []T
	act  nn.Activation
	out  int
}

// engine is one numeric representation of the model: its weights, and the
// kernel that applies a layer of them.
type engine[T float] struct {
	cfg Config

	// gemm computes y = act(x·W + b), one input per row of x. It is the only
	// code that differs between the representations.
	gemm func(x mat[T], l *layer[T], y mat[T])
	// rowPad and colPad are what gemm needs of the matrices it is handed:
	// row counts are rounded up to a multiple of rowPad, the stride of every
	// matrix it writes to a multiple of colPad.
	rowPad, colPad int
	maxW           int // widest padded layer output, sizes the MLP ping-pong scratch

	encOp      [len(opTypeOrder)][]layer[T] // by typeSlot
	encRes     []layer[T]
	combineOp  []layer[T]
	combineRes []layer[T]
	combineMap []layer[T]
	latHead    []layer[T]
	tptHead    []layer[T]
}

// gemm32 is the serving kernel: transposed weights (in×out) and biases padded
// to 16 columns, the activation fused into the GEMM, row counts in the
// microkernel's groups of 4.
func gemm32(x mat[float32], l *layer[float32], y mat[float32]) {
	xm, wt, ym := matrix32(x), matrix32(l.w), matrix32(y)
	act, _ := act32Of(l.act) // layer32 refused every other activation
	tensor.Gemm32BiasActInto(&xm, &wt, l.bias, &ym, act)
}

func matrix32(m mat[float32]) tensor.Matrix32 {
	return tensor.Matrix32{Rows: m.rows, Cols: m.cols, Stride: m.stride, Data: m.data}
}

// layer32 packs l for gemm32.
func layer32(l *nn.Linear) (layer[float32], error) {
	if _, err := act32Of(l.Act); err != nil {
		return layer[float32]{}, err
	}
	wt := tensor.TransposedPadded32(l.W)
	bias := tensor.NewVector32(wt.Stride)
	for j, b := range l.B {
		bias[j] = float32(b)
	}
	w := mat[float32]{rows: wt.Rows, cols: wt.Cols, stride: wt.Stride, data: wt.Data}
	return layer[float32]{w: w, bias: bias, act: l.Act, out: l.Out()}, nil
}

// gemm64 is the reference kernel: the model's own weights (out×in), each row
// through MulVecAddBias and Activation.Apply exactly as nn.MLP runs it, no
// padding.
func gemm64(x mat[float64], l *layer[float64], y mat[float64]) {
	xm, w, ym := matrix64(x), matrix64(l.w), matrix64(y)
	tensor.GemmBiasInto(&xm, &w, l.bias, &ym)
	for i, p := range y.data {
		y.data[i] = l.act.Apply(p)
	}
}

// matrix64 is m as a dense tensor.Matrix; with colPad 1 every stride is cols.
func matrix64(m mat[float64]) tensor.Matrix {
	return tensor.Matrix{Rows: m.rows, Cols: m.cols, Data: m.data}
}

// layer64 shares l's storage.
func layer64(l *nn.Linear) (layer[float64], error) {
	w := mat[float64]{rows: l.W.Rows, cols: l.W.Cols, stride: l.W.Cols, data: l.W.Data}
	return layer[float64]{w: w, bias: l.B, act: l.Act, out: l.Out()}, nil
}

// newEngine converts every layer of m, in the stable order of Model.mlps.
func newEngine[T float](m *Model, gemm func(x mat[T], l *layer[T], y mat[T]), rowPad, colPad int,
	conv func(*nn.Linear) (layer[T], error)) (*engine[T], error) {
	e := &engine[T]{cfg: m.Cfg, gemm: gemm, rowPad: rowPad, colPad: colPad}
	mlps := m.mlps()
	compiled := make([][]layer[T], len(mlps))
	for i, mlp := range mlps {
		compiled[i] = make([]layer[T], len(mlp.Layers))
		for j, l := range mlp.Layers {
			var err error
			if compiled[i][j], err = conv(l); err != nil {
				return nil, err
			}
			e.maxW = max(e.maxW, roundUp(l.Out(), colPad))
		}
	}
	copy(e.encOp[:], compiled)
	rest := compiled[len(opTypeOrder):]
	e.encRes, e.combineOp, e.combineRes, e.combineMap, e.latHead, e.tptHead =
		rest[0], rest[1], rest[2], rest[3], rest[4], rest[5]
	return e, nil
}

// CompiledModel is the fused-batch inference engine built by Compile.
// It is safe for concurrent use; all weight state is immutable after
// Compile and per-call scratch comes from an internal pool.
type CompiledModel struct {
	// Ref is the model this engine was compiled from; the float64 engine
	// shares its weight storage, and callers may use it for training or
	// explanations.
	Ref *Model
	// Engine is the numeric representation compiled in.
	Engine Engine
	// Gate is the recorded accuracy-gate outcome.
	Gate GateReport

	// Exactly one is set, by Engine.
	f32 *engine[float32]
	f64 *engine[float64]

	scratch scratchPool

	fusedGraphs, fusedPasses atomic.Uint64
}

// scratchPool is a persistent free list of fused scratches. Unlike
// sync.Pool it is never drained by the garbage collector, so the steady
// state stays allocation-free; memory is bounded by the peak number of
// concurrent PredictBatchInto calls.
type scratchPool struct {
	mu   sync.Mutex
	free []*fusedScratch
}

func (p *scratchPool) get() *fusedScratch {
	p.mu.Lock()
	n := len(p.free)
	if n == 0 {
		p.mu.Unlock()
		return &fusedScratch{}
	}
	s := p.free[n-1]
	p.free = p.free[:n-1]
	p.mu.Unlock()
	return s
}

func (p *scratchPool) put(s *fusedScratch) {
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
}

// Compile builds the fused inference engine for m and runs the accuracy
// gate: the compiled model predicts the validation set and its worst-case
// q-error against the float64 reference must stay within the budget, or
// Compile returns an error wrapping ErrAccuracyGate and the compiled model
// must not be served. The float64 engine is that reference, so the gate
// records its agreement and never refuses it. mask is the feature
// visibility m was trained with and is served under: the gate encodes its
// validation set with it, so the engines are compared on the inputs the
// model will see.
func Compile(m *Model, mask features.Mask, opts CompileOptions) (*CompiledModel, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("gnn: compile: %w", err)
	}
	cm := &CompiledModel{Ref: m, Engine: opts.Engine}

	var err error
	switch opts.Engine {
	case EngineF64:
		cm.f64, err = newEngine(m, gemm64, 1, 1, layer64)
	case EngineF32:
		cm.f32, err = newEngine(m, gemm32, 4, 16, layer32)
	default:
		return nil, fmt.Errorf("gnn: compile: unknown engine %v", opts.Engine)
	}
	if err != nil {
		return nil, err
	}
	if err := cm.gate(mask); err != nil {
		return nil, err
	}
	return cm, nil
}

// gate is Compile's accuracy gate: it predicts the validation set, encoded
// under mask, through the compiled engine, records the worst q-error against the float64 reference —
// Model.Predict, one graph after another — in cm.Gate, and returns an error
// wrapping ErrAccuracyGate when a float32 engine exceeds
// 1 + DefaultGateThreshold.
func (cm *CompiledModel) gate(mask features.Mask) error {
	val, err := gateGraphs(mask)
	if err != nil {
		return fmt.Errorf("gnn: compile: build validation set: %w", err)
	}
	gotPreds := cm.PredictBatch(val)
	// The counters report serving traffic, not the gate's own batch, and the
	// free list, never drained, would keep the batch's scratch for good.
	cm.fusedGraphs.Store(0)
	cm.fusedPasses.Store(0)
	cm.scratch.free = nil
	maxQ := 1.0
	for i, g := range val {
		ref := cm.Ref.Predict(g)
		for _, q := range []float64{
			qerr(ref.LatencyMs, gotPreds[i].LatencyMs),
			qerr(ref.ThroughputEPS, gotPreds[i].ThroughputEPS),
		} {
			if q > maxQ {
				maxQ = q
			}
		}
	}
	cm.Gate = GateReport{Engine: cm.Engine, Graphs: len(val), MaxQErr: maxQ, Threshold: DefaultGateThreshold}
	if cm.Engine == EngineF32 && maxQ > 1+DefaultGateThreshold {
		return fmt.Errorf("%w: engine %v max q-error %.6f over %d graphs exceeds budget %.6f",
			ErrAccuracyGate, cm.Engine, maxQ, len(val), 1+DefaultGateThreshold)
	}
	return nil
}

func act32Of(a nn.Activation) (tensor.Act32, error) {
	switch a {
	case nn.Identity:
		return tensor.Act32Identity, nil
	case nn.LeakyReLU:
		return tensor.Act32LeakyReLU, nil
	default:
		return 0, fmt.Errorf("gnn: compile: activation %v has no fused float32 kernel", a)
	}
}

// qerr is the multiplicative error between a reference and a compiled
// prediction (>= 1, +Inf when either is non-positive or non-finite).
func qerr(ref, got float64) float64 {
	if !(ref > 0) || !(got > 0) || math.IsInf(ref, 0) || math.IsInf(got, 0) {
		return math.Inf(1)
	}
	if ref > got {
		return ref / got
	}
	return got / ref
}

// gateGraphs builds the gate's validation corpus: the three benchmark
// queries at a deterministic sweep of parallelism degrees on a seen-hardware
// cluster, encoded under mask.
func gateGraphs(mask features.Mask) ([]*features.Graph, error) {
	c, err := cluster.New(4, cluster.SeenTypes(), 10)
	if err != nil {
		return nil, err
	}
	queries := []*queryplan.Query{
		queryplan.SpikeDetection(8_000),
		queryplan.SmartGridLocal(15_000),
		queryplan.SmartGridGlobal(25_000),
	}
	graphs := make([]*features.Graph, 0, 12)
	for i := 0; len(graphs) < 12; i++ {
		q := queries[i%len(queries)]
		p := queryplan.NewPQP(q)
		for _, op := range q.Ops {
			p.SetDegree(op.ID, 1+(i+op.ID)%8)
		}
		if err := cluster.Place(p, c); err != nil {
			return nil, err
		}
		g, err := features.Encode(p, c, mask)
		if err != nil {
			return nil, err
		}
		graphs = append(graphs, g)
	}
	return graphs, nil
}

// fusedScratch is the per-call arena: everything the fused forward needs,
// grown to the largest pass seen and reused. One scratch serves one
// PredictBatchInto call at a time; the pool hands them to concurrent
// callers.
type fusedScratch struct {
	opLayout
	encOff [len(opTypeOrder) + 1]int // encoder slot k's rows of xg and e: [encOff[k], encOff[k+1])

	// The matrices of the engine the model was compiled for; the other set
	// stays empty.
	m32 passMats[float32]
	m64 passMats[float64]

	lat, latW, tot []float64

	oneG [1]*features.Graph
	oneP []Prediction
}

// passMats are the matrices of one forwardPass call.
type passMats[T float] struct {
	xg, e, hop, er, sum, xcr, hres, xm, hmap, lt, pooled, tt mat[T]
	mlpA, mlpB                                               []T
}

// roundUp rounds n up to a multiple of m.
func roundUp(n, m int) int { return (n + m - 1) / m * m }

// zero, add and axpy are the element-wise steps between the GEMMs, in the
// reference forward's form: v = 0, v += w, v += a·w. The float64 axpy is the
// reference's own tensor.Vector.AxpyInPlace, whose every element is one fused
// multiply-add. add and the float32 axpy are unrolled four ways, which moves
// no bit — each element is still its own sum — and spends fewer loop
// branches per element.
func zero[T float](v []T) {
	for i := range v {
		v[i] = 0
	}
}

func add[T float](v, w []T) {
	w = w[:len(v)]
	i := 0
	for ; i+4 <= len(v); i += 4 {
		v4, w4 := v[i:i+4:i+4], w[i:i+4:i+4]
		v4[0] += w4[0]
		v4[1] += w4[1]
		v4[2] += w4[2]
		v4[3] += w4[3]
	}
	for ; i < len(v); i++ {
		v[i] += w[i]
	}
}

func axpy[T float](v []T, a T, w []T) {
	w = w[:len(v)]
	if v64, ok := any(v).([]float64); ok {
		tensor.Vector(v64).AxpyInPlace(float64(a), any(w).([]float64))
		return
	}
	i := 0
	for ; i+4 <= len(v); i += 4 {
		v4, w4 := v[i:i+4:i+4], w[i:i+4:i+4]
		v4[0] += T(a * w4[0]) // each product rounded on its own, never fused (arm64 would)
		v4[1] += T(a * w4[1])
		v4[2] += T(a * w4[2])
		v4[3] += T(a * w4[3])
	}
	for ; i < len(v); i++ {
		v[i] += T(a * w[i])
	}
}

// Predict returns the compiled prediction for one graph. Allocation-free in
// the steady state.
func (cm *CompiledModel) Predict(g *features.Graph) Prediction {
	s := cm.scratch.get()
	s.oneG[0] = g
	if cap(s.oneP) < 1 {
		s.oneP = make([]Prediction, 0, 1)
	}
	out := cm.batchInto(s, s.oneP[:0], s.oneG[:])
	p := out[0]
	s.oneP = out[:0]
	s.oneG[0] = nil
	cm.scratch.put(s)
	return p
}

// PredictBatch predicts every graph through the fused engine, allocating the
// result slice.
func (cm *CompiledModel) PredictBatch(graphs []*features.Graph) []Prediction {
	return cm.PredictBatchInto(make([]Prediction, 0, len(graphs)), graphs)
}

// PredictBatchInto is PredictBatch writing into dst (reset to length 0
// first, then appended once per graph, in order). When cap(dst) >=
// len(graphs) the call is allocation-free in the steady state. Buckets run
// sequentially; concurrent calls are safe and each draws its own scratch.
func (cm *CompiledModel) PredictBatchInto(dst []Prediction, graphs []*features.Graph) []Prediction {
	s := cm.scratch.get()
	dst = cm.batchInto(s, dst, graphs)
	cm.scratch.put(s)
	return dst
}

func (cm *CompiledModel) batchInto(s *fusedScratch, dst []Prediction, graphs []*features.Graph) []Prediction {
	dst = dst[:0]
	for range graphs {
		dst = append(dst, Prediction{})
	}
	// Near-equal passes of at most passCap graphs, in arrival order.
	passes := (len(graphs) + passCap - 1) / passCap
	for j := 0; j < passes; j++ {
		lo, hi := j*len(graphs)/passes, (j+1)*len(graphs)/passes
		if cm.Engine == EngineF64 {
			cm.f64.forwardPass(s, &s.m64, graphs[lo:hi], dst[lo:hi])
		} else {
			cm.f32.forwardPass(s, &s.m32, graphs[lo:hi], dst[lo:hi])
		}
	}
	cm.fusedGraphs.Add(uint64(len(graphs)))
	cm.fusedPasses.Add(uint64(passes))
	return dst
}

// passCap caps how many graphs run through the GEMMs together. The scratch
// matrices are sized by the largest pass and stay live in the pool, one
// scratch per concurrent caller, so the cap bounds resident memory. Measured
// on BenchmarkPredictMixed's 64 graphs of all twelve workload topologies
// (2-core Xeon, AVX-512 kernel, best of five on a noisy box), cap → scratch,
// µs/graph: 4 → 97 KiB, 11.7; 8 → 163 KiB, 9.9; 16 → 296 KiB, 9.9;
// 32 → 556 KiB, 7.7. Below 8 a pass pays for more and shorter GEMMs; above
// it the scratch grows linearly for a gain the tune workload's heap cannot
// pay for.
const passCap = 8

// FusedCounts reports how many graphs the engine has predicted and in how
// many passes. graphs/passes is the fusion the GEMMs actually see: near 1
// means every graph runs alone, its narrowest GEMMs padded to the
// microkernel's four rows.
func (cm *CompiledModel) FusedCounts() (graphs, passes uint64) {
	return cm.fusedGraphs.Load(), cm.fusedPasses.Load()
}

// applyMLP runs the layers over x, ping-ponging intermediate activations
// through the scratch buffers and writing the last layer into out. x.rows
// must equal out.rows and fit the mlpA/mlpB capacity.
func (e *engine[T]) applyMLP(ms *passMats[T], ls []layer[T], x, out mat[T]) {
	last := len(ls) - 1
	for i := range ls[:last] {
		l := &ls[i]
		buf := ms.mlpA
		if i%2 == 1 {
			buf = ms.mlpB
		}
		stride := roundUp(l.out, e.colPad)
		v := mat[T]{x.rows, l.out, stride, buf[:x.rows*stride]}
		e.gemm(x, l, v)
		x = v
	}
	e.gemm(x, &ls[last], out)
}

// forwardPass runs the fused schedule for one pass of graphs of any
// topologies, writing their predictions into dst, one per graph.
//
// Rows follow opLayout. Encoder inputs are stacked type by type, slot k's
// rows starting at encOff[k]; the operator states (hop, xm, hmap, lt) are
// depth-major, operator op at row opRow[op], so each depth level is one run
// of consecutive rows; resource rows are ragged, graph b's machines at rows
// resBase[b] … resBase[b+1]. GEMM row counts are rounded up to the kernel's
// rowPad: an encoder's slack rows are padding of its own, a level's slack
// rows overlap the next level (written afterwards) or the matrices' extra
// capacity, so the padded work is harmless and every matrix is written with
// fixed-shape kernels only. No row ever reads another row, which is why a
// graph's result does not depend on what shares its pass. Every element-wise
// step replicates the reference forward's expression and accumulation order —
// upstream sums in DataEdges order, the mean and the latency read-out in node
// order — so with gemm64 the results are bit-identical to Model.Predict for
// each graph: the anchor the differential tests and the accuracy gate
// measure against.
func (e *engine[T]) forwardPass(s *fusedScratch, ms *passMats[T], gs []*features.Graph, dst []Prediction) {
	nOps, nRes := s.index(gs)
	h := e.cfg.Hidden
	hs, ones := roundUp(h, e.colPad), roundUp(1, e.colPad) // strides of GEMM outputs
	Gp := roundUp(len(gs), e.rowPad)
	opRows := nOps + e.rowPad - 1 // a level's padded GEMM ends inside
	resRows := roundUp(nRes, e.rowPad)
	for k, c := range s.counts {
		s.encOff[k+1] = s.encOff[k] + roundUp(c, e.rowPad)
	}
	encRows := s.encOff[len(opTypeOrder)]
	maxN := 0
	for _, g := range gs {
		maxN = max(maxN, len(g.OpNodes))
	}

	ms.e.grow(encRows, h, hs)
	ms.hop.grow(opRows, h, hs)
	ms.er.grow(resRows, h, hs)
	ms.sum.grow(Gp, h, h)
	ms.xcr.grow(resRows, 2*h, 2*h)
	ms.hres.grow(resRows, h, hs)
	ms.xm.grow(opRows, 2*h, 2*h)
	ms.hmap.grow(opRows, h, hs)
	ms.lt.grow(opRows, 1, ones)
	ms.pooled.grow(Gp, 2*h, 2*h)
	ms.tt.grow(Gp, 1, ones)
	if need := max(encRows, opRows, resRows) * e.maxW; cap(ms.mlpA) < need {
		ms.mlpA, ms.mlpB = make([]T, need), make([]T, need)
	}
	if cap(s.lat) < maxN {
		s.lat, s.latW, s.tot = make([]float64, maxN), make([]float64, maxN), make([]float64, maxN)
	}

	// Stage 1a: encoders, one GEMM per operator type present.
	ms.xg.grow(encRows, features.OpFeatDim, features.OpFeatDim)
	for b, g := range gs {
		ob := s.opBase[b]
		for i := range g.OpNodes {
			row := ms.xg.row(s.encOff[s.slot[ob+i]] + s.encRow[ob+i])
			for t, v := range g.OpNodes[i].Feat {
				row[t] = T(v)
			}
		}
	}
	for k := range s.counts {
		if lo, hi := s.encOff[k], s.encOff[k+1]; hi > lo {
			e.applyMLP(ms, e.encOp[k], ms.xg.view(lo, hi-lo), ms.e.view(lo, hi-lo))
		}
	}

	// Stage 1b: data-flow pass, one GEMM per depth level. Row k of xm is
	// the combiner's input [own encoding ‖ Σ upstream states] for row k of
	// hop; the mapping pass reuses xm once every level has run.
	for d := 0; d+1 < len(s.levels); d++ {
		lo, hi := s.levels[d], s.levels[d+1]
		for row := lo; row < hi; row++ {
			op := s.rowOp[row]
			xcRow := ms.xm.row(row)
			copy(xcRow[:h], ms.e.row(s.encOff[s.slot[op]]+s.encRow[op]))
			agg := xcRow[h:]
			zero(agg)
			for _, up := range s.ups[op] {
				add(agg, ms.hop.row(s.opRow[up]))
			}
		}
		rows := roundUp(hi-lo, e.rowPad)
		e.applyMLP(ms, e.combineOp, ms.xm.view(lo, rows), ms.hop.view(lo, rows))
	}

	// Stage 2: resource pass, one GEMM per MLP over every graph's rows.
	ms.xg.grow(resRows, features.ResFeatDim, features.ResFeatDim)
	for b, g := range gs {
		for i := range g.ResNodes {
			row := ms.xg.row(s.resBase[b] + i)
			for t, v := range g.ResNodes[i].Feat {
				row[t] = T(v)
			}
		}
	}
	e.applyMLP(ms, e.encRes, ms.xg, ms.er)
	for b, g := range gs {
		r, off := len(g.ResNodes), s.resBase[b]
		sumRow := ms.sum.row(b)
		zero(sumRow)
		for i := 0; i < r; i++ {
			add(sumRow, ms.er.row(off+i))
		}
		var invR T
		if r > 1 {
			invR = T(1 / float64(r-1))
		}
		for i := 0; i < r; i++ {
			own := ms.er.row(off + i)
			xcrRow := ms.xcr.row(off + i)
			copy(xcrRow[:h], own)
			oth := xcrRow[h:]
			if r > 1 {
				for j := range oth {
					oth[j] = (sumRow[j] - own[j]) * invR
				}
			} else {
				zero(oth)
			}
		}
	}
	e.applyMLP(ms, e.combineRes, ms.xcr, ms.hres)

	// Stage 3: mapping pass. Left half of xm is the op state; the right half
	// accumulates the instance-weighted resource states, each graph walking
	// its own mapping edges in order.
	for row := 0; row < nOps; row++ {
		xmRow := ms.xm.row(row)
		copy(xmRow[:h], ms.hop.row(row))
		zero(xmRow[h:])
	}
	for b, g := range gs {
		ob, tot := s.opBase[b], s.tot[:len(g.OpNodes)]
		for i := range tot {
			tot[i] = 0
		}
		for _, edge := range g.Mapping {
			tot[edge.OpIdx] += float64(edge.Instances)
		}
		for _, edge := range g.Mapping {
			w := float64(edge.Instances)
			if tot[edge.OpIdx] > 0 {
				w /= tot[edge.OpIdx]
			}
			axpy(ms.xm.row(s.opRow[ob+edge.OpIdx])[h:], T(w), ms.hres.row(s.resBase[b]+edge.ResIdx))
		}
	}
	nOpsP := roundUp(nOps, e.rowPad)
	e.applyMLP(ms, e.combineMap, ms.xm.view(0, nOpsP), ms.hmap.view(0, nOpsP))

	// Stage 4: read-out.
	for b, g := range gs {
		ob, n := s.opBase[b], len(g.OpNodes)
		invN := T(1 / float64(n))
		mean := ms.sum.row(b)
		zero(mean)
		for i := 0; i < n; i++ {
			axpy(mean, invN, ms.hmap.row(s.opRow[ob+i]))
		}
		pRow := ms.pooled.row(b)
		copy(pRow[:h], ms.hmap.row(s.opRow[ob+g.SinkIdx]))
		copy(pRow[h:], mean)
	}
	structured := e.cfg.Readout != ReadoutSink
	if structured {
		e.applyMLP(ms, e.latHead, ms.hmap.view(0, nOpsP), ms.lt.view(0, nOpsP))
	} else {
		e.applyMLP(ms, e.latHead, ms.pooled, ms.lt.view(0, Gp))
	}
	e.applyMLP(ms, e.tptHead, ms.pooled, ms.tt)

	for b, g := range gs {
		var logLat float64
		if structured {
			ob, n := s.opBase[b], len(g.OpNodes)
			for i := 0; i < n; i++ {
				s.lat[i] = float64(ms.lt.row(s.opRow[ob+i])[0])
			}
			logLat = logSumExp10(s.lat[:n], s.latW[:n])
		} else {
			logLat = float64(ms.lt.row(b)[0])
		}
		logTpt := float64(ms.tt.row(b)[0])
		dst[b] = Prediction{
			LatencyMs:     math.Pow(10, logLat),
			ThroughputEPS: math.Pow(10, logTpt),
			LogLatency:    logLat,
			LogThroughput: logTpt,
		}
	}
}
