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
// GEMMs: graphs are grouped by operator topology, every graph in a bucket
// shares one data-flow schedule (upstream lists), and each MLP application
// over the bucket becomes one matrix multiply of stacked rows instead of one
// vector pass per graph. Resources and mapping edges are not part of the
// topology — they change with every parallelism degree vector — so inside a
// bucket they are ragged: each graph brings its own resource rows and walks
// its own mapping edges. Weights are converted once at compile time —
// to float32 for the fast path (tensor.Gemm32BiasActInto, AVX2+FMA where
// available), or kept float64 for the bit-exact reference engine — and a
// load-time accuracy gate compares the compiled predictions against the
// float64 reference so degraded numerics can never reach serving silently.
//
// Steady-state inference is allocation-free: all per-bucket matrices live in
// a fusedScratch arena recycled through a persistent free list, growing only
// when a bucket outgrows every previous one.

// Engine selects the numeric representation of a compiled model.
type Engine int

const (
	// EngineF32 runs float32 weights and activations (the fast path).
	EngineF32 Engine = iota
	// EngineF64 runs the fused schedule in float64 with the original
	// weights; its results are bit-identical to Model.Predict per graph and
	// anchor the differential tests.
	EngineF64
	// EngineInt8 stores weights as int8 with one scale per layer and
	// dequantizes to float32 at compile time: a smaller artifact at the cost
	// of quantization error, which the accuracy gate must approve.
	EngineInt8
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case EngineF32:
		return "f32"
	case EngineF64:
		return "f64"
	case EngineInt8:
		return "int8"
	default:
		return fmt.Sprintf("engine(%d)", int(e))
	}
}

// DefaultGateThreshold is the default accuracy-gate budget: the compiled
// model's worst-case q-error against the float64 reference on the validation
// set must stay below 1 + threshold.
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
	// MaxQErrDelta is the accuracy-gate budget; 0 means
	// DefaultGateThreshold.
	MaxQErrDelta float64
	// Validation supplies the gate's evaluation graphs. When nil, a small
	// deterministic corpus of benchmark-query plans is generated.
	Validation []*features.Graph
	// Int8 supplies pre-quantized weights for EngineInt8 (so callers can
	// persist or inspect them); nil quantizes m on the fly.
	Int8 *Int8Weights
	// Workers bounds the reference model's validation fan-out (0 = auto).
	Workers int
}

// layer32 is one compiled linear layer: transposed, column-padded float32
// weights plus a padded bias, with the activation fused into the GEMM.
type layer32 struct {
	wt   *tensor.Matrix32 // in×out, stride padded to a multiple of 16
	bias tensor.Vector32  // len == wt.Stride, padding zero
	act  tensor.Act32
	out  int
}

// CompiledModel is the fused-batch inference engine built by Compile.
// It is safe for concurrent use; all weight state is immutable after
// Compile and per-call scratch comes from an internal pool.
type CompiledModel struct {
	// Ref is the model this engine was compiled from; the float64 engine
	// reads its weights directly, and callers may use it for training or
	// explanations.
	Ref *Model
	// Engine is the numeric representation compiled in.
	Engine Engine
	// Gate is the recorded accuracy-gate outcome.
	Gate GateReport

	cfg   Config
	maxNp int // widest padded layer output, sizes the MLP ping-pong scratch

	encOp      map[queryplan.OpType][]layer32
	encRes     []layer32
	combineOp  []layer32
	combineRes []layer32
	combineMap []layer32
	latHead    []layer32
	tptHead    []layer32

	scratch scratchPool

	fusedGraphs, fusedBuckets atomic.Uint64
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

// Int8Weights is the per-layer int8 quantization of a model's weight
// matrices, in the model's stable layer order. Biases are not quantized.
type Int8Weights struct {
	Layers []Int8Layer `json:"layers"`
}

// Int8Layer is one quantized weight matrix: W[r,c] ≈ Scale * Q[r*Cols+c].
type Int8Layer struct {
	Rows  int     `json:"rows"`
	Cols  int     `json:"cols"`
	Scale float64 `json:"scale"`
	Q     []int8  `json:"q"`
}

// QuantizeInt8 quantizes every weight matrix of m to int8 with a per-layer
// symmetric scale (absmax/127).
func QuantizeInt8(m *Model) *Int8Weights {
	var w Int8Weights
	for _, mlp := range m.mlps() {
		for _, l := range mlp.Layers {
			var absmax float64
			for _, v := range l.W.Data {
				if a := math.Abs(v); a > absmax {
					absmax = a
				}
			}
			scale := absmax / 127
			if scale == 0 {
				scale = 1
			}
			q := make([]int8, len(l.W.Data))
			for i, v := range l.W.Data {
				r := math.Round(v / scale)
				if r > 127 {
					r = 127
				} else if r < -127 {
					r = -127
				}
				q[i] = int8(r)
			}
			w.Layers = append(w.Layers, Int8Layer{Rows: l.W.Rows, Cols: l.W.Cols, Scale: scale, Q: q})
		}
	}
	return &w
}

// Compile builds the fused inference engine for m and runs the accuracy
// gate: the compiled model predicts the validation set and its worst-case
// q-error against the float64 reference must stay within the budget, or
// Compile returns an error wrapping ErrAccuracyGate and the compiled model
// must not be served.
func Compile(m *Model, opts CompileOptions) (*CompiledModel, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("gnn: compile: %w", err)
	}
	threshold := opts.MaxQErrDelta
	if threshold == 0 {
		threshold = DefaultGateThreshold
	}
	cm := &CompiledModel{Ref: m, Engine: opts.Engine, cfg: m.Cfg}

	switch opts.Engine {
	case EngineF64:
		// The float64 engine reads the reference weights directly.
	case EngineF32, EngineInt8:
		var int8w *Int8Weights
		if opts.Engine == EngineInt8 {
			int8w = opts.Int8
			if int8w == nil {
				int8w = QuantizeInt8(m)
			}
		}
		cursor := 0
		compile := func(mlp *nn.MLP) ([]layer32, error) {
			ls := make([]layer32, len(mlp.Layers))
			for i, l := range mlp.Layers {
				act, err := act32Of(l.Act)
				if err != nil {
					return nil, err
				}
				var wt *tensor.Matrix32
				if int8w != nil {
					if cursor >= len(int8w.Layers) {
						return nil, fmt.Errorf("gnn: compile: int8 weights have %d layers, model has more", len(int8w.Layers))
					}
					q := int8w.Layers[cursor]
					if q.Rows != l.W.Rows || q.Cols != l.W.Cols {
						return nil, fmt.Errorf("gnn: compile: int8 layer %d is %dx%d, model layer is %dx%d",
							cursor, q.Rows, q.Cols, l.W.Rows, l.W.Cols)
					}
					wt = dequantTransposed32(q)
				} else {
					wt = tensor.TransposedPadded32(l.W)
				}
				bias := tensor.NewVector32(wt.Stride)
				for j, b := range l.B {
					bias[j] = float32(b)
				}
				if wt.Cols > cm.maxNp {
					cm.maxNp = tensor.PadTo16(wt.Cols)
				}
				ls[i] = layer32{wt: wt, bias: bias, act: act, out: l.Out()}
				cursor++
			}
			return ls, nil
		}
		var err error
		cm.encOp = make(map[queryplan.OpType][]layer32, len(opTypeOrder))
		for _, t := range opTypeOrder {
			if cm.encOp[t], err = compile(m.EncOp[t]); err != nil {
				return nil, err
			}
		}
		for _, c := range []struct {
			dst *[]layer32
			mlp *nn.MLP
		}{
			{&cm.encRes, m.EncRes}, {&cm.combineOp, m.CombineOp}, {&cm.combineRes, m.CombineRes},
			{&cm.combineMap, m.CombineMap}, {&cm.latHead, m.LatHead}, {&cm.tptHead, m.TptHead},
		} {
			if *c.dst, err = compile(c.mlp); err != nil {
				return nil, err
			}
		}
		if cm.maxNp < 16 {
			cm.maxNp = 16
		}
	default:
		return nil, fmt.Errorf("gnn: compile: unknown engine %v", opts.Engine)
	}

	// Accuracy gate: compiled vs float64 reference on the validation set.
	val := opts.Validation
	if len(val) == 0 {
		var err error
		if val, err = gateGraphs(); err != nil {
			return nil, fmt.Errorf("gnn: compile: build validation set: %w", err)
		}
	}
	refPreds := m.PredictBatch(val, opts.Workers)
	gotPreds := cm.PredictBatch(val)
	// The counters report serving traffic, not the gate's own batch.
	cm.fusedGraphs.Store(0)
	cm.fusedBuckets.Store(0)
	maxQ := 1.0
	for i := range val {
		for _, q := range []float64{
			qerr(refPreds[i].LatencyMs, gotPreds[i].LatencyMs),
			qerr(refPreds[i].ThroughputEPS, gotPreds[i].ThroughputEPS),
		} {
			if q > maxQ {
				maxQ = q
			}
		}
	}
	cm.Gate = GateReport{Engine: opts.Engine, Graphs: len(val), MaxQErr: maxQ, Threshold: threshold}
	if maxQ > 1+threshold {
		return nil, fmt.Errorf("%w: engine %v max q-error %.6f over %d graphs exceeds budget %.6f",
			ErrAccuracyGate, opts.Engine, maxQ, len(val), 1+threshold)
	}
	return cm, nil
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

// dequantTransposed32 expands an int8 layer into the transposed padded
// float32 layout, baking in the quantization error the gate will judge.
func dequantTransposed32(q Int8Layer) *tensor.Matrix32 {
	np := tensor.PadTo16(q.Rows)
	wt := tensor.NewMatrix32Strided(q.Cols, q.Rows, np)
	for j := 0; j < q.Rows; j++ {
		for t := 0; t < q.Cols; t++ {
			wt.Data[t*np+j] = float32(float64(q.Q[j*q.Cols+t]) * q.Scale)
		}
	}
	return wt
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

// gateGraphs builds the default validation corpus: the three benchmark
// queries at a deterministic sweep of parallelism degrees on a seen-hardware
// cluster.
func gateGraphs() ([]*features.Graph, error) {
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
		g, err := features.Encode(p, c, features.MaskAll)
		if err != nil {
			return nil, err
		}
		graphs = append(graphs, g)
	}
	return graphs, nil
}

// structKey fingerprints a graph's operator topology: everything that
// determines the shared data-flow schedule (operator count, op types, data
// edges, sink). Resource nodes and mapping edges are deliberately left out:
// they follow the degree vector, so the candidates of one tuning sweep — one
// query, many degree vectors — differ in them and must still share a bucket.
// Graphs with equal keys are verified with sameStructure before sharing one.
func structKey(g *features.Graph) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(x uint64) {
		h ^= x
		h *= prime64
	}
	mix(uint64(len(g.OpNodes)))
	mix(uint64(g.SinkIdx))
	for _, nd := range g.OpNodes {
		mix(uint64(nd.Type))
	}
	for _, e := range g.DataEdges {
		mix(uint64(e[0])<<32 | uint64(uint32(e[1])))
	}
	return h
}

// sameStructure reports whether two graphs share the data-flow schedule; it
// backs structKey against hash collisions.
func sameStructure(a, b *features.Graph) bool {
	if len(a.OpNodes) != len(b.OpNodes) || a.SinkIdx != b.SinkIdx || len(a.DataEdges) != len(b.DataEdges) {
		return false
	}
	for i := range a.OpNodes {
		if a.OpNodes[i].Type != b.OpNodes[i].Type {
			return false
		}
	}
	for i := range a.DataEdges {
		if a.DataEdges[i] != b.DataEdges[i] {
			return false
		}
	}
	return true
}

// bucketSlot is one topology bucket of a batch: the graphs sharing a
// structure and their positions in the output slice. Slots and their slices
// are recycled across calls.
type bucketSlot struct {
	key uint64
	gs  []*features.Graph // gs[0] is the prototype the others were matched against
	pos []int
}

// fusedScratch is the per-call arena: every matrix the fused forward needs,
// grown to the largest bucket seen and reused. One scratch serves one
// PredictBatchInto call at a time; the pool hands them to concurrent
// callers.
type fusedScratch struct {
	buckets   []bucketSlot
	upstreams [][]int // per op position: upstream positions
	resOff    []int   // per graph of the bucket: its first resource row

	// float32 engine matrices (nil until first use).
	xg, e, hop, xc, er, sum, xcr, hres, xm, hmap, lt, pooled, tt *tensor.Matrix32
	mlpA, mlpB                                                   []float32
	vx, vy, vpA, vpB                                             tensor.Matrix32

	// float64 engine matrices.
	xgD, eD, hopD, xcD, erD, sumD, xcrD, hresD, xmD, hmapD, ltD, pooledD, ttD *tensor.Matrix
	mlpAD, mlpBD                                                              []float64
	vxD, vyD, vpAD, vpBD                                                      tensor.Matrix

	lat, latW, tot []float64

	oneG [1]*features.Graph
	oneP []Prediction
}

func (s *fusedScratch) addBucket(key uint64) *bucketSlot {
	n := len(s.buckets)
	if n < cap(s.buckets) {
		s.buckets = s.buckets[:n+1]
	} else {
		s.buckets = append(s.buckets, bucketSlot{})
	}
	b := &s.buckets[n]
	b.key = key
	b.gs, b.pos = b.gs[:0], b.pos[:0]
	return b
}

// buildSchedule derives what the graphs of one bucket share — the upstream
// lists of their common data edges — and what they do not: every graph's
// resource rows are laid end to end, graph bi's starting at resOff[bi]. It
// returns the total number of resource rows.
func (s *fusedScratch) buildSchedule(gs []*features.Graph) int {
	s.upstreams = growSchedule(s.upstreams, len(gs[0].OpNodes))
	for _, e := range gs[0].DataEdges {
		s.upstreams[e[1]] = append(s.upstreams[e[1]], e[0])
	}
	s.resOff = s.resOff[:0]
	rows := 0
	for _, g := range gs {
		s.resOff = append(s.resOff, rows)
		rows += len(g.ResNodes)
	}
	return rows
}

// growSchedule resizes ss to n empty inner slices. Unlike growIntSlices it
// preserves the capacities of inner slices beyond the current length, so the
// bucket loop's fluctuating shapes don't shed warmed-up buffers.
func growSchedule(ss [][]int, n int) [][]int {
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

func roundUp4(n int) int {
	if n < 4 {
		return 4
	}
	return (n + 3) &^ 3
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// grow32 resizes m to rows×cols with the given stride, reusing its backing
// array when large enough (stale values are overwritten or live in padding).
func grow32(m *tensor.Matrix32, rows, cols, stride int) *tensor.Matrix32 {
	need := rows * stride
	if m == nil || cap(m.Data) < need {
		return tensor.NewMatrix32Strided(rows, cols, stride)
	}
	m.Rows, m.Cols, m.Stride = rows, cols, stride
	m.Data = m.Data[:need]
	return m
}

// grow64 is grow32 for float64 matrices (stride == cols).
func grow64(m *tensor.Matrix, rows, cols int) *tensor.Matrix {
	need := rows * cols
	if m == nil || cap(m.Data) < need {
		return tensor.NewMatrix(rows, cols)
	}
	m.Rows, m.Cols = rows, cols
	m.Data = m.Data[:need]
	return m
}

func growF32(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

func growF64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// setView32 points v at rows [start, start+rows) of src.
func setView32(v *tensor.Matrix32, src *tensor.Matrix32, start, rows int) *tensor.Matrix32 {
	v.Rows, v.Cols, v.Stride = rows, src.Cols, src.Stride
	v.Data = src.Data[start*src.Stride : (start+rows)*src.Stride]
	return v
}

// setView64 points v at rows [start, start+rows) of src.
func setView64(v *tensor.Matrix, src *tensor.Matrix, start, rows int) *tensor.Matrix {
	v.Rows, v.Cols = rows, src.Cols
	v.Data = src.Data[start*src.Cols : (start+rows)*src.Cols]
	return v
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
	s.buckets = s.buckets[:0]
	for gi, g := range graphs {
		key := structKey(g)
		var slot *bucketSlot
		for bi := range s.buckets {
			if s.buckets[bi].key == key && sameStructure(s.buckets[bi].gs[0], g) {
				slot = &s.buckets[bi]
				break
			}
		}
		if slot == nil {
			slot = s.addBucket(key)
		}
		slot.gs = append(slot.gs, g)
		slot.pos = append(slot.pos, gi)
	}
	cm.fusedGraphs.Add(uint64(len(graphs)))
	cm.fusedBuckets.Add(uint64(len(s.buckets)))
	for bi := range s.buckets {
		b := &s.buckets[bi]
		// Near-equal groups of at most fusedGroup graphs.
		groups := (len(b.gs) + fusedGroup - 1) / fusedGroup
		for j := 0; j < groups; j++ {
			lo, hi := j*len(b.gs)/groups, (j+1)*len(b.gs)/groups
			if cm.Engine == EngineF64 {
				cm.forwardBucket64(s, b.gs[lo:hi], b.pos[lo:hi], dst)
			} else {
				cm.forwardBucket32(s, b.gs[lo:hi], b.pos[lo:hi], dst)
			}
		}
	}
	return dst
}

// fusedGroup caps how many graphs of one bucket run through the GEMMs
// together. The scratch matrices are sized by the largest group and stay live
// in the pool, one scratch per concurrent caller, so the cap bounds resident
// memory — while the GEMMs gain nothing from taller matrices once the
// microkernel's four rows are full. Measured without the cap on
// BenchmarkPredictSweep's graphs (one five-operator topology, ragged
// mappings; AVX2, 2.1 GHz Xeon), graphs sharing a bucket → µs/graph, scratch:
// 1 → 11.2, 0.02 MiB; 2 → 7.7, 0.03; 4 → 6.4, 0.04; 8 → 6.0, 0.09;
// 12 → 6.6, 0.14; 16 → 6.6, 0.18; 24 → 6.5, 0.27; 48 → 6.0, 0.55. Flat from
// 4 up, so 8 keeps every group of a split bucket above the knee (a 25-graph
// bucket runs as 7+6+6+6) at a third of the memory a whole candidate set
// would pin.
const fusedGroup = 8

// FusedCounts reports how many graphs the engine has predicted and how many
// topology buckets they fell into. graphs/buckets is the fusion the GEMMs
// actually see: near 1 means every graph runs alone, padded to the
// microkernel's four rows.
func (cm *CompiledModel) FusedCounts() (graphs, buckets uint64) {
	return cm.fusedGraphs.Load(), cm.fusedBuckets.Load()
}

// applyMLP32 runs the compiled layers over x, ping-ponging intermediate
// activations through the scratch buffers and writing the last layer into
// out. x.Rows must equal out.Rows and both fit the mlpA/mlpB capacity.
func (cm *CompiledModel) applyMLP32(s *fusedScratch, ls []layer32, x, out *tensor.Matrix32) {
	cur := x
	useA := true
	for i := 0; i < len(ls)-1; i++ {
		l := &ls[i]
		v := &s.vpA
		buf := s.mlpA
		if !useA {
			v, buf = &s.vpB, s.mlpB
		}
		useA = !useA
		v.Rows, v.Cols, v.Stride = cur.Rows, l.out, cm.maxNp
		v.Data = buf[:cur.Rows*cm.maxNp]
		tensor.Gemm32BiasActInto(cur, l.wt, l.bias, v, l.act)
		cur = v
	}
	l := &ls[len(ls)-1]
	tensor.Gemm32BiasActInto(cur, l.wt, l.bias, out, l.act)
}

// forwardBucket32 runs the float32 fused schedule for one bucket, writing
// predictions into dst at the bucket's positions.
//
// Operator rows are laid out per position in blocks of B consecutive rows
// (row i*B+b is op position i of graph b). Resource rows are ragged: graph b
// owns rows resOff[b] … resOff[b]+r_b, one per resource node it has, so the
// resource encoder and combiner each run as one GEMM over all Σ r_b rows.
// GEMM row counts are rounded up to the microkernel's group of 4; the slack
// rows either overlap the next position's block (which is written afterwards)
// or live in the matrices' extra capacity, so the padded work is harmless and
// every matrix is written with fixed-shape kernels only. No row ever reads
// another row, which is why a graph's result does not depend on what shares
// its bucket.
func (cm *CompiledModel) forwardBucket32(s *fusedScratch, gs []*features.Graph, pos []int, dst []Prediction) {
	proto := gs[0]
	n, B := len(proto.OpNodes), len(gs)
	h := cm.cfg.Hidden
	np := tensor.PadTo16(h)
	B4 := roundUp4(B)
	opRows := maxInt(roundUp4(n*B), (n-1)*B+B4)
	resRows := roundUp4(s.buildSchedule(gs))

	featMax := maxInt(features.OpFeatDim, features.ResFeatDim)
	s.xg = grow32(s.xg, maxInt(B4, resRows), features.OpFeatDim, featMax)
	s.e = grow32(s.e, opRows, h, np)
	s.hop = grow32(s.hop, opRows, h, np)
	s.xc = grow32(s.xc, B4, 2*h, 2*h)
	s.er = grow32(s.er, resRows, h, np)
	s.sum = grow32(s.sum, B4, h, np)
	s.xcr = grow32(s.xcr, resRows, 2*h, 2*h)
	s.hres = grow32(s.hres, resRows, h, np)
	s.xm = grow32(s.xm, opRows, 2*h, 2*h)
	s.hmap = grow32(s.hmap, opRows, h, np)
	s.lt = grow32(s.lt, opRows, 1, 16)
	s.pooled = grow32(s.pooled, B4, 2*h, 2*h)
	s.tt = grow32(s.tt, B4, 1, 16)
	s.mlpA = growF32(s.mlpA, maxInt(opRows, resRows)*cm.maxNp)
	s.mlpB = growF32(s.mlpB, maxInt(opRows, resRows)*cm.maxNp)
	s.lat = growF64(s.lat, n)
	s.latW = growF64(s.latW, n)
	s.tot = growF64(s.tot, n)

	// Stage 1: encoders + data-flow pass, topologically ordered positions.
	s.xg.Cols = features.OpFeatDim
	for i, node := range proto.OpNodes {
		for bi, g := range gs {
			feat := g.OpNodes[i].Feat
			row := s.xg.Row(bi)
			for t, v := range feat {
				row[t] = float32(v)
			}
		}
		cm.applyMLP32(s, cm.encOp[node.Type], setView32(&s.vx, s.xg, 0, B4), setView32(&s.vy, s.e, i*B, B4))
		for bi := 0; bi < B; bi++ {
			xcRow := s.xc.Row(bi)
			copy(xcRow[:h], s.e.Row(i*B+bi))
			agg := xcRow[h:]
			agg.Zero()
			for _, up := range s.upstreams[i] {
				agg.AddInPlace(s.hop.Row(up*B + bi))
			}
		}
		cm.applyMLP32(s, cm.combineOp, setView32(&s.vx, s.xc, 0, B4), setView32(&s.vy, s.hop, i*B, B4))
	}

	// Stage 2: resource pass, one GEMM per MLP over every graph's rows.
	s.xg.Cols = features.ResFeatDim
	for bi, g := range gs {
		for i := range g.ResNodes {
			row := s.xg.Row(s.resOff[bi] + i)
			for t, v := range g.ResNodes[i].Feat {
				row[t] = float32(v)
			}
		}
	}
	cm.applyMLP32(s, cm.encRes, setView32(&s.vx, s.xg, 0, resRows), setView32(&s.vy, s.er, 0, resRows))
	for bi, g := range gs {
		r, off := len(g.ResNodes), s.resOff[bi]
		sumRow := s.sum.Row(bi)
		sumRow.Zero()
		for i := 0; i < r; i++ {
			sumRow.AddInPlace(s.er.Row(off + i))
		}
		invR := float32(0)
		if r > 1 {
			invR = float32(1 / float64(r-1))
		}
		for i := 0; i < r; i++ {
			own := s.er.Row(off + i)
			xcrRow := s.xcr.Row(off + i)
			copy(xcrRow[:h], own)
			oth := xcrRow[h:]
			if r > 1 {
				for j := range oth {
					oth[j] = (sumRow[j] - own[j]) * invR
				}
			} else {
				oth.Zero()
			}
		}
	}
	cm.applyMLP32(s, cm.combineRes, setView32(&s.vx, s.xcr, 0, resRows), setView32(&s.vy, s.hres, 0, resRows))

	// Stage 3: mapping pass. Left half of xm is the op state; the right half
	// accumulates the instance-weighted resource states, each graph walking
	// its own mapping edges in order.
	for i := 0; i < n*B; i++ {
		xmRow := s.xm.Row(i)
		copy(xmRow[:h], s.hop.Row(i))
		xmRow[h:].Zero()
	}
	tot := s.tot[:n]
	for bi, g := range gs {
		for i := range tot {
			tot[i] = 0
		}
		for _, e := range g.Mapping {
			tot[e.OpIdx] += float64(e.Instances)
		}
		for _, e := range g.Mapping {
			w := float64(e.Instances)
			if tot[e.OpIdx] > 0 {
				w /= tot[e.OpIdx]
			}
			s.xm.Row(e.OpIdx*B + bi)[h:].AxpyInPlace(float32(w), s.hres.Row(s.resOff[bi]+e.ResIdx))
		}
	}
	cm.applyMLP32(s, cm.combineMap, setView32(&s.vx, s.xm, 0, roundUp4(n*B)), setView32(&s.vy, s.hmap, 0, roundUp4(n*B)))

	// Stage 4: read-out.
	invN := float32(1 / float64(n))
	for bi := 0; bi < B; bi++ {
		mean := s.sum.Row(bi)
		mean.Zero()
		for i := 0; i < n; i++ {
			mean.AxpyInPlace(invN, s.hmap.Row(i*B+bi))
		}
		pRow := s.pooled.Row(bi)
		copy(pRow[:h], s.hmap.Row(proto.SinkIdx*B+bi))
		copy(pRow[h:], mean)
	}
	structured := cm.cfg.Readout != ReadoutSink
	if structured {
		cm.applyMLP32(s, cm.latHead, setView32(&s.vx, s.hmap, 0, roundUp4(n*B)), setView32(&s.vy, s.lt, 0, roundUp4(n*B)))
	} else {
		cm.applyMLP32(s, cm.latHead, setView32(&s.vx, s.pooled, 0, B4), setView32(&s.vy, s.lt, 0, B4))
	}
	cm.applyMLP32(s, cm.tptHead, setView32(&s.vx, s.pooled, 0, B4), setView32(&s.vy, s.tt, 0, B4))

	for bi := range gs {
		var logLat float64
		if structured {
			for i := 0; i < n; i++ {
				s.lat[i] = float64(s.lt.Row(i*B + bi)[0])
			}
			logLat = logSumExp10(s.lat[:n], s.latW[:n])
		} else {
			logLat = float64(s.lt.Row(bi)[0])
		}
		logTpt := float64(s.tt.Row(bi)[0])
		dst[pos[bi]] = Prediction{
			LatencyMs:     math.Pow(10, logLat),
			ThroughputEPS: math.Pow(10, logTpt),
			LogLatency:    logLat,
			LogThroughput: logTpt,
		}
	}
}

// applyMLP64 is applyMLP32 for the float64 engine: batched per-row
// MulVecAddBias (bit-identical to the reference MLP forward) plus the exact
// element-wise activation.
func (cm *CompiledModel) applyMLP64(s *fusedScratch, mlp *nn.MLP, x, out *tensor.Matrix) {
	cur := x
	useA := true
	last := len(mlp.Layers) - 1
	for i, l := range mlp.Layers {
		var dst *tensor.Matrix
		if i == last {
			dst = out
		} else {
			v := &s.vpAD
			buf := s.mlpAD
			if !useA {
				v, buf = &s.vpBD, s.mlpBD
			}
			useA = !useA
			v.Rows, v.Cols = cur.Rows, l.Out()
			v.Data = buf[:cur.Rows*l.Out()]
			dst = v
		}
		tensor.GemmBiasInto(cur, l.W, l.B, dst)
		for ri := 0; ri < dst.Rows; ri++ {
			row := dst.Row(ri)
			for j, p := range row {
				row[j] = l.Act.Apply(p)
			}
		}
		cur = dst
	}
}

// forwardBucket64 runs the fused schedule in float64 with the reference
// weights, in forwardBucket32's row layout without the padding. Every
// per-element operation replicates the reference forward's accumulation
// order, so the results are bit-identical to Model.Predict for each graph —
// the anchor the differential tests and the accuracy gate measure against.
func (cm *CompiledModel) forwardBucket64(s *fusedScratch, gs []*features.Graph, pos []int, dst []Prediction) {
	proto := gs[0]
	m := cm.Ref
	n, B := len(proto.OpNodes), len(gs)
	h := cm.cfg.Hidden
	resRows := s.buildSchedule(gs)

	maxW := 0
	for _, mlp := range m.mlps() {
		for _, l := range mlp.Layers {
			if l.Out() > maxW {
				maxW = l.Out()
			}
		}
	}
	featMax := maxInt(features.OpFeatDim, features.ResFeatDim)
	s.xgD = grow64(s.xgD, maxInt(B, resRows), featMax)
	s.eD = grow64(s.eD, n*B, h)
	s.hopD = grow64(s.hopD, n*B, h)
	s.xcD = grow64(s.xcD, B, 2*h)
	s.erD = grow64(s.erD, resRows, h)
	s.sumD = grow64(s.sumD, B, h)
	s.xcrD = grow64(s.xcrD, resRows, 2*h)
	s.hresD = grow64(s.hresD, resRows, h)
	s.xmD = grow64(s.xmD, n*B, 2*h)
	s.hmapD = grow64(s.hmapD, n*B, h)
	s.ltD = grow64(s.ltD, n*B, 1)
	s.pooledD = grow64(s.pooledD, B, 2*h)
	s.ttD = grow64(s.ttD, B, 1)
	s.mlpAD = growF64(s.mlpAD, maxInt(n*B, resRows)*maxW)
	s.mlpBD = growF64(s.mlpBD, maxInt(n*B, resRows)*maxW)
	s.lat = growF64(s.lat, n)
	s.latW = growF64(s.latW, n)
	s.tot = growF64(s.tot, n)

	// Stage 1.
	xg := s.xgD
	for i, node := range proto.OpNodes {
		xg.Rows, xg.Cols = B, features.OpFeatDim
		xg.Data = xg.Data[:B*features.OpFeatDim]
		for bi, g := range gs {
			copy(xg.Row(bi), g.OpNodes[i].Feat)
		}
		cm.applyMLP64(s, m.EncOp[node.Type], xg, setView64(&s.vyD, s.eD, i*B, B))
		for bi := 0; bi < B; bi++ {
			xcRow := s.xcD.Row(bi)
			copy(xcRow[:h], s.eD.Row(i*B+bi))
			agg := xcRow[h:]
			agg.Zero()
			for _, up := range s.upstreams[i] {
				agg.AddInPlace(s.hopD.Row(up*B + bi))
			}
		}
		cm.applyMLP64(s, m.CombineOp, s.xcD, setView64(&s.vyD, s.hopD, i*B, B))
	}

	// Stage 2.
	xg.Rows, xg.Cols = resRows, features.ResFeatDim
	xg.Data = xg.Data[:resRows*features.ResFeatDim]
	for bi, g := range gs {
		for i := range g.ResNodes {
			copy(xg.Row(s.resOff[bi]+i), g.ResNodes[i].Feat)
		}
	}
	cm.applyMLP64(s, m.EncRes, xg, s.erD)
	for bi, g := range gs {
		r, off := len(g.ResNodes), s.resOff[bi]
		sumRow := s.sumD.Row(bi)
		sumRow.Zero()
		for i := 0; i < r; i++ {
			sumRow.AddInPlace(s.erD.Row(off + i))
		}
		for i := 0; i < r; i++ {
			xcrRow := s.xcrD.Row(off + i)
			copy(xcrRow[:h], s.erD.Row(off+i))
			oth := tensor.Vector(xcrRow[h:])
			if r > 1 {
				copy(oth, sumRow)
				oth.SubInPlace(s.erD.Row(off + i)).ScaleInPlace(1 / float64(r-1))
			} else {
				oth.Zero()
			}
		}
	}
	cm.applyMLP64(s, m.CombineRes, s.xcrD, s.hresD)

	// Stage 3.
	for i := 0; i < n*B; i++ {
		xmRow := s.xmD.Row(i)
		copy(xmRow[:h], s.hopD.Row(i))
		xmRow[h:].Zero()
	}
	tot := s.tot[:n]
	for bi, g := range gs {
		for i := range tot {
			tot[i] = 0
		}
		for _, e := range g.Mapping {
			tot[e.OpIdx] += float64(e.Instances)
		}
		for _, e := range g.Mapping {
			w := float64(e.Instances)
			if tot[e.OpIdx] > 0 {
				w /= tot[e.OpIdx]
			}
			tensor.Vector(s.xmD.Row(e.OpIdx*B + bi)[h:]).AxpyInPlace(w, s.hresD.Row(s.resOff[bi]+e.ResIdx))
		}
	}
	cm.applyMLP64(s, m.CombineMap, s.xmD, s.hmapD)

	// Stage 4.
	for bi := 0; bi < B; bi++ {
		mean := s.sumD.Row(bi)
		mean.Zero()
		for i := 0; i < n; i++ {
			mean.AxpyInPlace(1/float64(n), s.hmapD.Row(i*B+bi))
		}
		pRow := s.pooledD.Row(bi)
		copy(pRow[:h], s.hmapD.Row(proto.SinkIdx*B+bi))
		copy(pRow[h:], mean)
	}
	structured := cm.cfg.Readout != ReadoutSink
	if structured {
		cm.applyMLP64(s, m.LatHead, s.hmapD, s.ltD)
	} else {
		cm.applyMLP64(s, m.LatHead, s.pooledD, setView64(&s.vyD, s.ltD, 0, B))
	}
	cm.applyMLP64(s, m.TptHead, s.pooledD, s.ttD)

	for bi := range gs {
		var logLat float64
		if structured {
			for i := 0; i < n; i++ {
				s.lat[i] = s.ltD.Row(i*B + bi)[0]
			}
			logLat = logSumExp10(s.lat[:n], s.latW[:n])
		} else {
			logLat = s.ltD.Row(bi)[0]
		}
		logTpt := s.ttD.Row(bi)[0]
		dst[pos[bi]] = Prediction{
			LatencyMs:     math.Pow(10, logLat),
			ThroughputEPS: math.Pow(10, logTpt),
			LogLatency:    logLat,
			LogThroughput: logTpt,
		}
	}
}
