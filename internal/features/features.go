// Package features implements ZeroTune's transferable featurization
// (Table I) and the parallel graph representation (Sec. III-C2): every
// logical operator becomes one graph node carrying parallelism-, data- and
// operator-related features; every distinct cluster machine becomes a
// physical resource node; data-flow edges, resource edges and
// operator→resource mapping edges connect them.
//
// All transforms are fixed (log scaling, one-hot encodings) rather than
// fitted to a dataset — a zero-shot model cannot assume it will see the
// test distribution, so no dataset statistics are baked into the encoding.
package features

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"zerotune/internal/cluster"
	"zerotune/internal/queryplan"
	"zerotune/internal/tensor"
)

// Operator feature vector layout. Grouped by the Table I categories so the
// ablation masks (Fig. 11) can blank one category at a time.
const (
	// operator-parallelism category
	FeatDegree      = iota // log2(parallelism degree)
	FeatPartForward        // partitioning one-hot
	FeatPartRebalance
	FeatPartHash
	FeatGrouping // log2(chain-group size)

	// data category
	FeatTupleWidthIn
	FeatTupleWidthOut
	FeatTypeInt // tuple data type one-hot
	FeatTypeDouble
	FeatTypeString
	FeatSelectivity  // log10(selectivity + 1e-6)
	FeatEventRate    // log10(rate + 1), sources only
	FeatInputRate    // log10(estimated input rate + 1): estimated analytically
	FeatOpTypeSource // operator category: operator type one-hot
	FeatOpTypeFilter
	FeatOpTypeAgg
	FeatOpTypeJoin
	FeatOpTypeSink
	FeatCmpLT // filter function one-hot
	FeatCmpLE
	FeatCmpGT
	FeatCmpGE
	FeatCmpEQ
	FeatCmpNE
	FeatLitInt // filter literal class one-hot
	FeatLitDouble
	FeatLitString
	FeatWinTumbling // window type one-hot
	FeatWinSliding
	FeatPolicyCount // window policy one-hot
	FeatPolicyTime
	FeatWindowLength  // log10(length + 1)
	FeatSlidingLength // log10(slide + 1)
	FeatJoinKeyInt    // join key class one-hot
	FeatJoinKeyDouble
	FeatJoinKeyString
	FeatAggClassInt // aggregation class one-hot
	FeatAggClassDouble
	FeatAggClassString
	FeatAggMin // aggregation function one-hot
	FeatAggMax
	FeatAggAvg
	FeatAggSum
	FeatAggCount
	FeatAggKeyInt // aggregation key class one-hot
	FeatAggKeyDouble
	FeatAggKeyString

	// OpFeatDim is the width of an operator node's feature vector.
	OpFeatDim
)

// Resource feature vector layout (Table I, resource category).
const (
	ResFeatCores   = iota // log2(cores)
	ResFeatFreq           // GHz
	ResFeatMem            // log2(GB)
	ResFeatLink           // log2(Gbps + 1)
	ResFeatSlots          // log2(task slots placed on the node + 1)
	ResFeatOversub        // log2(max(1, slots/cores)): slot oversubscription

	// ResFeatDim is the width of a resource node's feature vector.
	ResFeatDim
)

// Mask selects which Table I feature categories are visible to the model —
// the knob behind the Fig. 11 ablation study.
type Mask int

// Feature masks.
const (
	// MaskAll keeps every transferable feature (the full ZeroTune model).
	MaskAll Mask = iota
	// MaskOperatorOnly keeps operator- and data-related features, blanking
	// parallelism- and resource-related ones.
	MaskOperatorOnly
	// MaskParallelismResource keeps parallelism- and resource-related
	// features, blanking operator- and data-related ones.
	MaskParallelismResource
)

// String implements fmt.Stringer.
func (m Mask) String() string {
	switch m {
	case MaskAll:
		return "all"
	case MaskOperatorOnly:
		return "operator-only"
	case MaskParallelismResource:
		return "parallelism+resource"
	default:
		return fmt.Sprintf("mask(%d)", int(m))
	}
}

// parallelismFeatures are the operator-parallelism category indices.
var parallelismFeatures = []int{FeatDegree, FeatPartForward, FeatPartRebalance, FeatPartHash, FeatGrouping}

// operatorDataFeatures are the data + operator category indices (everything
// except the parallelism block; resource features live on resource nodes).
var operatorDataFeatures = func() []int {
	var out []int
	for i := 0; i < OpFeatDim; i++ {
		inPar := false
		for _, p := range parallelismFeatures {
			if i == p {
				inPar = true
				break
			}
		}
		if !inPar {
			out = append(out, i)
		}
	}
	return out
}()

func log10p(x float64) float64 { return math.Log10(x + 1) }

func log2p(x float64) float64 {
	if x < 1 {
		x = 1
	}
	return math.Log2(x)
}

// OpNode is one logical operator in the encoded graph.
type OpNode struct {
	OpID int
	Type queryplan.OpType
	Feat tensor.Vector
}

// ResNode is one physical machine in the encoded graph.
type ResNode struct {
	Name string
	Feat tensor.Vector
}

// MapEdge is one operator→resource mapping edge: Instances of the operator
// run on that resource (the per-instance edge information of Fig. 4 step ②,
// aggregated per distinct machine).
type MapEdge struct {
	OpIdx     int
	ResIdx    int
	Instances int
}

// Graph is the GNN input: the parallel query plan in its graph
// representation.
type Graph struct {
	OpNodes  []OpNode
	ResNodes []ResNode
	// DataEdges are data-flow edges as [from, to] indices into OpNodes,
	// topologically ordered by construction.
	DataEdges [][2]int
	// Mapping holds the operator→resource mapping edges.
	Mapping []MapEdge
	// SinkIdx is the index of the sink node in OpNodes, where the read-out
	// happens.
	SinkIdx int

	// Labels (filled by the dataset builder; zero during pure inference).
	LatencyMs     float64
	ThroughputEPS float64

	// Provenance for result bucketing (experiments).
	Template  string
	AvgDegree float64
}

// Encode builds the graph representation of plan p placed on cluster c. A
// plan without a complete placement is encoded as cluster.PlaceWith would
// place it; Encode never writes p. It analyses p.Query for this one plan;
// callers encoding many plans of one query build an Encoder once and reuse
// it.
func Encode(p *queryplan.PQP, c *cluster.Cluster, mask Mask) (*Graph, error) {
	t, err := p.Query.Analyze()
	if err != nil {
		return nil, fmt.Errorf("features: %w", err)
	}
	return NewEncoder(t, c, mask).Encode(p)
}

// Encoder holds everything of a plan's graph that depends only on the query,
// the cluster and the mask — the validated topology, the estimated input
// rates, every operator feature except the two the degrees decide, the
// machine features except the slot load, the data edges and the node lookup —
// so that Encode pays only for what a degree vector changes: chain groups,
// slot load, resource nodes, mapping edges, FeatDegree and FeatGrouping.
//
// An Encoder is immutable between NewEncoder or Reset and the next Reset, and
// safe for concurrent Encode calls in between. Like the Topology inside it, it
// is a snapshot of q and c: build (or Reset) one per call, not one per process.
type Encoder struct {
	topo *queryplan.Topology
	c    *cluster.Cluster
	mask Mask
	// feats holds the static operator features, OpFeatDim per position,
	// then the static machine features, ResFeatDim per cluster node.
	feats []float64
	// rates is estimateInputRates' scratch.
	rates []float64
	// byName lists the indices of c.Nodes sorted by name, ties by index:
	// EncodeIn resolves a placed node name by binary search over it. first[k]
	// is the index of the first node named as node k (Cluster.Node resolves
	// duplicates to it), for instances placed by position rather than by name.
	byName []int
	first  []int
}

// NewEncoder precomputes the plan-independent half of the graphs of the
// analysed query t (Query.Analyze or PQP.Analyze) on c under mask.
func NewEncoder(t *queryplan.Topology, c *cluster.Cluster, mask Mask) *Encoder {
	e := new(Encoder)
	e.Reset(t, c, mask)
	return e
}

// Reset makes e the encoder NewEncoder(t, c, mask) would build, in e's own
// storage: an encoder kept across requests allocates nothing once its tables
// have grown to fit. Graphs encoded before the Reset keep their features.
func (e *Encoder) Reset(t *queryplan.Topology, c *cluster.Cluster, mask Mask) {
	n, nc := len(t.Ops), len(c.Nodes)
	e.topo, e.c, e.mask = t, c, mask
	e.feats = resize(e.feats, n*OpFeatDim+nc*ResFeatDim)
	clear(e.feats)
	e.rates = resize(e.rates, 2*n)
	inRates := estimateInputRates(t, e.rates)
	opFeat, resFeat := e.feats[:n*OpFeatDim], e.feats[n*OpFeatDim:]
	for i, op := range t.Ops {
		f := tensor.Vector(opFeat[i*OpFeatDim : (i+1)*OpFeatDim])
		encodeOperator(f, op, t.Partitioning(i), inRates[i])
		applyMask(f, mask)
	}
	e.byName, e.first = resize(e.byName, nc), resize(e.first, nc)
	for k := range e.byName {
		e.byName[k] = k
	}
	slices.SortFunc(e.byName, func(a, b int) int {
		if d := strings.Compare(c.Nodes[a].Name, c.Nodes[b].Name); d != 0 {
			return d
		}
		return a - b
	})
	for j, k := range e.byName {
		e.first[k] = k
		if j > 0 && c.Nodes[e.byName[j-1]].Name == c.Nodes[k].Name {
			e.first[k] = e.first[e.byName[j-1]]
		}
		if mask != MaskOperatorOnly {
			encodeResource(resFeat[k*ResFeatDim:(k+1)*ResFeatDim], &c.Nodes[k], c.LinkGbps)
		}
	}
}

// resize returns s with length n, reusing its array when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// nodeIndex is the index of the first cluster node named name.
func (e *Encoder) nodeIndex(name string) (int, bool) {
	nodes := e.c.Nodes
	j, ok := slices.BinarySearchFunc(e.byName, name, func(k int, name string) int {
		return strings.Compare(nodes[k].Name, name)
	})
	if !ok {
		return 0, false
	}
	return e.byName[j], true
}

// Arena is recycled storage for the graphs of one batch: EncodeIn carves each
// graph — the Graph itself, its nodes, feature vectors and mapping edges — out
// of the arena's slabs, so a sweep of candidates costs no allocation once the
// slabs have grown to fit one.
//
// The lifetime rule: graphs encoded into an arena die at its Reset, so an
// arena is reset only once nothing can read its graphs any more.
// core.PredictBatch and the model's tuning sweep reset theirs when the call
// returns its predictions. The serving layer's per-request arena carries its
// graph through a batcher queue, and goes back to its pool — to be reset and
// reused — only once the batcher has let go of the graph: the request
// received its item's result, or never enqueued it. A request that leaves
// while its item is still queued (cancelled, or timed out) leaves the arena
// to the collector. Anything that keeps a graph past that — a training
// corpus — encodes with Encode.
//
// The zero Arena is ready to use. An Arena is not safe for concurrent use.
type Arena struct {
	scratch  []int
	graphs   []Graph
	ops      []OpNode
	opFeats  []float64
	maps     []MapEdge
	res      []ResNode
	resFeats []float64
}

// Reset takes back everything the arena handed out: every graph encoded into
// it since the last Reset is invalid from here on.
func (a *Arena) Reset() {
	recycle(&a.graphs)
	recycle(&a.ops)
	recycle(&a.opFeats)
	recycle(&a.maps)
	recycle(&a.res)
	recycle(&a.resFeats)
}

// recycle empties *slab for reuse, zeroing what was carved from it: carve
// hands out zeroed memory (EncodeIn leaves resource features unwritten under
// MaskOperatorOnly), and an idle arena must not pin the last batch's topology
// and node names.
func recycle[T any](slab *[]T) {
	clear(*slab)
	*slab = (*slab)[:0]
}

// carve bumps n zeroed elements off *slab. A full slab is replaced by one
// twice as large and left to the graphs that point into it. EncodeIn carves
// each slab once per graph, so on a fresh Arena every carve is one allocation
// of exactly n elements.
func carve[T any](slab *[]T, n int) []T {
	s := *slab
	if len(s)+n > cap(s) {
		s = make([]T, 0, max(2*cap(s), n))
	}
	*slab = s[:len(s)+n]
	return s[len(s) : len(s)+n : len(s)+n]
}

// Encode builds the graph of p, a plan over the encoder's query, in heap
// allocations of its own: a fresh arena sizes each exactly, which is what a
// graph that is kept (cached, queued, trained on) should cost.
func (e *Encoder) Encode(p *queryplan.PQP) (*Graph, error) { return e.EncodeIn(&Arena{}, p, nil) }

// EncodeIn is Encode with the graph's storage carved out of a; see Arena for
// how long such a graph lives. A complete placement is read by node name. A
// plan with anything less — a partial placement is ignored — is placed as
// cluster.PlaceWith would place it, into the graph and never into p. deg is
// p's degree vector as PQP.AnalyzeIn returns it, already checked against p;
// given a nil deg, EncodeIn derives and checks it itself.
func (e *Encoder) EncodeIn(a *Arena, p *queryplan.PQP, deg []int) (*Graph, error) {
	t, n := e.topo, len(e.topo.Ops)
	instances := 0
	for i, op := range t.Ops {
		if deg != nil {
			instances += deg[i]
		} else {
			instances += max(p.Degree(op.ID), 0) // Check refuses a degree below 1
		}
	}
	s, rest := e.scratch(a, 2*n+instances)
	if deg == nil {
		deg = t.Degrees(p, s[:0:n])
		if err := t.Check(p, deg); err != nil {
			return nil, fmt.Errorf("features: %w", err)
		}
	}
	return e.encode(a, p, deg, s[n:], rest)
}

// EncodeDegrees is EncodeIn for the plan NewPlan(deg) — degrees deg, one per
// topological position, no placement and no NoChain entries — without
// building that plan.
func (e *Encoder) EncodeDegrees(a *Arena, deg []int) (*Graph, error) {
	t, n := e.topo, len(e.topo.Ops)
	if len(deg) != n {
		return nil, fmt.Errorf("features: %d degrees for %d operators", len(deg), n)
	}
	instances := 0
	for pos, d := range deg {
		if d < 1 {
			return nil, fmt.Errorf("features: operator %d has parallelism %d < 1", t.Ops[pos].ID, d)
		}
		instances += d
	}
	s, rest := e.scratch(a, n+instances)
	return e.encode(a, nil, deg, s, rest)
}

// scratch empties a's scratch slab and carves one graph's worth in one piece:
// head ints for the caller, then the rest for build.
func (e *Encoder) scratch(a *Arena, head int) (s, rest []int) {
	n, nc := len(e.topo.Ops), len(e.c.Nodes)
	recycle(&a.scratch)
	s = carve(&a.scratch, head+2*n+4*nc)
	return s[:head:head], s[head:]
}

// encode places p — a checked plan with degrees deg, or nil for a bare degree
// vector — and builds its graph out of a. s holds the chain groups (one int
// per position) and then every instance's node; rest is build's scratch.
func (e *Encoder) encode(a *Arena, p *queryplan.PQP, deg, s, rest []int) (*Graph, error) {
	t, n, nc := e.topo, len(e.topo.Ops), len(e.c.Nodes)
	groups := t.ChainGroups(p, deg, s[:0:n])
	nodeOf := s[n:n]
	if p != nil && len(p.Placement) == n {
		// Check held every operator to one name per instance, so the names
		// fill nodeOf exactly.
		for _, op := range t.Ops {
			for _, name := range p.Placement[op.ID] {
				k, ok := e.nodeIndex(name)
				if !ok {
					return nil, fmt.Errorf("features: placement references unknown node %q", name)
				}
				nodeOf = append(nodeOf, k)
			}
		}
	} else {
		// Placed as cluster.PlaceWith places it: instance i of chain group g on
		// node cluster.RoundRobin(g, i), whose name resolves to the first node
		// of that name, as a placed name does.
		if nc == 0 {
			return nil, fmt.Errorf("features: cannot place on empty cluster")
		}
		for pos, d := range deg {
			for i := 0; i < d; i++ {
				nodeOf = append(nodeOf, e.first[cluster.RoundRobin(groups[pos], i, nc)])
			}
		}
	}
	return e.build(a, deg, groups, nodeOf, rest), nil
}

// build carves the graph of a plan with degrees deg and chain groups groups
// out of a. nodeOf holds every instance's index into the cluster's nodes,
// operators in topological order and each operator's instances in order.
// scratch is the rest of Encoder.scratch.
func (e *Encoder) build(a *Arena, deg, groups, nodeOf, scratch []int) *Graph {
	t, n, nc := e.topo, len(e.topo.Ops), len(e.c.Nodes)
	// Group sizes and slot owners per position; resource index, instance
	// count and slot load per cluster node; the machines of the operator at
	// hand.
	size, scratch := scratch[:n], scratch[n:]
	owners, scratch := scratch[:0:n], scratch[n:]
	resOf, scratch := scratch[:nc], scratch[nc:]
	inst, scratch := scratch[:nc], scratch[nc:]
	slots, hosts := scratch[:nc], scratch[nc:nc]

	for _, g := range groups {
		size[g]++
	}
	owners = cluster.SlotOwners(t, groups, owners)

	g := &carve(&a.graphs, 1)[0]
	*g = Graph{
		Template:  t.Query.Template,
		AvgDegree: float64(len(nodeOf)) / float64(n),
		OpNodes:   carve(&a.ops, n),
		DataEdges: t.Edges,
		SinkIdx:   t.Sink,
	}
	feats := carve(&a.opFeats, n*OpFeatDim)
	copy(feats, e.feats[:n*OpFeatDim])
	maxEdges := 0
	for i, op := range t.Ops {
		f := tensor.Vector(feats[i*OpFeatDim : (i+1)*OpFeatDim : (i+1)*OpFeatDim])
		if e.mask != MaskOperatorOnly {
			f[FeatDegree] = log2p(float64(deg[i]))
			f[FeatGrouping] = log2p(float64(size[groups[i]]))
		}
		g.OpNodes[i] = OpNode{OpID: op.ID, Type: op.Type, Feat: f}
		maxEdges += min(deg[i], nc)
	}

	// Resource nodes — one per distinct machine hosting at least one
	// instance, in order of first appearance — and mapping edges: per
	// operator, its machines in placement order with their instance counts.
	for k := range resOf {
		resOf[k] = -1
	}
	g.Mapping = carve(&a.maps, maxEdges)[:0]
	used := 0
	for i := range t.Ops {
		hosts = hosts[:0]
		for _, k := range nodeOf[:deg[i]] {
			if resOf[k] < 0 {
				resOf[k] = used
				used++
			}
			if inst[k] == 0 {
				hosts = append(hosts, k)
			}
			inst[k]++
		}
		nodeOf = nodeOf[deg[i]:]
		owner := owners[groups[i]] == i
		for _, k := range hosts {
			g.Mapping = append(g.Mapping, MapEdge{OpIdx: i, ResIdx: resOf[k], Instances: inst[k]})
			if owner {
				slots[k] += inst[k]
			}
			inst[k] = 0
		}
	}
	g.ResNodes = carve(&a.res, used)
	resFeats := carve(&a.resFeats, used*ResFeatDim)
	for k, ri := range resOf {
		if ri < 0 {
			continue
		}
		node := &e.c.Nodes[k]
		f := tensor.Vector(resFeats[ri*ResFeatDim : (ri+1)*ResFeatDim : (ri+1)*ResFeatDim])
		if e.mask != MaskOperatorOnly {
			static := e.feats[n*OpFeatDim+k*ResFeatDim:]
			copy(f, static[:ResFeatDim])
			encodeSlots(f, node, slots[k])
		}
		g.ResNodes[ri] = ResNode{Name: node.Name, Feat: f}
	}
	return g
}

// encodeOperator fills the plan-independent features of one operator node
// into f (zeroed, OpFeatDim wide). FeatDegree and FeatGrouping depend on the
// degree vector and are set per plan by Encoder.Encode.
func encodeOperator(f tensor.Vector, op *queryplan.Operator, part queryplan.PartitionStrategy, inRate float64) {
	// operator-parallelism category
	switch part {
	case queryplan.PartForward:
		f[FeatPartForward] = 1
	case queryplan.PartRebalance:
		f[FeatPartRebalance] = 1
	case queryplan.PartHash:
		f[FeatPartHash] = 1
	}

	// data category
	f[FeatTupleWidthIn] = float64(op.TupleWidthIn) / 4
	f[FeatTupleWidthOut] = float64(op.TupleWidthOut) / 4
	switch op.TupleDataType {
	case queryplan.TypeInt:
		f[FeatTypeInt] = 1
	case queryplan.TypeDouble:
		f[FeatTypeDouble] = 1
	case queryplan.TypeString:
		f[FeatTypeString] = 1
	}
	f[FeatSelectivity] = math.Log10(op.Selectivity + 1e-6)
	f[FeatEventRate] = log10p(op.EventRate)
	f[FeatInputRate] = log10p(inRate)

	// operator category
	switch op.Type {
	case queryplan.OpSource:
		f[FeatOpTypeSource] = 1
	case queryplan.OpFilter:
		f[FeatOpTypeFilter] = 1
	case queryplan.OpAggregate:
		f[FeatOpTypeAgg] = 1
	case queryplan.OpJoin:
		f[FeatOpTypeJoin] = 1
	case queryplan.OpSink:
		f[FeatOpTypeSink] = 1
	}
	switch op.FilterFunc {
	case queryplan.CmpLT:
		f[FeatCmpLT] = 1
	case queryplan.CmpLE:
		f[FeatCmpLE] = 1
	case queryplan.CmpGT:
		f[FeatCmpGT] = 1
	case queryplan.CmpGE:
		f[FeatCmpGE] = 1
	case queryplan.CmpEQ:
		f[FeatCmpEQ] = 1
	case queryplan.CmpNE:
		f[FeatCmpNE] = 1
	}
	switch op.FilterLiteralClass {
	case queryplan.TypeInt:
		f[FeatLitInt] = 1
	case queryplan.TypeDouble:
		f[FeatLitDouble] = 1
	case queryplan.TypeString:
		f[FeatLitString] = 1
	}
	switch op.WindowType {
	case queryplan.WindowTumbling:
		f[FeatWinTumbling] = 1
	case queryplan.WindowSliding:
		f[FeatWinSliding] = 1
	}
	switch op.WindowPolicy {
	case queryplan.PolicyCount:
		f[FeatPolicyCount] = 1
	case queryplan.PolicyTime:
		f[FeatPolicyTime] = 1
	}
	f[FeatWindowLength] = log10p(op.WindowLength)
	f[FeatSlidingLength] = log10p(op.SlidingLength)
	switch op.JoinKeyClass {
	case queryplan.TypeInt:
		f[FeatJoinKeyInt] = 1
	case queryplan.TypeDouble:
		f[FeatJoinKeyDouble] = 1
	case queryplan.TypeString:
		f[FeatJoinKeyString] = 1
	}
	switch op.AggClass {
	case queryplan.TypeInt:
		f[FeatAggClassInt] = 1
	case queryplan.TypeDouble:
		f[FeatAggClassDouble] = 1
	case queryplan.TypeString:
		f[FeatAggClassString] = 1
	}
	switch op.AggFunc {
	case queryplan.AggMin:
		f[FeatAggMin] = 1
	case queryplan.AggMax:
		f[FeatAggMax] = 1
	case queryplan.AggAvg:
		f[FeatAggAvg] = 1
	case queryplan.AggSum:
		f[FeatAggSum] = 1
	case queryplan.AggCount:
		f[FeatAggCount] = 1
	}
	switch op.AggKeyClass {
	case queryplan.TypeInt:
		f[FeatAggKeyInt] = 1
	case queryplan.TypeDouble:
		f[FeatAggKeyDouble] = 1
	case queryplan.TypeString:
		f[FeatAggKeyString] = 1
	}
}

// applyMask blanks the feature categories hidden by the mask.
func applyMask(f tensor.Vector, mask Mask) {
	switch mask {
	case MaskOperatorOnly:
		for _, i := range parallelismFeatures {
			f[i] = 0
		}
	case MaskParallelismResource:
		for _, i := range operatorDataFeatures {
			f[i] = 0
		}
	}
}

// encodeResource fills the plan-independent features of one machine into f
// (zeroed, ResFeatDim wide); encodeSlots adds the ones a placement decides.
func encodeResource(f tensor.Vector, n *cluster.Node, linkGbps float64) {
	f[ResFeatCores] = log2p(float64(n.Type.Cores))
	f[ResFeatFreq] = n.Type.FreqGHz
	f[ResFeatMem] = log2p(float64(n.Type.MemGB))
	f[ResFeatLink] = log2p(linkGbps)
}

// encodeSlots sets the slot-load features of a machine hosting slots task
// slots.
func encodeSlots(f tensor.Vector, n *cluster.Node, slots int) {
	f[ResFeatSlots] = log2p(float64(slots) + 1)
	// Oversubscription ratio: the contention a slot experiences. The cores
	// and slots features alone cannot identify it when the training
	// hardware grid has near-constant core counts (Table III trains on
	// 8–10-core machines only), so it is encoded explicitly — the model
	// must extrapolate it to 20–64-core unseen machines.
	if n.Type.Cores > 0 {
		f[ResFeatOversub] = log2p(math.Max(1, float64(slots)/float64(n.Type.Cores)))
	}
}

// estimateInputRates propagates *estimated* input rates through the logical
// plan using the declared selectivities and window specifications (the
// paper's Defs. 3–6), returning one rate per topological position. This is a
// transferable feature: it derives from stream statistics, not from observing
// the deployment. Join output applies Def. 5's amplification (each tuple
// matches sel·|W_opposite| buffered tuples) and window aggregates apply their
// emission frequency — without this, the model cannot see that a join's
// downstream operators face a much higher rate than the sources emit. rates
// (2 per operator) is the scratch the result is returned in.
func estimateInputRates(t *queryplan.Topology, rates []float64) []float64 {
	out, outRate := rates[:len(t.Ops)], rates[len(t.Ops):2*len(t.Ops)]
	for i, op := range t.Ops {
		ups := t.In[i]
		in := 0.0
		for _, up := range ups {
			in += outRate[up.From]
		}
		switch op.Type {
		case queryplan.OpSource:
			in = op.EventRate
			outRate[i] = op.EventRate
		case queryplan.OpAggregate:
			horizon, wps := op.WindowSpan(in)
			windowTuples := in * horizon
			groups := math.Max(1, math.Min(op.Selectivity*windowTuples, windowTuples))
			outRate[i] = wps * groups
		case queryplan.OpJoin:
			if len(ups) == 2 {
				in1 := math.Max(outRate[ups[0].From], 1e-9)
				in2 := math.Max(outRate[ups[1].From], 1e-9)
				horizon, _ := op.WindowSpan(in)
				// float64(a*b): rounded on its own, never fused (arm64 would).
				outRate[i] = op.Selectivity * (float64(in1*in2*horizon) + float64(in2*in1*horizon))
			} else {
				outRate[i] = in * op.Selectivity
			}
		default:
			outRate[i] = in * op.Selectivity
		}
		out[i] = in
	}
	return out
}
