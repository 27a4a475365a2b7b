package queryplan

import (
	"fmt"
	"sort"
)

// InEdge is one input of an operator, addressed by topological position.
type InEdge struct {
	From         int // position of the upstream operator
	Partitioning PartitionStrategy
}

// Topology is the analysis of a Query that does not depend on parallelism
// degrees: the deterministic topological order and, indexed by position in
// that order, the operators, their input edges and the data edges. Chaining,
// placement, featurization and candidate enumeration all start from it, so a
// caller pricing many degree vectors of one query analyses the query once and
// reuses the result for every plan.
//
// Analyze builds the Topology of a query it has validated; Topology builds it
// for any acyclic query without judging the operators.
//
// A Topology is a snapshot. Query fields are exported and mutable; a Topology
// describes q as it was when it was built, so build one per call and do not
// keep it across changes to q.
type Topology struct {
	Query *Query
	// Ops lists the operators in topological order: sources first, sink
	// last, ties broken by ID.
	Ops []*Operator
	// In holds, per position, the operator's input edges in q.Edges order.
	In [][]InEdge
	// Edges is q.Edges as [from, to] positions, in q.Edges order.
	Edges [][2]int
	// Sink is the position of the sink operator (-1 when an unvalidated
	// query has none).
	Sink int
	// Decl maps declaration order to position: q.Ops[k] sits at Decl[k].
	Decl []int
}

// Analyze validates q (exactly the checks of Validate) and returns its
// Topology. A nil q — a decoded plan or request that named no query — is
// invalid like any other, so every consumer that analyses rejects it.
func (q *Query) Analyze() (*Topology, error) {
	if q == nil {
		return nil, fmt.Errorf("queryplan: no query")
	}
	if len(q.Ops) == 0 {
		return nil, fmt.Errorf("queryplan: query %q has no operators", q.Name)
	}
	idx := make(map[int]int, len(q.Ops))
	sources, sinks := 0, 0
	for k, o := range q.Ops {
		if o == nil {
			return nil, errNilOperator(k)
		}
		if _, dup := idx[o.ID]; dup {
			return nil, fmt.Errorf("queryplan: duplicate operator ID %d", o.ID)
		}
		idx[o.ID] = k
		if err := o.Validate(); err != nil {
			return nil, err
		}
		switch o.Type {
		case OpSource:
			sources++
		case OpSink:
			sinks++
		}
	}
	if sources == 0 {
		return nil, fmt.Errorf("queryplan: query %q has no source", q.Name)
	}
	if sinks != 1 {
		return nil, fmt.Errorf("queryplan: query %q has %d sinks, want 1", q.Name, sinks)
	}
	// Arity per operator; edges to or from unknown operators are reported
	// by the sort below.
	arity := make([]int, 2*len(q.Ops))
	ins, outs := arity[:len(q.Ops)], arity[len(q.Ops):]
	for _, e := range q.Edges {
		if k, ok := idx[e.To]; ok {
			ins[k]++
		}
		if k, ok := idx[e.From]; ok {
			outs[k]++
		}
	}
	for k, o := range q.Ops {
		switch o.Type {
		case OpSource:
			if ins[k] != 0 {
				return nil, fmt.Errorf("queryplan: source %d has %d inputs", o.ID, ins[k])
			}
			if outs[k] == 0 {
				return nil, fmt.Errorf("queryplan: source %d is disconnected", o.ID)
			}
		case OpSink:
			if outs[k] != 0 {
				return nil, fmt.Errorf("queryplan: sink %d has outputs", o.ID)
			}
			if ins[k] == 0 {
				return nil, fmt.Errorf("queryplan: sink %d is disconnected", o.ID)
			}
		case OpJoin:
			if ins[k] != 2 {
				return nil, fmt.Errorf("queryplan: join %d has %d inputs, want 2", o.ID, ins[k])
			}
		default:
			if ins[k] != 1 {
				return nil, fmt.Errorf("queryplan: operator %d (%s) has %d inputs, want 1", o.ID, o.Type, ins[k])
			}
			if outs[k] == 0 {
				return nil, fmt.Errorf("queryplan: operator %d (%s) has no output", o.ID, o.Type)
			}
		}
	}
	return q.topology(idx)
}

// topology sorts q topologically and builds the position-indexed view. idx
// maps operator ID to declaration index; an operator shadowed by a later one
// with the same ID never becomes ready and surfaces as an unordered operator.
// Errors: edges naming unknown operators, and cycles.
func (q *Query) topology(idx map[int]int) (*Topology, error) {
	n := len(q.Ops)
	// One slab: in-degree and declaration→position per operator, then the
	// ready list.
	slab := make([]int, 3*n)
	inDeg, decl, ready := slab[:n], slab[n:2*n], slab[2*n:2*n]
	for _, e := range q.Edges {
		if _, ok := idx[e.From]; !ok {
			return nil, fmt.Errorf("queryplan: edge from unknown operator %d", e.From)
		}
		k, ok := idx[e.To]
		if !ok {
			return nil, fmt.Errorf("queryplan: edge to unknown operator %d", e.To)
		}
		inDeg[k]++
	}
	// ready holds declaration indices sorted by operator ID, so the order
	// is deterministic: among ready operators the lowest ID goes first.
	push := func(k int) {
		id := q.Ops[k].ID
		i := sort.Search(len(ready), func(i int) bool { return q.Ops[ready[i]].ID >= id })
		ready = append(ready, 0)
		copy(ready[i+1:], ready[i:])
		ready[i] = k
	}
	for k, o := range q.Ops {
		if inDeg[k] == 0 && idx[o.ID] == k {
			push(k)
		}
	}
	t := &Topology{Query: q, Ops: make([]*Operator, 0, n), Decl: decl, Sink: -1}
	for len(ready) > 0 {
		k := ready[0]
		ready = ready[1:]
		o := q.Ops[k]
		decl[k] = len(t.Ops)
		if o.Type == OpSink {
			t.Sink = len(t.Ops)
		}
		t.Ops = append(t.Ops, o)
		for _, e := range q.Edges {
			if e.From != o.ID {
				continue
			}
			to := idx[e.To]
			if inDeg[to]--; inDeg[to] == 0 {
				push(to)
			}
		}
	}
	if len(t.Ops) != n {
		return nil, fmt.Errorf("queryplan: cycle detected (%d of %d operators ordered)", len(t.Ops), n)
	}

	t.Edges = make([][2]int, len(q.Edges))
	t.In = make([][]InEdge, n)
	inEdges := make([]InEdge, len(q.Edges))
	// Every edge was consumed by the sort, so inDeg is all zero again; it
	// now counts inputs per position to lay the input lists end to end.
	for i, e := range q.Edges {
		from, to := decl[idx[e.From]], decl[idx[e.To]]
		t.Edges[i] = [2]int{from, to}
		inDeg[to]++
	}
	start := 0
	for pos := 0; pos < n; pos++ {
		t.In[pos] = inEdges[start : start : start+inDeg[pos]]
		start += inDeg[pos]
	}
	for i, e := range q.Edges {
		to := t.Edges[i][1]
		t.In[to] = append(t.In[to], InEdge{From: t.Edges[i][0], Partitioning: e.Partitioning})
	}
	return t, nil
}

// Topology returns the position-indexed view of q without validating it: the
// only errors are a cycle, an edge naming an unknown operator, and a null
// operator, which nothing can be said about.
func (q *Query) Topology() (*Topology, error) {
	// Duplicate IDs are not judged here: the last declaration wins.
	idx := make(map[int]int, len(q.Ops))
	for k, o := range q.Ops {
		if o == nil {
			return nil, errNilOperator(k)
		}
		idx[o.ID] = k
	}
	return q.topology(idx)
}

// errNilOperator reports a null entry in Query.Ops ("ops":[null] on the wire).
func errNilOperator(k int) error {
	return fmt.Errorf("queryplan: operator %d of the query is null", k)
}

// Partitioning returns the dominant partitioning strategy feeding the operator
// at pos — the one that decides how evenly its instances share the input: hash
// wins over rebalance wins over forward when inputs disagree (a join with one
// hash input is hash-partitioned), and a source, which has no input edge,
// reports rebalance because its stream splits evenly.
func (t *Topology) Partitioning(pos int) PartitionStrategy {
	if t.Ops[pos].Type == OpSource {
		return PartRebalance
	}
	best := PartForward
	for _, e := range t.In[pos] {
		if e.Partitioning > best {
			best = e.Partitioning
		}
	}
	return best
}

// Degrees returns p's parallelism degree per position, appended to dst[:0] —
// p.Degree for every operator, so operators absent from p.Parallelism read
// as 1.
func (t *Topology) Degrees(p *PQP, dst []int) []int {
	dst = dst[:0]
	for _, o := range t.Ops {
		dst = append(dst, p.Degree(o.ID))
	}
	return dst
}

// NewPlan returns an unplaced plan over the analysed query with the given
// degrees per position — NewPQP plus one SetDegree per operator.
func (t *Topology) NewPlan(deg []int) *PQP {
	p := &PQP{
		Query:       t.Query,
		Parallelism: make(map[int]int, len(t.Ops)),
		Placement:   make(map[int][]string, len(t.Ops)),
	}
	for i, o := range t.Ops {
		p.Parallelism[o.ID] = deg[i]
	}
	return p
}

// Check reports whether p — a plan over the analysed query with degrees deg
// (see Degrees) — is consistent: parallelism only for known operators and at
// least 1, placements only for known operators, one non-empty node name per
// instance. Together with Analyze this is PQP.Validate.
func (t *Topology) Check(p *PQP, deg []int) error {
	if p.Query != t.Query {
		return fmt.Errorf("queryplan: plan is over a different query than the analysis")
	}
	known, placed := 0, 0
	for i, o := range t.Ops {
		if _, ok := p.Parallelism[o.ID]; ok {
			known++
			if deg[i] < 1 {
				return fmt.Errorf("queryplan: operator %d has parallelism %d < 1", o.ID, deg[i])
			}
		}
		nodes, ok := p.Placement[o.ID]
		if !ok {
			continue
		}
		placed++
		if len(nodes) != deg[i] {
			return fmt.Errorf("queryplan: operator %d placed on %d nodes, degree is %d", o.ID, len(nodes), deg[i])
		}
		for j, n := range nodes {
			if n == "" {
				return fmt.Errorf("queryplan: operator %d instance %d has empty node name", o.ID, j)
			}
		}
	}
	if known != len(p.Parallelism) {
		for id := range p.Parallelism {
			if p.Query.Op(id) == nil {
				return fmt.Errorf("queryplan: parallelism for unknown operator %d", id)
			}
		}
	}
	if placed != len(p.Placement) {
		for id := range p.Placement {
			if p.Query.Op(id) == nil {
				return fmt.Errorf("queryplan: placement for unknown operator %d", id)
			}
		}
	}
	return nil
}

// ChainGroups computes Flink-style operator chaining for a plan with degrees
// deg (see Degrees): consecutive operators connected by a forward edge with
// identical parallelism degrees are fused into one chain group and execute
// within the same task slots, avoiding network transfer and serialization
// between them. Sources and sinks participate in chains exactly like Flink's
// default chaining; operators with multiple inputs (joins) start a new chain,
// as do targets of rebalance/hash edges and operators in p.NoChain.
//
// The result, appended to dst[:0], holds every position's chain group; groups
// are numbered densely in topological order. A nil p chains like a plan with
// no NoChain entries — a bare degree vector.
func (t *Topology) ChainGroups(p *PQP, deg, dst []int) []int {
	dst = dst[:0]
	next := 0
	for i, ins := range t.In {
		if len(ins) == 1 && ins[0].Partitioning == PartForward && deg[ins[0].From] == deg[i] &&
			!(p != nil && len(p.NoChain) > 0 && p.NoChain[t.Ops[i].ID]) {
			dst = append(dst, dst[ins[0].From])
			continue
		}
		dst = append(dst, next)
		next++
	}
	return dst
}
