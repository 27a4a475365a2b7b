package queryplan

import (
	"fmt"
	"sort"
)

// PQP is a parallel query plan: a logical query whose operators each carry a
// parallelism degree and a placement of their parallel instances onto
// cluster nodes (referenced by node name; the cluster package owns the node
// catalogue).
type PQP struct {
	Query       *Query
	Parallelism map[int]int      // operator ID → degree (≥ 1)
	Placement   map[int][]string // operator ID → node name per instance, len == degree
	// NoChain marks operators that must start a new chain even when the
	// structural chaining conditions hold — Flink's disableChaining()
	// knob, used by the autopipelining baseline to trade hand-off cost for
	// pipeline parallelism.
	NoChain map[int]bool
}

// NewPQP returns a PQP over q with every operator at parallelism 1 and no
// placement.
func NewPQP(q *Query) *PQP {
	p := &PQP{Query: q, Parallelism: make(map[int]int, len(q.Ops)), Placement: make(map[int][]string)}
	for _, o := range q.Ops {
		p.Parallelism[o.ID] = 1
	}
	return p
}

// Clone returns a deep copy of the PQP sharing the (immutable) Query.
func (p *PQP) Clone() *PQP {
	c := &PQP{Query: p.Query, Parallelism: make(map[int]int, len(p.Parallelism)), Placement: make(map[int][]string, len(p.Placement))}
	for k, v := range p.Parallelism {
		c.Parallelism[k] = v
	}
	for k, v := range p.Placement {
		c.Placement[k] = append([]string(nil), v...)
	}
	if p.NoChain != nil {
		c.NoChain = make(map[int]bool, len(p.NoChain))
		for k, v := range p.NoChain {
			c.NoChain[k] = v
		}
	}
	return c
}

// SetNoChain marks (or unmarks) an operator as chain-disabled and drops any
// existing placement, which depends on the chain structure.
func (p *PQP) SetNoChain(opID int, disabled bool) {
	if p.NoChain == nil {
		p.NoChain = make(map[int]bool)
	}
	if disabled {
		p.NoChain[opID] = true
	} else {
		delete(p.NoChain, opID)
	}
	p.Placement = make(map[int][]string)
}

// Degree returns the parallelism degree of the operator, defaulting to 1.
func (p *PQP) Degree(opID int) int {
	if d, ok := p.Parallelism[opID]; ok {
		return d
	}
	return 1
}

// SetDegree sets the parallelism degree of the operator. Degrees below 1
// are clamped to 1. Changing a degree invalidates any existing placement
// for that operator, which is dropped.
func (p *PQP) SetDegree(opID, degree int) {
	if degree < 1 {
		degree = 1
	}
	p.Parallelism[opID] = degree
	delete(p.Placement, opID)
}

// TotalInstances returns the sum of parallelism degrees across operators.
func (p *PQP) TotalInstances() int {
	n := 0
	for _, o := range p.Query.Ops {
		n += p.Degree(o.ID)
	}
	return n
}

// AvgDegree returns the average parallelism degree per operator, the number
// the paper buckets into XS/S/M/L/XL parallelism categories.
func (p *PQP) AvgDegree() float64 {
	if len(p.Query.Ops) == 0 {
		return 0
	}
	return float64(p.TotalInstances()) / float64(len(p.Query.Ops))
}

// Validate checks degrees and placements for consistency with the query.
func (p *PQP) Validate() error {
	t, err := p.Query.Analyze()
	if err != nil {
		return err
	}
	return t.Check(p, t.Degrees(p, nil))
}

// ChainGroups maps every operator ID to its chain group (see
// Topology.ChainGroups, which this wraps for callers holding only the plan).
func (p *PQP) ChainGroups() map[int]int {
	groups := make(map[int]int, len(p.Query.Ops))
	t, err := p.Query.Topology()
	if err != nil {
		// Callers validate first; fall back to singleton groups.
		for i, o := range p.Query.Ops {
			groups[o.ID] = i
		}
		return groups
	}
	for i, g := range t.ChainGroups(p, t.Degrees(p, nil), nil) {
		groups[t.Ops[i].ID] = g
	}
	return groups
}

// GroupingNumber returns, per operator, the size of its chain group — the
// "grouping number" transferable feature of Table I.
func (p *PQP) GroupingNumber() map[int]int {
	groups := p.ChainGroups()
	size := make(map[int]int)
	for _, g := range groups {
		size[g]++
	}
	out := make(map[int]int, len(groups))
	for id, g := range groups {
		out[id] = size[g]
	}
	return out
}

// DegreesVector returns the parallelism degrees in operator-ID order, useful
// for logging and tests.
func (p *PQP) DegreesVector() []int {
	ids := make([]int, 0, len(p.Query.Ops))
	for _, o := range p.Query.Ops {
		ids = append(ids, o.ID)
	}
	sort.Ints(ids)
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = p.Degree(id)
	}
	return out
}

// String summarizes the plan for logs.
func (p *PQP) String() string {
	return fmt.Sprintf("PQP{%s degrees=%v}", p.Query.Template, p.DegreesVector())
}
