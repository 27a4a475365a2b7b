package queryplan

import (
	"encoding/json"
	"fmt"
	"sort"
)

// PQP is a parallel query plan: a logical query whose operators each carry a
// parallelism degree and a placement of their parallel instances onto
// cluster nodes (referenced by node name; the cluster package owns the node
// catalogue).
//
// The struct is its own wire format (plan files, /v1/predict bodies, recorded
// traces) and its own decoder (UnmarshalJSON, decode.go: one schema-specific
// pass, no reflection). Decoding does not validate and leaves absent maps nil,
// which every read tolerates and every writer (SetDegree, SetNoChain,
// cluster.Place) allocates on first use; whoever consumes a decoded plan calls
// Validate or Analyze first, as it would for a plan built in code.
type PQP struct {
	Query       *Query           `json:"query"`
	Parallelism map[int]int      `json:"parallelism"`         // operator ID → degree (≥ 1)
	Placement   map[int][]string `json:"placement,omitempty"` // operator ID → node name per instance, len == degree
	// NoChain marks operators that must start a new chain even when the
	// structural chaining conditions hold — Flink's disableChaining()
	// knob, used by the autopipelining baseline to trade hand-off cost for
	// pipeline parallelism.
	NoChain OpSet `json:"no_chain,omitempty"`
}

// OpSet is a set of operator IDs: a map in memory, where membership is what
// chaining asks, and a sorted list of the members on the wire, so one plan
// always marshals to the same bytes. Its UnmarshalJSON is with the plan's, in
// decode.go.
type OpSet map[int]bool

// MarshalJSON implements json.Marshaler.
func (s OpSet) MarshalJSON() ([]byte, error) {
	ids := make([]int, 0, len(s))
	for id, member := range s {
		if member {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return json.Marshal(ids)
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
	if p.Parallelism == nil {
		p.Parallelism = make(map[int]int)
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

// Analyze validates p — its query (Query.Analyze), then its degrees and
// placements against it (Topology.Check) — and returns the query's Topology,
// so a caller that goes on to place or encode p analyses the query once.
func (p *PQP) Analyze() (*Topology, error) {
	t := new(Topology)
	if _, err := p.AnalyzeIn(t, nil); err != nil {
		return nil, err
	}
	return t, nil
}

// AnalyzeIn is Analyze with the Topology built in t (Topology.Reset, which
// says what becomes of t's previous contents). It returns the degree vector
// the check was made on, appended to deg[:0], for a caller that encodes p
// from its degrees.
func (p *PQP) AnalyzeIn(t *Topology, deg []int) ([]int, error) {
	if err := t.Reset(p.Query); err != nil {
		return nil, err
	}
	deg = t.Degrees(p, deg)
	if err := t.Check(p, deg); err != nil {
		return nil, err
	}
	return deg, nil
}

// Validate checks the query, and degrees and placements for consistency with
// it (exactly the checks of Analyze).
func (p *PQP) Validate() error {
	_, err := p.Analyze()
	return err
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
