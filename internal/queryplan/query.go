package queryplan

import (
	"fmt"
	"strings"
)

// Edge is a directed data-flow edge between two operators, annotated with
// the partitioning strategy used to distribute tuples among the downstream
// operator's parallel instances.
type Edge struct {
	From         int               `json:"from"`
	To           int               `json:"to"`
	Partitioning PartitionStrategy `json:"partitioning"`
}

// Query is a logical streaming query: a DAG of operators from one or more
// sources to a single sink. Like PQP it is its own wire format and its own
// decoder, and is not validated by decoding.
type Query struct {
	Name     string      `json:"name"`     // human-readable, e.g. "smart-grid (local)"
	Template string      `json:"template"` // structural template id, e.g. "linear", "3-way-join"
	Ops      []*Operator `json:"ops"`
	Edges    []Edge      `json:"edges"`
}

// Op returns the operator with the given ID, or nil if absent.
func (q *Query) Op(id int) *Operator {
	for _, o := range q.Ops {
		if o.ID == id {
			return o
		}
	}
	return nil
}

// Sources returns the source operators in declaration order.
func (q *Query) Sources() []*Operator {
	var out []*Operator
	for _, o := range q.Ops {
		if o.Type == OpSource {
			out = append(out, o)
		}
	}
	return out
}

// Sink returns the sink operator, or nil if the query has none.
func (q *Query) Sink() *Operator {
	for _, o := range q.Ops {
		if o.Type == OpSink {
			return o
		}
	}
	return nil
}

// Validate checks structural well-formedness: unique IDs, valid operators,
// acyclicity, at least one source, exactly one sink, sources without inputs,
// sink without outputs, and everything reachable.
func (q *Query) Validate() error {
	_, err := q.Analyze()
	return err
}

// DOT renders the logical plan in Graphviz format for debugging.
func (q *Query) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n", q.Name)
	for _, o := range q.Ops {
		fmt.Fprintf(&b, "  op%d [label=\"%s(%d)\"];\n", o.ID, o.Type, o.ID)
	}
	for _, e := range q.Edges {
		fmt.Fprintf(&b, "  op%d -> op%d [label=\"%s\"];\n", e.From, e.To, e.Partitioning)
	}
	b.WriteString("}\n")
	return b.String()
}
