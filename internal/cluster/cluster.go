// Package cluster models the hardware side of ZeroTune: the CloudLab node
// types of Table II, clusters assembled from them, and the placement of
// parallel operator instances onto cluster nodes (Flink-style slot
// assignment with chain-group co-location).
package cluster

import (
	"fmt"
	"strconv"

	"zerotune/internal/queryplan"
	"zerotune/internal/tensor"
)

// NodeType is a hardware class from Table II of the paper.
type NodeType struct {
	Name    string
	Cores   int
	FreqGHz float64
	MemGB   int
	DiskGB  int
	CPU     string // marketing name, informational only
	Seen    bool   // part of the training ("seen") hardware set
	Homog   bool   // listed under the homogeneous ("Ho") cluster type
}

// catalog is Table II, the one copy every lookup reads.
var catalog = [...]NodeType{
	{Name: "m510", Cores: 8, FreqGHz: 2.0, MemGB: 64, DiskGB: 256, CPU: "Xeon D", Seen: true, Homog: true},
	{Name: "c6420", Cores: 32, FreqGHz: 2.6, MemGB: 384, DiskGB: 1024, CPU: "Skylake", Seen: false, Homog: true},
	{Name: "rs620", Cores: 10, FreqGHz: 2.2, MemGB: 256, DiskGB: 900, CPU: "Xeon", Seen: true, Homog: false},
	{Name: "c8220x", Cores: 20, FreqGHz: 2.2, MemGB: 256, DiskGB: 4096, CPU: "Ivy Bridge", Seen: false, Homog: false},
	{Name: "c8220", Cores: 20, FreqGHz: 2.2, MemGB: 256, DiskGB: 2048, CPU: "Ivy Bridge", Seen: false, Homog: false},
	{Name: "dss7500", Cores: 12, FreqGHz: 2.4, MemGB: 128, DiskGB: 120, CPU: "Haswell", Seen: false, Homog: false},
	{Name: "c6320", Cores: 28, FreqGHz: 2.0, MemGB: 256, DiskGB: 1024, CPU: "Haswell", Seen: false, Homog: false},
	{Name: "rs6525", Cores: 64, FreqGHz: 2.8, MemGB: 256, DiskGB: 1600, CPU: "AMD EPYC", Seen: false, Homog: false},
}

// Catalog returns the eight CloudLab node types of Table II. The slice is
// freshly allocated; callers may modify it.
func Catalog() []NodeType {
	return append([]NodeType(nil), catalog[:]...)
}

// TypeByName returns the catalogue entry with the given name.
func TypeByName(name string) (NodeType, error) {
	for _, t := range catalog {
		if t.Name == name {
			return t, nil
		}
	}
	return NodeType{}, fmt.Errorf("cluster: unknown node type %q", name)
}

// SeenTypes returns the node types used for training data (Table III:
// m510, rs620), freshly allocated.
func SeenTypes() []NodeType {
	return typesWhere(true)
}

// UnseenTypes returns the node types reserved for generalization tests,
// freshly allocated.
func UnseenTypes() []NodeType {
	return typesWhere(false)
}

func typesWhere(seen bool) []NodeType {
	var out []NodeType
	for _, t := range catalog {
		if t.Seen == seen {
			out = append(out, t)
		}
	}
	return out
}

// Node is one worker machine in a cluster.
type Node struct {
	Name string
	Type NodeType
}

// Cluster is a set of worker nodes joined by a uniform network link.
type Cluster struct {
	Nodes    []Node
	LinkGbps float64 // network link speed between nodes (Table I/III: 1 or 10)
}

// New builds a cluster of n workers drawn from the given node types. A
// single type yields a homogeneous cluster; several types are assigned
// round-robin, producing the paper's heterogeneous configurations.
func New(n int, types []NodeType, linkGbps float64) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 worker, got %d", n)
	}
	if len(types) == 0 {
		return nil, fmt.Errorf("cluster: no node types given")
	}
	if linkGbps <= 0 {
		return nil, fmt.Errorf("cluster: link speed must be positive, got %v", linkGbps)
	}
	c := &Cluster{Nodes: make([]Node, n), LinkGbps: linkGbps}
	for i := range c.Nodes {
		t := types[i%len(types)]
		c.Nodes[i] = Node{Name: nodeName(t, i), Type: t}
	}
	return c, nil
}

// NewRandom builds a cluster of n workers with types sampled uniformly from
// types using rng — the heterogeneous resource sampling used in data
// generation.
func NewRandom(rng *tensor.RNG, n int, types []NodeType, linkGbps float64) (*Cluster, error) {
	if n < 1 || len(types) == 0 || linkGbps <= 0 {
		return nil, fmt.Errorf("cluster: invalid arguments (n=%d, types=%d, link=%v)", n, len(types), linkGbps)
	}
	c := &Cluster{Nodes: make([]Node, n), LinkGbps: linkGbps}
	for i := range c.Nodes {
		t := tensor.Pick(rng, types)
		c.Nodes[i] = Node{Name: nodeName(t, i), Type: t}
	}
	return c, nil
}

// nodeName names worker i of type t: "m510-0", "rs620-1", ….
func nodeName(t NodeType, i int) string {
	return t.Name + "-" + strconv.Itoa(i)
}

// Node returns the node with the given name, or nil.
func (c *Cluster) Node(name string) *Node {
	for i := range c.Nodes {
		if c.Nodes[i].Name == name {
			return &c.Nodes[i]
		}
	}
	return nil
}

// TotalCores returns the number of cores across all workers — the paper's
// n_core upper bound on any parallelism degree.
func (c *Cluster) TotalCores() int {
	n := 0
	for _, nd := range c.Nodes {
		n += nd.Type.Cores
	}
	return n
}

// MaxNodeCores returns the largest core count of any single worker.
func (c *Cluster) MaxNodeCores() int {
	m := 0
	for _, nd := range c.Nodes {
		if nd.Type.Cores > m {
			m = nd.Type.Cores
		}
	}
	return m
}

// IsHeterogeneous reports whether the cluster mixes node types.
func (c *Cluster) IsHeterogeneous() bool {
	if len(c.Nodes) == 0 {
		return false
	}
	first := c.Nodes[0].Type.Name
	for _, nd := range c.Nodes[1:] {
		if nd.Type.Name != first {
			return true
		}
	}
	return false
}

// Place assigns every operator instance of p to a cluster node, writing
// p.Placement. The strategy mirrors Flink's default scheduling:
//
//   - Operators in the same chain group co-locate instance-by-instance
//     (instance i of every chained operator runs in the same task slot).
//   - Chain groups are spread across workers round-robin, offset per group
//     so load balances over the cluster.
//
// Place never fails for valid plans, but returns an error when the plan or
// cluster is structurally unusable. It analyses p.Query for this one plan;
// callers placing many plans of one query analyse once and use PlaceWith.
func Place(p *queryplan.PQP, c *Cluster) error {
	if len(c.Nodes) == 0 {
		return fmt.Errorf("cluster: cannot place on empty cluster")
	}
	t, err := p.Query.Analyze()
	if err != nil {
		return fmt.Errorf("cluster: invalid plan: %w", err)
	}
	return PlaceWith(t, p, c)
}

// PlaceWith is Place for a plan whose query the caller has already analysed
// (t must come from p.Query.Analyze).
func PlaceWith(t *queryplan.Topology, p *queryplan.PQP, c *Cluster) error {
	if len(c.Nodes) == 0 {
		return fmt.Errorf("cluster: cannot place on empty cluster")
	}
	n := len(t.Ops)
	scratch := make([]int, 2*n)
	deg := t.Degrees(p, scratch[:0:n])
	if err := t.Check(p, deg); err != nil {
		return fmt.Errorf("cluster: invalid plan: %w", err)
	}
	groups := t.ChainGroups(p, deg, scratch[n:n])
	// Each operator gets its own slice of one backing array, capped so an
	// append cannot reach a neighbour's.
	total := 0
	for _, d := range deg {
		total += d
	}
	names := make([]string, total)
	if p.Placement == nil { // a decoded plan that named no placement
		p.Placement = make(map[int][]string, n)
	}
	for pos, op := range t.Ops {
		nodes := names[:deg[pos]:deg[pos]]
		names = names[deg[pos]:]
		for i := range nodes {
			nodes[i] = c.Nodes[RoundRobin(groups[pos], i, len(c.Nodes))].Name
		}
		p.Placement[op.ID] = nodes
	}
	return nil
}

// RoundRobin is Place's rule: instance i of chain group g runs on node
// (g+i) mod nodes, by index into Cluster.Nodes. Groups are numbered in
// topological order and the degree is uniform within one, so every member of
// a group lands on the same node for the same instance. features.Encoder
// applies it to degree vectors that are never placed as plans.
func RoundRobin(group, instance, nodes int) int { return (group + instance) % nodes }

// SlotOwners returns, per chain group, the position of the operator whose
// placement stands for the group's task slots. Chained operators share their
// group's slots, so one member is counted: the first in the query's
// declaration order. groups is Topology.ChainGroups' result; the owners are
// appended to dst[:0].
func SlotOwners(t *queryplan.Topology, groups, dst []int) []int {
	dst = dst[:0]
	for _, pos := range t.Decl {
		for len(dst) <= groups[pos] {
			dst = append(dst, -1)
		}
		if dst[groups[pos]] < 0 {
			dst[groups[pos]] = pos
		}
	}
	return dst
}
