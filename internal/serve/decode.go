package serve

import (
	"zerotune/internal/cluster"
	"zerotune/internal/jsonscan"
	"zerotune/internal/queryplan"
)

// The request decoders: PredictRequest, TuneRequest and ClusterSpec decode
// themselves in one schema-specific pass over the body (internal/jsonscan),
// handing the plan or query inside to queryplan's own decoder on the same
// scanner. The handlers call UnmarshalJSON on the pooled body bytes; everyone
// else reaches the same code through encoding/json's Unmarshaler hook. The
// contract is queryplan's (decode.go there): equal to encoding/json on
// everything it accepts, a repeated field refused, nothing validated. The
// field tables are the structs' json tags — for cluster.Node and NodeType,
// which have none, their Go field names — in declaration order.
var (
	predictFields  = []string{"plan", "cluster"}
	tuneFields     = []string{"query", "cluster", "weight", "random_candidates", "seed"}
	clusterFields  = []string{"nodes", "workers", "node_types", "link_gbps"}
	nodeFields     = []string{"Name", "Type"}
	nodeTypeFields = []string{"Name", "Cores", "FreqGHz", "MemGB", "DiskGB", "CPU", "Seen", "Homog"}
)

// UnmarshalJSON implements json.Unmarshaler.
func (r *PredictRequest) UnmarshalJSON(data []byte) error {
	s := jsonscan.New(data)
	if s.BeginObject() {
		var seen uint32
		for s.More('}') {
			switch s.Field(predictFields, &seen) {
			case 0:
				if s.Null() {
					r.Plan = nil
				} else {
					r.Plan = new(queryplan.PQP)
					r.Plan.DecodeJSON(s)
				}
			case 1:
				r.Cluster.decodeJSON(s)
			default:
				s.Skip()
			}
		}
	}
	return s.End()
}

// UnmarshalJSON implements json.Unmarshaler.
func (r *TuneRequest) UnmarshalJSON(data []byte) error {
	s := jsonscan.New(data)
	if s.BeginObject() {
		var seen uint32
		for s.More('}') {
			switch s.Field(tuneFields, &seen) {
			case 0:
				if s.Null() {
					r.Query = nil
				} else {
					r.Query = new(queryplan.Query)
					r.Query.DecodeJSON(s)
				}
			case 1:
				r.Cluster.decodeJSON(s)
			case 2:
				if s.Null() {
					r.Weight = nil
				} else {
					r.Weight = new(float64)
					s.Float(r.Weight)
				}
			case 3:
				if s.Null() {
					r.RandomCandidates = nil
				} else {
					r.RandomCandidates = new(int)
					s.Int(r.RandomCandidates)
				}
			case 4:
				s.Uint64(&r.Seed)
			default:
				s.Skip()
			}
		}
	}
	return s.End()
}

// UnmarshalJSON implements json.Unmarshaler.
func (c *ClusterSpec) UnmarshalJSON(data []byte) error {
	s := jsonscan.New(data)
	c.decodeJSON(s)
	return s.End()
}

func (c *ClusterSpec) decodeJSON(s *jsonscan.Scanner) {
	if !s.BeginObject() {
		return
	}
	var seen uint32
	for s.More('}') {
		switch s.Field(clusterFields, &seen) {
		case 0:
			c.Nodes = decodeNodes(s)
		case 1:
			s.Int(&c.Workers)
		case 2:
			c.NodeTypes = s.Strings()
		case 3:
			s.Float(&c.LinkGbps)
		default:
			s.Skip()
		}
	}
}

func decodeNodes(s *jsonscan.Scanner) []cluster.Node {
	if !s.BeginArray() {
		return nil
	}
	nodes := make([]cluster.Node, 0, 8) // the paper's clusters run to about ten nodes
	for s.More(']') {
		nodes = append(nodes, cluster.Node{})
		n := &nodes[len(nodes)-1]
		if !s.BeginObject() {
			continue
		}
		var seen uint32
		for s.More('}') {
			switch s.Field(nodeFields, &seen) {
			case 0:
				s.String(&n.Name)
			case 1:
				decodeNodeType(s, &n.Type)
			default:
				s.Skip()
			}
		}
	}
	return nodes
}

func decodeNodeType(s *jsonscan.Scanner, t *cluster.NodeType) {
	if !s.BeginObject() {
		return
	}
	var seen uint32
	for s.More('}') {
		switch s.Field(nodeTypeFields, &seen) {
		case 0:
			s.String(&t.Name)
		case 1:
			s.Int(&t.Cores)
		case 2:
			s.Float(&t.FreqGHz)
		case 3:
			s.Int(&t.MemGB)
		case 4:
			s.Int(&t.DiskGB)
		case 5:
			s.String(&t.CPU)
		case 6:
			s.Bool(&t.Seen)
		case 7:
			s.Bool(&t.Homog)
		default:
			s.Skip()
		}
	}
}
