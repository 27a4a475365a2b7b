package queryplan

import "zerotune/internal/jsonscan"

// The wire decoders. Query and PQP are their own wire format and, here, their
// own decoders: one pass over the bytes with code that knows the schema, in
// place of encoding/json's reflection. The field tables below are the structs'
// json tags in declaration order (TestDecodeTablesMatchTags holds them to
// that); everything encoding/json would accept into these structs is accepted
// with an equal result — unknown keys skipped, keys matched exactly and then
// case-folded, null a no-op — except that a field repeated within one object
// is jsonscan.ErrDuplicateKey. A field the input names replaces the
// receiver's; one it does not name is left alone. As before, decoding
// validates nothing about the plan.
var (
	pqpFields   = []string{"query", "parallelism", "placement", "no_chain"}
	queryFields = []string{"name", "template", "ops", "edges"}
	edgeFields  = []string{"from", "to", "partitioning"}
	opFields    = []string{
		"id", "type",
		"tuple_width_in", "tuple_width_out", "tuple_data_type", "selectivity", "event_rate",
		"filter_func", "filter_literal_class",
		"window_type", "window_policy", "window_length", "sliding_length",
		"join_key_class",
		"agg_func", "agg_class", "agg_key_class",
	}
)

// UnmarshalJSON implements json.Unmarshaler.
func (p *PQP) UnmarshalJSON(data []byte) error {
	s := jsonscan.New(data)
	p.DecodeJSON(s)
	return s.End()
}

// DecodeJSON reads the plan at the scanner's cursor: what UnmarshalJSON does,
// for a decoder (serve's requests) that meets a plan inside its own document.
func (p *PQP) DecodeJSON(s *jsonscan.Scanner) {
	if !s.BeginObject() {
		return
	}
	var seen uint32
	for s.More('}') {
		switch s.Field(pqpFields, &seen) {
		case 0:
			if s.Null() {
				p.Query = nil
			} else {
				p.Query = new(Query)
				p.Query.DecodeJSON(s)
			}
		case 1:
			p.Parallelism = p.decodeDegrees(s)
		case 2:
			p.Placement = p.decodePlacement(s)
		case 3:
			p.NoChain = decodeOpSet(s)
		default:
			s.Skip()
		}
	}
}

// maxPresize bounds what a count read from the input may pre-allocate; past
// it, containers grow as they fill.
const maxPresize = 64

// opsSeen sizes a plan map by the query decoded so far; writers put the query
// first.
func (p *PQP) opsSeen() int {
	if p.Query == nil {
		return 0
	}
	return min(len(p.Query.Ops), maxPresize)
}

func (p *PQP) decodeDegrees(s *jsonscan.Scanner) map[int]int {
	if !s.BeginObject() {
		return nil
	}
	degrees := make(map[int]int, p.opsSeen())
	for s.More('}') {
		var d int
		id := s.IntKey()
		s.Int(&d)
		degrees[id] = d
	}
	return degrees
}

func (p *PQP) decodePlacement(s *jsonscan.Scanner) map[int][]string {
	if !s.BeginObject() {
		return nil
	}
	placement := make(map[int][]string, p.opsSeen())
	for s.More('}') {
		id := s.IntKey()
		placement[id] = s.Strings()
	}
	return placement
}

// UnmarshalJSON implements json.Unmarshaler; repeated IDs collapse, and null
// is the empty set.
func (s *OpSet) UnmarshalJSON(data []byte) error {
	sc := jsonscan.New(data)
	set := decodeOpSet(sc)
	if err := sc.End(); err != nil {
		return err
	}
	*s = set
	return nil
}

func decodeOpSet(s *jsonscan.Scanner) OpSet {
	set := OpSet{}
	if !s.BeginArray() {
		return set
	}
	for s.More(']') {
		var id int
		s.Int(&id)
		set[id] = true
	}
	return set
}

// UnmarshalJSON implements json.Unmarshaler.
func (q *Query) UnmarshalJSON(data []byte) error {
	s := jsonscan.New(data)
	q.DecodeJSON(s)
	return s.End()
}

// DecodeJSON reads the query at the scanner's cursor, as PQP.DecodeJSON does
// a plan.
func (q *Query) DecodeJSON(s *jsonscan.Scanner) {
	if !s.BeginObject() {
		return
	}
	var seen uint32
	for s.More('}') {
		switch s.Field(queryFields, &seen) {
		case 0:
			s.String(&q.Name)
		case 1:
			s.String(&q.Template)
		case 2:
			q.Ops = decodeOps(s)
		case 3:
			q.Edges = decodeEdges(s, len(q.Ops))
		default:
			s.Skip()
		}
	}
}

// opRoom is how many operators decodeOps holds on its stack while it reads a
// query; the paper's templates run to about a dozen.
const opRoom = 16

// decodeOps reads the operator list. The operators are read into room on the
// stack (a longer list spills to the heap) and then copied into one array of
// exactly their number, which they are handed out from.
func decodeOps(s *jsonscan.Scanner) []*Operator {
	if !s.BeginArray() {
		return nil
	}
	var room [opRoom]Operator
	var nulls [opRoom]bool
	read, isNull := room[:0], nulls[:0]
	for s.More(']') {
		null := s.Null()
		read, isNull = append(read, Operator{}), append(isNull, null)
		if !null {
			read[len(read)-1].decodeJSON(s)
		}
	}
	arr := make([]Operator, 0, len(read))
	ops := make([]*Operator, len(read))
	for i := range read {
		if !isNull[i] {
			arr = append(arr, read[i])
			ops[i] = &arr[len(arr)-1]
		}
	}
	return ops
}

func (o *Operator) decodeJSON(s *jsonscan.Scanner) {
	if !s.BeginObject() {
		return
	}
	var seen uint32
	for s.More('}') {
		switch s.Field(opFields, &seen) {
		case 0:
			s.Int(&o.ID)
		case 1:
			s.Int((*int)(&o.Type))
		case 2:
			s.Int(&o.TupleWidthIn)
		case 3:
			s.Int(&o.TupleWidthOut)
		case 4:
			s.Int((*int)(&o.TupleDataType))
		case 5:
			s.Float(&o.Selectivity)
		case 6:
			s.Float(&o.EventRate)
		case 7:
			s.Int((*int)(&o.FilterFunc))
		case 8:
			s.Int((*int)(&o.FilterLiteralClass))
		case 9:
			s.Int((*int)(&o.WindowType))
		case 10:
			s.Int((*int)(&o.WindowPolicy))
		case 11:
			s.Float(&o.WindowLength)
		case 12:
			s.Float(&o.SlidingLength)
		case 13:
			s.Int((*int)(&o.JoinKeyClass))
		case 14:
			s.Int((*int)(&o.AggFunc))
		case 15:
			s.Int((*int)(&o.AggClass))
		case 16:
			s.Int((*int)(&o.AggKeyClass))
		default:
			s.Skip()
		}
	}
}

// decodeEdges reads the edge list, sized for a query of nOps operators (a
// DAG into one sink has at least nOps-1 edges, a tree exactly that).
func decodeEdges(s *jsonscan.Scanner, nOps int) []Edge {
	if !s.BeginArray() {
		return nil
	}
	edges := make([]Edge, 0, min(nOps, maxPresize))
	for s.More(']') {
		edges = append(edges, Edge{})
		e := &edges[len(edges)-1]
		if !s.BeginObject() {
			continue
		}
		var seen uint32
		for s.More('}') {
			switch s.Field(edgeFields, &seen) {
			case 0:
				s.Int(&e.From)
			case 1:
				s.Int(&e.To)
			case 2:
				s.Int((*int)(&e.Partitioning))
			default:
				s.Skip()
			}
		}
	}
	return edges
}
