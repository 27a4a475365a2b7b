package serve

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"zerotune/internal/cluster"
	"zerotune/internal/features"
	"zerotune/internal/queryplan"
)

func encodePlan(t *testing.T, degree int, rate float64) *features.Graph {
	t.Helper()
	c, err := cluster.New(4, cluster.SeenTypes(), 10)
	if err != nil {
		t.Fatal(err)
	}
	q := queryplan.SpikeDetection(rate)
	p := queryplan.NewPQP(q)
	for _, o := range q.Ops {
		p.SetDegree(o.ID, degree)
	}
	if err := cluster.Place(p, c); err != nil {
		t.Fatal(err)
	}
	g, err := features.Encode(p, c, features.MaskAll)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFingerprintDeterministic(t *testing.T) {
	a := PlanFingerprint(encodePlan(t, 2, 10_000), features.MaskAll)
	b := PlanFingerprint(encodePlan(t, 2, 10_000), features.MaskAll)
	if a != b {
		t.Fatal("identical plans fingerprint differently")
	}
}

// cloneGraph deep-copies the parts of g a fingerprint case may mutate.
func cloneGraph(g *features.Graph) *features.Graph {
	c := *g
	c.OpNodes = append([]features.OpNode(nil), g.OpNodes...)
	for i := range c.OpNodes {
		c.OpNodes[i].Feat = append(c.OpNodes[i].Feat[:0:0], g.OpNodes[i].Feat...)
	}
	c.ResNodes = append([]features.ResNode(nil), g.ResNodes...)
	for i := range c.ResNodes {
		c.ResNodes[i].Feat = append(c.ResNodes[i].Feat[:0:0], g.ResNodes[i].Feat...)
	}
	c.DataEdges = append([][2]int(nil), g.DataEdges...)
	c.Mapping = append([]features.MapEdge(nil), g.Mapping...)
	return &c
}

// fingerprintCase names one edit of a featurized graph.
type fingerprintCase struct {
	name string
	edit func(g *features.Graph)
}

// hashedFieldEdits changes, one at a time, every field PlanFingerprint
// hashes: each must move the fingerprint.
func hashedFieldEdits(g *features.Graph) []fingerprintCase {
	cases := []fingerprintCase{
		{"op type", func(g *features.Graph) { g.OpNodes[1].Type++ }},
		{"data edge from", func(g *features.Graph) { g.DataEdges[0][0]++ }},
		{"data edge to", func(g *features.Graph) { g.DataEdges[0][1]++ }},
		{"mapping op", func(g *features.Graph) { g.Mapping[0].OpIdx++ }},
		{"mapping res", func(g *features.Graph) { g.Mapping[0].ResIdx++ }},
		{"mapping instances", func(g *features.Graph) { g.Mapping[0].Instances++ }},
		{"sink index", func(g *features.Graph) { g.SinkIdx-- }},
		{"op count", func(g *features.Graph) { g.OpNodes = g.OpNodes[:len(g.OpNodes)-1] }},
		{"resource count", func(g *features.Graph) { g.ResNodes = g.ResNodes[:len(g.ResNodes)-1] }},
		{"data edge count", func(g *features.Graph) { g.DataEdges = g.DataEdges[:len(g.DataEdges)-1] }},
		{"mapping count", func(g *features.Graph) { g.Mapping = g.Mapping[:len(g.Mapping)-1] }},
	}
	for i, n := range g.OpNodes {
		for j := range n.Feat {
			cases = append(cases, fingerprintCase{fmt.Sprintf("op %d feature %d", i, j),
				func(g *features.Graph) { g.OpNodes[i].Feat[j] += 0.5 }})
		}
	}
	for i, n := range g.ResNodes {
		for j := range n.Feat {
			cases = append(cases, fingerprintCase{fmt.Sprintf("resource %d feature %d", i, j),
				func(g *features.Graph) { g.ResNodes[i].Feat[j] += 0.5 }})
		}
	}
	return cases
}

func TestFingerprintSensitivity(t *testing.T) {
	g := encodePlan(t, 2, 10_000)
	base := PlanFingerprint(g, features.MaskAll)
	for _, c := range hashedFieldEdits(g) {
		e := cloneGraph(g)
		c.edit(e)
		if PlanFingerprint(e, features.MaskAll) == base {
			t.Errorf("%s: change not reflected in fingerprint", c.name)
		}
	}
	// Whole-plan changes and the mask.
	if PlanFingerprint(encodePlan(t, 4, 10_000), features.MaskAll) == base {
		t.Error("degree change not reflected in fingerprint")
	}
	if PlanFingerprint(encodePlan(t, 2, 20_000), features.MaskAll) == base {
		t.Error("event-rate change not reflected in fingerprint")
	}
	if PlanFingerprint(g, features.MaskOperatorOnly) == base {
		t.Error("mask change not reflected in fingerprint")
	}
}

func TestFingerprintIgnoresUnhashedFields(t *testing.T) {
	// Names, operator IDs and provenance are invisible to the model, so
	// they must not split a cache slot.
	g := encodePlan(t, 2, 10_000)
	base := PlanFingerprint(g, features.MaskAll)
	for _, c := range []fingerprintCase{
		{"resource name", func(g *features.Graph) { g.ResNodes[0].Name += "-renamed" }},
		{"operator ID", func(g *features.Graph) { g.OpNodes[0].OpID += 100 }},
		{"template", func(g *features.Graph) { g.Template = "other-template" }},
		{"average degree", func(g *features.Graph) { g.AvgDegree += 3 }},
		{"latency label", func(g *features.Graph) { g.LatencyMs = 42 }},
		{"throughput label", func(g *features.Graph) { g.ThroughputEPS = 1e6 }},
	} {
		e := cloneGraph(g)
		c.edit(e)
		if PlanFingerprint(e, features.MaskAll) != base {
			t.Errorf("%s: change moved the fingerprint", c.name)
		}
	}
}

// fingerprintStream serializes the word stream PlanFingerprint documents —
// its fields in its order, each a little-endian 64-bit word.
func fingerprintStream(g *features.Graph, mask features.Mask) []byte {
	var b []byte
	w := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	w(uint64(mask))
	w(uint64(len(g.OpNodes)))
	for _, n := range g.OpNodes {
		w(uint64(n.Type))
		for _, v := range n.Feat {
			w(math.Float64bits(v))
		}
	}
	w(uint64(len(g.ResNodes)))
	for _, n := range g.ResNodes {
		for _, v := range n.Feat {
			w(math.Float64bits(v))
		}
	}
	w(uint64(len(g.DataEdges)))
	for _, e := range g.DataEdges {
		w(uint64(e[0])<<32 | uint64(uint32(e[1])))
	}
	w(uint64(len(g.Mapping)))
	for _, m := range g.Mapping {
		w(uint64(m.OpIdx))
		w(uint64(m.ResIdx))
		w(uint64(m.Instances))
	}
	w(uint64(g.SinkIdx))
	return b
}

func TestFingerprintIsXXH64OfStream(t *testing.T) {
	// The streamed fingerprint equals the byte-form XXH64 of the serialized
	// word stream under each seed, high half first.
	for _, mask := range []features.Mask{features.MaskAll, features.MaskOperatorOnly} {
		g := encodePlan(t, 3, 15_000)
		stream := fingerprintStream(g, mask)
		var want Fingerprint
		binary.BigEndian.PutUint64(want[:8], xxh64(stream, fingerprintSeedHi))
		binary.BigEndian.PutUint64(want[8:], xxh64(stream, fingerprintSeedLo))
		if got := PlanFingerprint(g, mask); got != want {
			t.Errorf("mask %v: PlanFingerprint = %x, XXH64 of its %d-byte stream = %x", mask, got, len(stream), want)
		}
	}
}

func TestFingerprintZeroAlloc(t *testing.T) {
	g := encodePlan(t, 2, 10_000)
	if allocs := testing.AllocsPerRun(100, func() { PlanFingerprint(g, features.MaskAll) }); allocs != 0 {
		t.Fatalf("PlanFingerprint allocates %.1f times per call, want 0", allocs)
	}
}

func TestFingerprintIgnoresNodeNames(t *testing.T) {
	// Two clusters whose nodes differ only in name featurize identically
	// and must share a cache slot.
	build := func(prefix string) *features.Graph {
		types := cluster.SeenTypes()
		c := &cluster.Cluster{LinkGbps: 10}
		for i := 0; i < 4; i++ {
			c.Nodes = append(c.Nodes, cluster.Node{
				Name: prefix + string(rune('a'+i)), Type: types[i%len(types)],
			})
		}
		p := queryplan.NewPQP(queryplan.SpikeDetection(10_000))
		if err := cluster.Place(p, c); err != nil {
			t.Fatal(err)
		}
		g, err := features.Encode(p, c, features.MaskAll)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	if PlanFingerprint(build("x-"), features.MaskAll) != PlanFingerprint(build("y-"), features.MaskAll) {
		t.Fatal("node renaming changed the fingerprint")
	}
}
