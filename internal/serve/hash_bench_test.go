package serve

import (
	"encoding/json"
	"testing"

	"zerotune/internal/cluster"
	"zerotune/internal/features"
	"zerotune/internal/queryplan"
	"zerotune/internal/workload"
)

// hashBenchPlans samples 256 seeded plans over the seen structures and
// returns each one's predict request body (as a cold client sends it) and
// its featurized graph: the inputs the body cache and the plan cache key.
func hashBenchPlans(b *testing.B) ([][]byte, []*features.Graph) {
	b.Helper()
	gen := workload.NewSeenGenerator(5)
	structures := workload.SeenRanges().Structures
	bodies := make([][]byte, 256)
	graphs := make([]*features.Graph, len(bodies))
	for i := range bodies {
		q, c, err := gen.SampleQuery(structures[i%len(structures)], uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		p := queryplan.NewPQP(q)
		req := PredictRequest{Plan: p, Cluster: ClusterSpec{Workers: len(c.Nodes)}}
		if bodies[i], err = json.Marshal(req); err != nil {
			b.Fatal(err)
		}
		if err := cluster.Place(p, c); err != nil {
			b.Fatal(err)
		}
		if graphs[i], err = features.Encode(p, c, features.MaskAll); err != nil {
			b.Fatal(err)
		}
	}
	return bodies, graphs
}

// hashSink keeps the compiler from discarding the benchmarked hashes.
var hashSink uint64

// BenchmarkHashBody is the body cache's key over real request bodies; the
// reported MB/s is over their mean length.
func BenchmarkHashBody(b *testing.B) {
	bodies, _ := hashBenchPlans(b)
	total := 0
	for _, body := range bodies {
		total += len(body)
	}
	b.SetBytes(int64(total / len(bodies)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hashSink += HashBody(bodies[i%len(bodies)])
	}
}

// BenchmarkPlanFingerprint is the plan cache's key over the same plans'
// graphs; the reported MB/s is over the mean length of the hashed word
// stream.
func BenchmarkPlanFingerprint(b *testing.B) {
	_, graphs := hashBenchPlans(b)
	total := 0
	for _, g := range graphs {
		total += len(fingerprintStream(g, features.MaskAll))
	}
	b.SetBytes(int64(total / len(graphs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp := PlanFingerprint(graphs[i%len(graphs)], features.MaskAll)
		hashSink += uint64(fp[0])
	}
}
