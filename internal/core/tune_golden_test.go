package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"zerotune/internal/cluster"
	"zerotune/internal/features"
	"zerotune/internal/gnn"
	"zerotune/internal/optimizer"
	"zerotune/internal/optisample"
	"zerotune/internal/queryplan"
	"zerotune/internal/tensor"
	"zerotune/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/tune_golden.json from the code under test")

// The "same answers" pin for the candidate sweep. testdata/tune_golden.json
// was recorded at the commit before the sweep was restructured (PR 13's
// parent) and must reproduce exactly: for every seen, unseen and benchmark
// structure, the digest of every candidate's encoded graph under each feature
// mask, and — with a seeded random-weight model compiled to the f32 engine —
// the tuned degree vector, the candidate count and the bits of the winning
// estimate, once through the portable GEMM kernel and once through every
// vector kernel the CPU has (recorded from the AVX2+FMA one; the AVX-512 one
// must reproduce the same bits). The candidate digests are taken from
// Encoder.EncodeDegrees, the path /v1/tune serves. Tune only ever encodes
// cluster.RoundRobin's placement, so a second section pins the encoder on
// placements it would never produce: instances scattered at random, chaining
// disabled on some operators.

type tuneGolden struct {
	Tune      []tuneGoldenCase `json:"tune"`
	Scattered []scatteredCase  `json:"scattered"`
}

type scatteredCase struct {
	Structure string `json:"structure"`
	Seq       uint64 `json:"seq"`
	// Graphs digests the graph under the three masks, then the slot load per node.
	Graphs string `json:"graphs_sha256"`
}

type tuneGoldenCase struct {
	Structure  string `json:"structure"`
	Seq        uint64 `json:"seq"`
	Candidates int    `json:"candidates"`
	// Graphs digests every candidate's graph, in candidate order, under
	// MaskAll, MaskOperatorOnly and MaskParallelismResource.
	Graphs   string        `json:"graphs_sha256"`
	Portable tuneGoldenRun `json:"portable"`
	SIMD     tuneGoldenRun `json:"simd"`
}

type tuneGoldenRun struct {
	Degrees  []int  `json:"degrees"`
	LatBits  uint64 `json:"latency_bits"`
	TptBits  uint64 `json:"throughput_bits"`
	CostBits uint64 `json:"cost_bits"`
}

// digestGraph hashes every field of an encoded graph, floats by their bits.
func digestGraph(h interface{ Write([]byte) (int, error) }, g *features.Graph) {
	var buf [8]byte
	u64 := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	vec := func(v tensor.Vector) {
		u64(uint64(len(v)))
		for _, x := range v {
			u64(math.Float64bits(x))
		}
	}
	u64(uint64(len(g.OpNodes)))
	for _, n := range g.OpNodes {
		u64(uint64(n.OpID))
		u64(uint64(n.Type))
		vec(n.Feat)
	}
	u64(uint64(len(g.ResNodes)))
	for _, n := range g.ResNodes {
		u64(uint64(len(n.Name)))
		h.Write([]byte(n.Name))
		vec(n.Feat)
	}
	u64(uint64(len(g.DataEdges)))
	for _, e := range g.DataEdges {
		u64(uint64(e[0]))
		u64(uint64(e[1]))
	}
	u64(uint64(len(g.Mapping)))
	for _, e := range g.Mapping {
		u64(uint64(e.OpIdx))
		u64(uint64(e.ResIdx))
		u64(uint64(e.Instances))
	}
	u64(uint64(g.SinkIdx))
	u64(math.Float64bits(g.LatencyMs))
	u64(math.Float64bits(g.ThroughputEPS))
	u64(uint64(len(g.Template)))
	h.Write([]byte(g.Template))
	u64(math.Float64bits(g.AvgDegree))
}

var allMasks = []features.Mask{features.MaskAll, features.MaskOperatorOnly, features.MaskParallelismResource}

// digestingEstimator hashes the graphs of every candidate sweep it is handed,
// encoded from the degree vectors as the served sweep encodes them, before
// passing the sweep on to the model's own estimator.
type digestingEstimator struct {
	optimizer.SweepEstimator
	sum string
}

func (d *digestingEstimator) EstimateSweep(ctx context.Context, t *queryplan.Topology, c *cluster.Cluster, degs []int) ([]optimizer.Estimate, error) {
	encs := make([]*features.Encoder, len(allMasks))
	for i, mask := range allMasks {
		encs[i] = features.NewEncoder(t, c, mask)
	}
	h := sha256.New()
	var a features.Arena
	for n, i := len(t.Ops), 0; i < len(degs); i += n {
		for _, enc := range encs {
			g, err := enc.EncodeDegrees(&a, degs[i:i+n])
			if err != nil {
				return nil, err
			}
			digestGraph(h, g)
		}
	}
	d.sum = hex.EncodeToString(h.Sum(nil))
	return d.SweepEstimator.EstimateSweep(ctx, t, c, degs)
}

// goldenQueries calls fn with three sampled queries of every structure.
func goldenQueries(t *testing.T, fn func(structure string, seq uint64, q *queryplan.Query, c *cluster.Cluster)) {
	t.Helper()
	for _, set := range []struct {
		gen        *workload.Generator
		structures []string
	}{
		{workload.NewSeenGenerator(13), workload.SeenRanges().Structures},
		{workload.NewUnseenGenerator(13), append(workload.UnseenRanges().Structures, workload.BenchmarkStructures()...)},
	} {
		for _, s := range set.structures {
			for seq := uint64(0); seq < 3; seq++ {
				q, c, err := set.gen.SampleQuery(s, seq)
				if err != nil {
					t.Fatal(err)
				}
				fn(s, seq, q, c)
			}
		}
	}
}

func computeScatteredGolden(t *testing.T) []scatteredCase {
	t.Helper()
	var out []scatteredCase
	goldenQueries(t, func(s string, seq uint64, q *queryplan.Query, c *cluster.Cluster) {
		rng := tensor.NewRNG(77 + seq)
		p := queryplan.NewPQP(q)
		if err := optisample.Default().Assign(p, c, rng); err != nil {
			t.Fatal(err)
		}
		for _, op := range q.Ops {
			if rng.Intn(4) == 0 {
				p.SetNoChain(op.ID, true)
			}
		}
		for _, op := range q.Ops {
			nodes := make([]string, p.Degree(op.ID))
			for i := range nodes {
				nodes[i] = c.Nodes[rng.Intn(len(c.Nodes))].Name
			}
			p.Placement[op.ID] = nodes
		}
		h := sha256.New()
		for _, mask := range allMasks {
			g, err := features.Encode(p, c, mask)
			if err != nil {
				t.Fatal(err)
			}
			digestGraph(h, g)
		}
		// Slot load: the placement of every chain group's slot owner.
		topo, err := p.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		load := make(map[string]int)
		groups := topo.ChainGroups(p, topo.Degrees(p, nil), nil)
		for _, pos := range cluster.SlotOwners(topo, groups, nil) {
			for _, n := range p.Placement[topo.Ops[pos].ID] {
				load[n]++
			}
		}
		for _, n := range c.Nodes {
			fmt.Fprintf(h, "%s=%d;", n.Name, load[n.Name])
		}
		out = append(out, scatteredCase{Structure: s, Seq: seq, Graphs: hex.EncodeToString(h.Sum(nil))})
	})
	return out
}

// computeTuneGolden runs the sweep with the named GEMM kernel pinned; the
// answers land in the Portable or the SIMD half of each case accordingly.
func computeTuneGolden(t *testing.T, kernel string) []tuneGoldenCase {
	t.Helper()
	defer tensor.SetSIMD(tensor.SetSIMD(kernel))
	zt := &ZeroTune{Model: gnn.New(tensor.NewRNG(13), gnn.DefaultConfig()), Mask: features.MaskAll}
	if err := zt.Compile(gnn.CompileOptions{Engine: gnn.EngineF32}); err != nil {
		t.Fatal(err)
	}
	var out []tuneGoldenCase
	goldenQueries(t, func(s string, seq uint64, q *queryplan.Query, c *cluster.Cluster) {
		est := &digestingEstimator{SweepEstimator: zt.Estimator().(optimizer.SweepEstimator)}
		res, err := optimizer.Tune(context.Background(), q, c, est, optimizer.DefaultTuneOptions())
		if err != nil {
			t.Fatal(err)
		}
		run := tuneGoldenRun{
			Degrees:  res.Plan.DegreesVector(),
			LatBits:  math.Float64bits(res.Estimate.LatencyMs),
			TptBits:  math.Float64bits(res.Estimate.ThroughputEPS),
			CostBits: math.Float64bits(res.Cost),
		}
		gc := tuneGoldenCase{Structure: s, Seq: seq, Candidates: res.Candidates, Graphs: est.sum}
		if kernel == "portable" {
			gc.Portable = run
		} else {
			gc.SIMD = run
		}
		out = append(out, gc)
	})
	return out
}

func TestTuneGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits were recorded on amd64; other targets fuse multiply-adds differently")
	}
	path := filepath.Join("testdata", "tune_golden.json")
	if *updateGolden {
		prev := tensor.SetSIMD("avx2")
		haveAVX2 := tensor.Kernel() == "avx2"
		tensor.SetSIMD(prev)
		if !haveAVX2 {
			t.Fatal("recording needs AVX2+FMA so both kernels are pinned")
		}
		got := tuneGolden{Tune: computeTuneGolden(t, "portable"), Scattered: computeScatteredGolden(t)}
		for i, c := range computeTuneGolden(t, "avx2") {
			if c.Candidates != got.Tune[i].Candidates || c.Graphs != got.Tune[i].Graphs {
				t.Fatalf("%s/%d: candidate set depends on the GEMM kernel", c.Structure, c.Seq)
			}
			got.Tune[i].SIMD = c.SIMD
		}
		// One case per line keeps the file reviewable.
		var b bytes.Buffer
		section := func(name string, n int, item func(i int) any) {
			fmt.Fprintf(&b, "%q: [\n", name)
			for i := 0; i < n; i++ {
				line, err := json.Marshal(item(i))
				if err != nil {
					t.Fatal(err)
				}
				b.Write(line)
				if i < n-1 {
					b.WriteByte(',')
				}
				b.WriteByte('\n')
			}
			b.WriteString("]")
		}
		b.WriteString("{\n")
		section("tune", len(got.Tune), func(i int) any { return got.Tune[i] })
		b.WriteString(",\n")
		section("scattered", len(got.Scattered), func(i int) any { return got.Scattered[i] })
		b.WriteString("\n}\n")
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want tuneGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, kernel := range []string{"portable", "avx2", "avx512"} {
		t.Run(kernel, func(t *testing.T) {
			defer tensor.SetSIMD(tensor.SetSIMD(kernel))
			if tensor.Kernel() != kernel {
				t.Skipf("this CPU has no %s kernel", kernel)
			}
			got := computeTuneGolden(t, kernel)
			if len(got) != len(want.Tune) {
				t.Fatalf("%d cases, golden has %d", len(got), len(want.Tune))
			}
			for i, w := range want.Tune {
				// Each leg fills one half; the other is not its business.
				if kernel == "portable" {
					w.SIMD = tuneGoldenRun{}
				} else {
					w.Portable = tuneGoldenRun{}
				}
				if !reflect.DeepEqual(got[i], w) {
					t.Errorf("%s/%d: answers moved\n got %+v\nwant %+v", w.Structure, w.Seq, got[i], w)
				}
			}
		})
	}
	scattered := computeScatteredGolden(t)
	if len(scattered) != len(want.Scattered) {
		t.Fatalf("%d scattered cases, golden has %d", len(scattered), len(want.Scattered))
	}
	for i, w := range want.Scattered {
		if scattered[i] != w {
			t.Errorf("%s/%d: scattered placement encodes differently\n got %+v\nwant %+v", w.Structure, w.Seq, scattered[i], w)
		}
	}
}

// TestTuneAllocsPerCandidate: the sweep pays for the query once and for each
// candidate only what its degree vector changes. A candidate stays a degree
// vector, encoded straight into the pooled arena, so it costs its dedup key in
// enumerate, OptiSample's scratch when it is a random draw, and its share of
// the per-call analysis, encoder and forward pass: 2.6 allocations on this
// 35-candidate sweep. The ceiling leaves room to grow, not to build a plan per
// candidate again (NewPlan's plan and two maps and PlaceWith's names cost six).
func TestTuneAllocsPerCandidate(t *testing.T) {
	zt := &ZeroTune{Model: gnn.New(tensor.NewRNG(13), gnn.DefaultConfig()), Mask: features.MaskAll}
	if err := zt.Compile(gnn.CompileOptions{Engine: gnn.EngineF32}); err != nil {
		t.Fatal(err)
	}
	q, c, err := workload.NewSeenGenerator(13).SampleQuery("2-way-join", 0)
	if err != nil {
		t.Fatal(err)
	}
	var candidates int
	allocs := testing.AllocsPerRun(10, func() {
		res, err := zt.Tune(context.Background(), q, c, optimizer.DefaultTuneOptions())
		if err != nil {
			t.Fatal(err)
		}
		candidates = res.Candidates
	})
	perCandidate := allocs / float64(candidates)
	t.Logf("%.0f allocs for %d candidates: %.1f per candidate", allocs, candidates, perCandidate)
	if perCandidate > 4 {
		t.Fatalf("%.1f allocations per candidate (ceiling 4): the candidates are built as plans again", perCandidate)
	}
}

// recordingEstimator keeps a copy of the last sweep it priced.
type recordingEstimator struct {
	optimizer.SweepEstimator
	degs []int
}

func (r *recordingEstimator) EstimateSweep(ctx context.Context, t *queryplan.Topology, c *cluster.Cluster, degs []int) ([]optimizer.Estimate, error) {
	r.degs = append(r.degs[:0], degs...)
	return r.SweepEstimator.EstimateSweep(ctx, t, c, degs)
}

// plansOnly hides EstimateSweep, so Tune prices every candidate as a placed
// plan through the model's EstimateBatch.
type plansOnly struct{ optimizer.BatchCostEstimator }

// TestSweepMatchesMaterialisedPlans: a candidate encoded from its degree
// vector is the graph of the plan it stands for, under every mask, and Tune
// answers the same whether it prices degree vectors or placed plans — for
// every golden query on its own cluster, on that cluster's first node alone,
// and on a hand-built cluster whose node names repeat (a repeated name stands
// for its first node, whatever the later one's type).
func TestSweepMatchesMaterialisedPlans(t *testing.T) {
	zt := &ZeroTune{Model: gnn.New(tensor.NewRNG(13), gnn.DefaultConfig()), Mask: features.MaskAll}
	if err := zt.Compile(gnn.CompileOptions{Engine: gnn.EngineF32}); err != nil {
		t.Fatal(err)
	}
	types := cluster.Catalog()
	dup := &cluster.Cluster{LinkGbps: 1, Nodes: []cluster.Node{
		{Name: "a", Type: types[0]}, {Name: "b", Type: types[2]}, {Name: "a", Type: types[1]},
		{Name: "c", Type: types[7]}, {Name: "b", Type: types[0]},
	}}
	ctx := context.Background()
	opts := optimizer.DefaultTuneOptions()
	goldenQueries(t, func(s string, seq uint64, q *queryplan.Query, c *cluster.Cluster) {
		topo, err := q.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		n := len(topo.Ops)
		one := &cluster.Cluster{Nodes: c.Nodes[:1], LinkGbps: c.LinkGbps}
		for ci, cl := range []*cluster.Cluster{c, one, dup} {
			rec := &recordingEstimator{SweepEstimator: zt.Estimator().(optimizer.SweepEstimator)}
			if _, err := optimizer.Tune(ctx, q, cl, rec, opts); err != nil {
				t.Fatal(err)
			}
			for _, mask := range allMasks {
				enc := features.NewEncoder(topo, cl, mask)
				var a features.Arena
				for i := 0; i < len(rec.degs); i += n {
					deg := rec.degs[i : i+n]
					got, err := enc.EncodeDegrees(&a, deg)
					if err != nil {
						t.Fatal(err)
					}
					p := topo.NewPlan(deg)
					if err := cluster.PlaceWith(topo, p, cl); err != nil {
						t.Fatal(err)
					}
					want, err := enc.Encode(p)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%d cluster %d mask %v: degrees %v encode differently from their plan\n got %+v\nwant %+v",
							s, seq, ci, mask, deg, got, want)
					}
				}
			}

			got, err := zt.Tune(ctx, q, cl, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := optimizer.Tune(ctx, q, cl, plansOnly{zt.Estimator().(optimizer.BatchCostEstimator)}, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Plan.DegreesVector(), want.Plan.DegreesVector()) ||
				!reflect.DeepEqual(got.Plan.Placement, want.Plan.Placement) ||
				got.Candidates != want.Candidates ||
				math.Float64bits(got.Estimate.LatencyMs) != math.Float64bits(want.Estimate.LatencyMs) ||
				math.Float64bits(got.Estimate.ThroughputEPS) != math.Float64bits(want.Estimate.ThroughputEPS) ||
				math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
				t.Errorf("%s/%d cluster %d: degree-vector sweep and plan sweep disagree\n got %v %v %d %+v %v\nwant %v %v %d %+v %v",
					s, seq, ci, got.Plan.DegreesVector(), got.Plan.Placement, got.Candidates, got.Estimate, got.Cost,
					want.Plan.DegreesVector(), want.Plan.Placement, want.Candidates, want.Estimate, want.Cost)
			}
		}
	})
}
