package gnn

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"zerotune/internal/features"
	"zerotune/internal/nn"
	"zerotune/internal/queryplan"
	"zerotune/internal/tensor"
	"zerotune/internal/workload"
)

// structureGraphs generates n labelled graphs of one query structure.
func structureGraphs(t *testing.T, gen *workload.Generator, structure string, n int) []*features.Graph {
	t.Helper()
	items, err := gen.Generate([]string{structure}, n)
	if err != nil {
		t.Fatal(err)
	}
	return workload.Graphs(items)
}

// TestTrainStepMatchesSerialReference holds Train's batched step to its
// definition: per graph, forwardInto and the per-sample backward into one
// zeroed gradient buffer, graph after graph in batch order. Losses, batch-mean
// gradients and the weights after the clipped Adam step must agree bit for
// bit, for both read-outs, ragged and full batches, every seen structure and
// an unseen one, at one worker and at three (so chunks of the batch run
// concurrently). A batch with no join leaves the join encoder's gradient
// exactly zero.
func TestTrainStepMatchesSerialReference(t *testing.T) {
	seen, unseen := workload.NewSeenGenerator(5), workload.NewUnseenGenerator(5)
	linear := structureGraphs(t, seen, "linear", 8)
	join2 := structureGraphs(t, seen, "2-way-join", 8)
	join3 := structureGraphs(t, seen, "3-way-join", 8)
	join4 := structureGraphs(t, unseen, "4-way-join", 8)
	var mixed []*features.Graph
	for i := 0; i < 8; i++ {
		mixed = append(mixed, join3[i], linear[i], join4[i], join2[i])
	}
	batches := []struct {
		name   string
		graphs []*features.Graph
	}{
		{"one graph", mixed[:1]},
		{"ragged 5", mixed[1:6]},
		{"full 16", mixed[6:22]},
		{"no join", linear[:5]},
		{"unseen only", join4[:3]},
	}
	joinSlot := typeSlot(queryplan.OpJoin)

	for _, cfg := range []Config{
		{Hidden: 6, EncDepth: 1, HeadHidden: 6},
		{Hidden: 20, EncDepth: 1, HeadHidden: 20},
		{Hidden: 20, EncDepth: 2, HeadHidden: 20, Readout: ReadoutSink},
		{Hidden: 6, EncDepth: 1, HeadHidden: 6, Readout: ReadoutSink},
	} {
		for _, workers := range []int{1, 3} {
			ref, got := New(tensor.NewRNG(9), cfg), New(tensor.NewRNG(9), cfg)
			refOpt, gotOpt := nn.NewAdam(3e-3), nn.NewAdam(3e-3)
			step := newTrainStep(got, workers, 1.0)
			for _, b := range batches {
				want := serialStep(ref, b.graphs, 1.0)
				step.run(b.graphs)
				where := func() string {
					return fmt.Sprintf("%v read-out, hidden %d, %d workers, %s", cfg.Readout, cfg.Hidden, workers, b.name)
				}
				for i := range want {
					if math.Float64bits(step.losses[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s: graph %d loss %v, reference %v", where(), i, step.losses[i], want[i])
					}
				}
				refParams, gotParams := ref.Params(), got.Params()
				for pi := range refParams {
					for j, w := range refParams[pi].Grad {
						if g := gotParams[pi].Grad[j]; math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("%s: param %d[%d] gradient %v, reference %v", where(), pi, j, g, w)
						}
					}
				}
				if b.name == "no join" {
					for _, p := range got.mlps()[joinSlot].Params() {
						for j, g := range p.Grad {
							if math.Float64bits(g) != 0 {
								t.Fatalf("%s: join encoder gradient [%d] = %v without a join", where(), j, g)
							}
						}
					}
				}
				nn.ClipGradNorm(refParams, 5)
				nn.ClipGradNorm(gotParams, 5)
				refOpt.Step(refParams, 1)
				gotOpt.Step(gotParams, workers)
				if ok, why := paramsEqual(ref, got); !ok {
					t.Fatalf("%s: %s after the Adam step", where(), why)
				}
			}
		}
	}
}

// TestStepClipMatchesClipGradNorm holds Train's clip to its definition,
// ClipGradNorm followed by Adam.Step: the norm the step sums beside its
// gradient tasks has ClipGradNorm's bits, and Adam.StepScaled reading the
// gradients through GradScale of it moves every weight as the in-place
// rescale and Step do, at one worker and at three, on steps the clip binds
// and on steps it does not.
func TestStepClipMatchesClipGradNorm(t *testing.T) {
	graphs := trainSet(t, 30)
	clipped, unclipped := 0, 0
	for _, maxNorm := range []float64{1e-3, 1, 1e9} {
		for _, workers := range []int{1, 3} {
			ref, got := smallModel(7), smallModel(7)
			refOpt, gotOpt := nn.NewAdam(3e-3), nn.NewAdam(3e-3)
			refStep, gotStep := newTrainStep(ref, workers, 1.0), newTrainStep(got, workers, 1.0)
			gotStep.clip = true
			for b := 0; b < len(graphs); b += 5 {
				batch := graphs[b : b+5]
				refStep.run(batch)
				gotStep.run(batch)
				norm := nn.ClipGradNorm(ref.Params(), maxNorm)
				if math.Float64bits(gotStep.norm) != math.Float64bits(norm) {
					t.Fatalf("max norm %v, %d workers, batch %d: step norm %v, ClipGradNorm %v", maxNorm, workers, b/5, gotStep.norm, norm)
				}
				scale := nn.GradScale(gotStep.norm, maxNorm)
				if scale == 1 {
					unclipped++
				} else {
					clipped++
				}
				refOpt.Step(ref.Params(), workers)
				gotOpt.StepScaled(gotStep.team, got.Params(), scale)
				if ok, why := paramsEqual(ref, got); !ok {
					t.Fatalf("max norm %v, %d workers, batch %d: %s after the Adam step", maxNorm, workers, b/5, why)
				}
			}
			refStep.team.Close()
			gotStep.team.Close()
		}
	}
	if clipped == 0 || unclipped == 0 {
		t.Fatalf("%d clipped and %d unclipped steps: both kinds must occur", clipped, unclipped)
	}
}

// TestTrainRejectsBadGraphs: a graph whose label is not positive and finite,
// whose operator or machine features hold a NaN or an infinity, or whose
// structure the batched step cannot lay out, is an error naming its index
// before any epoch runs. Unchecked, one NaN feature trains every weight to NaN
// without an error.
func TestTrainRejectsBadGraphs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spoil func(g *features.Graph)
		want  string
	}{
		{"NaN operator feature", func(g *features.Graph) { g.OpNodes[0].Feat[0] = math.NaN() }, "training graph 2: operator 0: feature 0"},
		{"-Inf operator feature", func(g *features.Graph) { g.OpNodes[1].Feat[3] = math.Inf(-1) }, "training graph 2: operator 1: feature 3"},
		{"Inf machine feature", func(g *features.Graph) { g.ResNodes[1].Feat[2] = math.Inf(1) }, "training graph 2: machine 1: feature 2"},
		{"NaN machine feature", func(g *features.Graph) { g.ResNodes[0].Feat[0] = math.NaN() }, "training graph 2: machine 0: feature 0"},
		{"NaN latency", func(g *features.Graph) { g.LatencyMs = math.NaN() }, "training graph 2: latency label"},
		{"zero throughput", func(g *features.Graph) { g.ThroughputEPS = 0 }, "training graph 2: throughput label"},
		{"backward data-flow edge", func(g *features.Graph) { g.DataEdges = append(g.DataEdges, [2]int{2, 1}) }, "training graph 2: data-flow edge 2→1"},
		{"unknown operator type", func(g *features.Graph) { g.OpNodes[0].Type = 99 }, "training graph 2: operator 0: unknown type"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			graphs := trainSet(t, 6)
			tc.spoil(graphs[2])
			m, before := smallModel(7), smallModel(7)
			cfg := DefaultTrainConfig()
			cfg.Epochs = 30
			epochs := 0
			cfg.Progress = func(int, float64) { epochs++ }
			stats, err := Train(context.Background(), m, graphs, cfg)
			if err == nil {
				t.Fatalf("trained %d epochs to FinalLoss %v without an error", stats.Epochs, stats.FinalLoss)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not say %q", err, tc.want)
			}
			if epochs != 0 {
				t.Errorf("%d epochs ran before the error", epochs)
			}
			if ok, why := paramsEqual(before, m); !ok {
				t.Errorf("weights moved: %s", why)
			}
		})
	}
}
