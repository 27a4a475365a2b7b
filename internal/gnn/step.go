package gnn

import (
	"math"
	"sync/atomic"

	"zerotune/internal/features"
	"zerotune/internal/nn"
	"zerotune/internal/parallel"
	"zerotune/internal/tensor"
)

// trainStep is Train's minibatch step: one forward and backward pass over the
// stacked rows of every graph in the batch, then the batch-mean gradient in
// the model's own gradient buffers and, when a clip asks for it, the global
// gradient norm.
//
// Every sub-network runs once over the rows of all the graphs that use it —
// the per-type encoders over their operators, the resource networks over the
// machines, the mapping combiner and the heads over operators or graphs — and
// the data-flow combiner once per topological depth level, since a node's
// input needs its upstream states. Each row is computed bit-identically to
// the per-graph pass (forwardInto and the reference backward): the batched
// kernels reproduce the mat-vecs row for row, and the glue between networks
// repeats the per-graph vector operations in the per-graph order.
//
// Each weight-gradient element is one sum over the batch's samples in sample
// order — graph in batch order, then node in the order the per-graph backward
// visits it — into a single zeroed buffer per parameter tensor.
//
// Work runs as two phases of the step's worker team and is split only over
// independent outputs, so the result does not depend on the team's size: the
// batch's graphs are cut into contiguous chunks whose rows are their own
// (activations, input gradients), then each layer's weight and bias sums are
// computed whole by one task, reading the chunks in order. The tasks run in
// Model.Params order, and the norm's sum of squares follows them: whichever
// worker finishes a task extends it over every finished prefix of the
// parameters (normChain), so the norm is ClipGradNorm's one ordered sum, done
// while the remaining tasks run. Closing team ends its goroutines; nothing
// here outlives Train.
type trainStep struct {
	m      *Model
	mlps   []*nn.MLP // m.mlps(): the order of stepChunk.tr and of the tasks
	huber  float64
	team   *parallel.Team
	chunks []*stepChunk
	bounds []int     // chunk c holds the batch's graphs [bounds[c], bounds[c+1])
	losses []float64 // per graph of the last batch: latency + throughput loss
	tasks  []gradTask

	// clip asks run for the global gradient norm, left in norm.
	clip bool
	norm float64
	sum  normChain
}

// gradTask is one layer's weight and bias gradient: layer of mlps[mlp].
type gradTask struct{ mlp, layer int }

func newTrainStep(m *Model, workers int, huberDelta float64) *trainStep {
	s := &trainStep{m: m, mlps: m.mlps(), huber: huberDelta, team: parallel.NewTeam(workers)}
	for k, mm := range s.mlps {
		for l := range mm.Layers {
			s.tasks = append(s.tasks, gradTask{k, l})
		}
	}
	s.sum.done = make([]atomic.Bool, len(s.tasks))
	return s
}

// run computes the batch's per-graph losses into s.losses and the batch-mean
// gradient into the model's gradient buffers, and, when s.clip is set, the
// gradient's global L2 norm into s.norm.
func (s *trainStep) run(batch []*features.Graph) {
	k := parallel.Clamp(s.team.Workers(), len(batch))
	for len(s.chunks) < k {
		s.chunks = append(s.chunks, &stepChunk{})
	}
	s.bounds = chunkBounds(s.bounds[:0], batch, k)
	if cap(s.losses) < len(batch) {
		s.losses = make([]float64, len(batch))
	}
	s.losses = s.losses[:len(batch)]
	s.team.For(k, func(c int) {
		lo, hi := s.bounds[c], s.bounds[c+1]
		s.chunks[c].run(s.m, s.mlps, batch[lo:hi], s.huber, s.losses[lo:hi])
	})
	scale := 1.0 / float64(len(batch))
	s.sum.reset()
	s.team.For(len(s.tasks), func(i int) {
		t := s.tasks[i]
		mm := s.mlps[t.mlp]
		layer := mm.Layers[t.layer]
		layer.GradW.Zero()
		layer.GradB.Zero()
		for _, c := range s.chunks[:k] {
			mm.AccumulateGrad(t.layer, c.tr[t.mlp])
		}
		layer.GradW.ScaleInPlace(scale)
		layer.GradB.ScaleInPlace(scale)
		if s.clip {
			s.sum.finish(i, s.layerGrads)
		}
	})
	s.norm = math.Sqrt(s.sum.sumSq)
}

// layerGrads extends sumSq over task i's gradients in Params order: the
// weights, then the bias.
func (s *trainStep) layerGrads(sumSq float64, i int) float64 {
	layer := s.mlps[s.tasks[i].mlp].Layers[s.tasks[i].layer]
	return nn.SumSquares(nn.SumSquares(sumSq, layer.GradW.Data), layer.GradB)
}

// normChain is a serial sum over tasks in task order, advanced by whichever
// worker holds it, as far as the finished tasks allow. Holding busy owns
// next and sumSq.
type normChain struct {
	done  []atomic.Bool
	busy  atomic.Bool
	next  int
	sumSq float64
}

func (c *normChain) reset() {
	for i := range c.done {
		c.done[i].Store(false)
	}
	c.next, c.sumSq = 0, 0
}

// finish marks task i finished and, unless another worker holds the chain,
// extends the sum over every finished task in order. A worker that finds
// the chain held leaves its task to the holder, which looks again at the
// next task after letting go: its task's mark comes before the holder lets
// go, so one of them always takes it.
func (c *normChain) finish(i int, add func(sumSq float64, task int) float64) {
	c.done[i].Store(true)
	for c.busy.CompareAndSwap(false, true) {
		for c.next < len(c.done) && c.done[c.next].Load() {
			c.sumSq = add(c.sumSq, c.next)
			c.next++
		}
		next := c.next
		c.busy.Store(false)
		if next == len(c.done) || !c.done[next].Load() {
			return
		}
	}
}

// chunkBounds cuts batch into k contiguous chunks of about equal operator
// count and appends the k+1 boundaries to dst.
func chunkBounds(dst []int, batch []*features.Graph, k int) []int {
	total := 0
	for _, g := range batch {
		total += len(g.OpNodes)
	}
	dst = append(dst, 0)
	i, seen := 0, 0
	for c := 1; c < k; c++ {
		for i < len(batch) && seen*k < total*c {
			seen += len(batch[i].OpNodes)
			i++
		}
		dst = append(dst, i)
	}
	return append(dst, len(batch))
}

// Trace slots of a chunk, in the order of Model.mlps: the encoders of
// opTypeOrder, then the other sub-networks.
const (
	slotEncRes = iota + len(opTypeOrder)
	slotCombineOp
	slotCombineRes
	slotCombineMap
	slotLatHead
	slotTptHead
	numSlots
)

// stepChunk is the scratch of one chunk of a batch: a BatchTrace per
// sub-network and the row bookkeeping that ties them together, the layout
// the compiled engine's forward runs on plus what the backward pass needs.
type stepChunk struct {
	tr [numSlots]*nn.BatchTrace

	opLayout
	perm      []int   // data-flow combiner rows in sample order (graph, then node descending)
	downs     [][]int // per operator: its downstream operators, downstream index descending
	mapW      [][]weightedRes
	lat, latW []float64 // structured read-out: per operator
	total     []float64 // per operator: instances mapped to machines

	vecA, vecB tensor.Vector // h-wide per-graph scratch
}

// run lays out gs's rows, sizes every sub-network's trace and runs the
// forward pass, the losses and the backward pass, leaving every sub-network's
// rows ready for AccumulateGrad.
func (c *stepChunk) run(m *Model, mlps []*nn.MLP, gs []*features.Graph, huberDelta float64, losses []float64) {
	h := m.Cfg.Hidden
	nOps, nRes := c.index(gs)
	c.vecA, c.vecB = ensureVec(c.vecA, h), ensureVec(c.vecB, h)
	for k := range opTypeOrder {
		c.tr[k] = mlps[k].Batch(c.tr[k], c.counts[k])
	}
	c.tr[slotEncRes] = m.EncRes.Batch(c.tr[slotEncRes], nRes)
	c.tr[slotCombineOp] = m.CombineOp.Batch(c.tr[slotCombineOp], nOps)
	c.tr[slotCombineRes] = m.CombineRes.Batch(c.tr[slotCombineRes], nRes)
	c.tr[slotCombineMap] = m.CombineMap.Batch(c.tr[slotCombineMap], nOps)
	latRows := nOps
	if m.Cfg.Readout == ReadoutSink {
		latRows = len(gs)
	}
	c.tr[slotLatHead] = m.LatHead.Batch(c.tr[slotLatHead], latRows)
	c.tr[slotTptHead] = m.TptHead.Batch(c.tr[slotTptHead], len(gs))
	c.forward(m, mlps, gs)
	c.backward(m, mlps, gs, huberDelta, losses)
}

// backward computes each graph's loss into losses and runs the backward pass
// from the read-out heads to the encoders, row for row as the per-graph
// backward does (see reference_test.go), in the order its dependencies need:
// heads, mapping combiner, resource networks, then the data-flow combiner
// deepest level first and the encoders. It leaves every sub-network's
// ∂loss/∂pre rows for AccumulateGrad.
func (c *stepChunk) backward(m *Model, mlps []*nn.MLP, gs []*features.Graph, huberDelta float64, losses []float64) {
	h := m.Cfg.Hidden
	nOps, nRes := c.opBase[len(gs)], c.resBase[len(gs)]
	encRes, combRes := c.tr[slotEncRes], c.tr[slotCombineRes]
	combOp, combMap := c.tr[slotCombineOp], c.tr[slotCombineMap]
	latHead, tptHead := c.tr[slotLatHead], c.tr[slotTptHead]
	latRows := latHead.Out().Rows

	// Losses and the read-out heads' output gradients.
	for b, g := range gs {
		ob, n := c.opBase[b], len(g.OpNodes)
		var logLat float64
		if m.Cfg.Readout == ReadoutSink {
			logLat = latHead.Out().At(b, 0)
		} else {
			lat := c.lat[ob : ob+n]
			for i := range lat {
				lat[i] = latHead.Out().At(ob+i, 0)
			}
			logLat = logSumExp10(lat, c.latW[ob:ob+n])
		}
		var latGrad, tptGrad float64
		losses[b], latGrad, tptGrad = trainLoss(logLat, tptHead.Out().At(b, 0), g, huberDelta)
		tptHead.DOut().Set(b, 0, tptGrad)
		if m.Cfg.Readout == ReadoutSink {
			latHead.DOut().Set(b, 0, latGrad)
		} else {
			for i := 0; i < n; i++ {
				latHead.DOut().Set(ob+i, 0, latGrad*c.latW[ob+i])
			}
		}
	}
	m.TptHead.BackwardRows(tptHead, 0, len(gs), true)
	m.LatHead.BackwardRows(latHead, 0, latRows, true)

	// Read-out backward: the pooled heads' gradient splits into the sink's
	// state and the mean pooling, and every operator's mapped state gathers
	// its share.
	for b, g := range gs {
		ob, n := c.opBase[b], len(g.OpNodes)
		dTpt := tptHead.DIn().Row(b)
		dSink, dMean := c.vecA, c.vecB
		copy(dSink, dTpt[:h])
		copy(dMean, dTpt[h:])
		if m.Cfg.Readout == ReadoutSink {
			dLat := latHead.DIn().Row(b)
			dSink.AddInPlace(dLat[:h])
			dMean.AddInPlace(dLat[h:])
		}
		dMean.ScaleInPlace(1 / float64(n))
		for i := 0; i < n; i++ {
			dState := combMap.DOut().Row(ob + i)
			copy(dState, dMean)
			if m.Cfg.Readout != ReadoutSink {
				dState.AddInPlace(latHead.DIn().Row(ob + i))
			}
			if i == g.SinkIdx {
				dState.AddInPlace(dSink)
			}
		}
	}
	m.CombineMap.BackwardRows(combMap, 0, nOps, true)

	// Mapping backward: the operator half seeds each operator's state
	// gradient, the message half flows to the machines it was weighted from.
	for b, g := range gs {
		ob, rb := c.opBase[b], c.resBase[b]
		for j := range g.ResNodes {
			combRes.DOut().Row(rb + j).Zero()
		}
		for i := range g.OpNodes {
			dIn := combMap.DIn().Row(ob + i)
			combOp.DOut().Row(c.opRow[ob+i]).Zero().AddInPlace(dIn[:h])
			for _, wr := range c.mapW[ob+i] {
				combRes.DOut().Row(rb+wr.resIdx).AxpyInPlace(wr.weight, dIn[h:])
			}
		}
	}

	// Resource pass backward.
	m.CombineRes.BackwardRows(combRes, 0, nRes, true)
	for b, g := range gs {
		rb, r := c.resBase[b], len(g.ResNodes)
		for j := 0; j < r; j++ {
			encRes.DOut().Row(rb + j).Zero()
		}
		for i := 0; i < r; i++ {
			dIn := combRes.DIn().Row(rb + i)
			encRes.DOut().Row(rb + i).AddInPlace(dIn[:h])
			if r > 1 {
				scale := 1 / float64(r-1)
				for j := 0; j < r; j++ {
					if j != i {
						encRes.DOut().Row(rb+j).AxpyInPlace(scale, dIn[h:])
					}
				}
			}
		}
	}
	m.EncRes.BackwardRows(encRes, 0, nRes, false)

	// Data-flow pass backward, deepest level first. A node's state gradient
	// takes its downstream nodes' upstream-sum gradients in the order the
	// per-graph backward pushes them (downstream index descending); every
	// downstream node sits on a deeper level, so they are all back.
	for d := len(c.levels) - 2; d >= 0; d-- {
		lo, hi := c.levels[d], c.levels[d+1]
		for row := lo; row < hi; row++ {
			dH := combOp.DOut().Row(row)
			for _, j := range c.downs[c.rowOp[row]] {
				dH.AddInPlace(combOp.DIn().Row(c.opRow[j])[h:])
			}
		}
		m.CombineOp.BackwardRows(combOp, lo, hi, true)
		for row := lo; row < hi; row++ {
			op := c.rowOp[row]
			copy(c.tr[c.slot[op]].DOut().Row(c.encRow[op]), combOp.DIn().Row(row)[:h])
		}
	}
	for k := range opTypeOrder {
		mlps[k].BackwardRows(c.tr[k], 0, c.counts[k], false)
	}
	combOp.Permute(c.perm)
}

// index lays out gs's rows (opLayout.index) and sizes the backward pass's
// bookkeeping. It returns the operator and machine counts.
func (c *stepChunk) index(gs []*features.Graph) (nOps, nRes int) {
	nOps, nRes = c.opLayout.index(gs)
	c.downs = growIntSlices(c.downs, nOps)
	c.mapW = growWeightSlices(c.mapW, nOps)
	c.lat = growFloats(c.lat, nOps)
	c.latW = growFloats(c.latW, nOps)
	c.total = growFloats(c.total, nOps)
	c.perm = c.perm[:0]
	for b, g := range gs {
		ob := c.opBase[b]
		for i := len(g.OpNodes) - 1; i >= 0; i-- {
			for _, up := range c.ups[ob+i] {
				c.downs[up] = append(c.downs[up], ob+i)
			}
		}
		for i := len(g.OpNodes) - 1; i >= 0; i-- {
			c.perm = append(c.perm, c.opRow[ob+i])
		}
	}
	return nOps, nRes
}

// forward runs the chunk's three message-passing stages and the read-out
// heads, row for row as forwardInto does per graph.
func (c *stepChunk) forward(m *Model, mlps []*nn.MLP, gs []*features.Graph) {
	h := m.Cfg.Hidden
	encRes, combRes := c.tr[slotEncRes], c.tr[slotCombineRes]
	combOp, combMap := c.tr[slotCombineOp], c.tr[slotCombineMap]
	latHead, tptHead := c.tr[slotLatHead], c.tr[slotTptHead]

	// Encoders.
	for b, g := range gs {
		ob, rb := c.opBase[b], c.resBase[b]
		for i, node := range g.OpNodes {
			copy(c.tr[c.slot[ob+i]].In().Row(c.encRow[ob+i]), node.Feat)
		}
		for i, node := range g.ResNodes {
			copy(encRes.In().Row(rb+i), node.Feat)
		}
	}
	for k := range opTypeOrder {
		mlps[k].ForwardRows(c.tr[k], 0, c.counts[k])
	}
	m.EncRes.ForwardRows(encRes, 0, encRes.In().Rows)

	// Resource pass: [own ‖ mean of the other machines' encodings].
	for b, g := range gs {
		rb, r := c.resBase[b], len(g.ResNodes)
		encSum := c.vecA.Zero()
		for i := 0; i < r; i++ {
			encSum.AddInPlace(encRes.Out().Row(rb + i))
		}
		for i := 0; i < r; i++ {
			in := combRes.In().Row(rb + i)
			own := encRes.Out().Row(rb + i)
			copy(in, own)
			others := in[h:].Zero()
			if r > 1 {
				copy(others, encSum)
				others.SubInPlace(own).ScaleInPlace(1 / float64(r-1))
			}
		}
	}
	m.CombineRes.ForwardRows(combRes, 0, combRes.In().Rows)

	// Data-flow pass, one depth level at a time: [own encoding ‖ Σ upstream].
	for d := 0; d+1 < len(c.levels); d++ {
		lo, hi := c.levels[d], c.levels[d+1]
		for row := lo; row < hi; row++ {
			op := c.rowOp[row]
			in := combOp.In().Row(row)
			copy(in, c.tr[c.slot[op]].Out().Row(c.encRow[op]))
			agg := in[h:].Zero()
			for _, up := range c.ups[op] {
				agg.AddInPlace(combOp.Out().Row(c.opRow[up]))
			}
		}
		m.CombineOp.ForwardRows(combOp, lo, hi)
	}

	// Mapping pass: [op state ‖ instance-weighted machine states].
	for b, g := range gs {
		ob, rb := c.opBase[b], c.resBase[b]
		total := c.total[ob : ob+len(g.OpNodes)]
		for i := range total {
			total[i] = 0
		}
		for _, e := range g.Mapping {
			total[e.OpIdx] += float64(e.Instances)
		}
		for i := range g.OpNodes {
			in := combMap.In().Row(ob + i)
			copy(in, combOp.Out().Row(c.opRow[ob+i]))
			msg := in[h:].Zero()
			for _, e := range g.Mapping {
				if e.OpIdx != i {
					continue
				}
				w := float64(e.Instances)
				if total[i] > 0 {
					w /= total[i]
				}
				msg.AxpyInPlace(w, combRes.Out().Row(rb+e.ResIdx))
				c.mapW[ob+i] = append(c.mapW[ob+i], weightedRes{resIdx: e.ResIdx, weight: w})
			}
		}
	}
	m.CombineMap.ForwardRows(combMap, 0, combMap.In().Rows)

	// Read-out: the pooled state [sink ‖ mean of op states] feeds the
	// throughput head (and, in sink mode, the latency head); structured mode
	// runs the latency head on every operator's state.
	for b, g := range gs {
		ob, n := c.opBase[b], len(g.OpNodes)
		meanState := c.vecA.Zero()
		for i := 0; i < n; i++ {
			meanState.AxpyInPlace(1/float64(n), combMap.Out().Row(ob+i))
		}
		pooled := tptHead.In().Row(b)
		copy(pooled, combMap.Out().Row(ob+g.SinkIdx))
		copy(pooled[h:], meanState)
		if m.Cfg.Readout == ReadoutSink {
			copy(latHead.In().Row(b), pooled)
		}
	}
	if m.Cfg.Readout != ReadoutSink {
		copy(latHead.In().Data, combMap.Out().Data)
	}
	m.LatHead.ForwardRows(latHead, 0, latHead.In().Rows)
	m.TptHead.ForwardRows(tptHead, 0, tptHead.In().Rows)
}

// trainLoss is a graph's training loss and output gradients for one forward
// result: Huber in log space on latency and throughput.
func trainLoss(logLat, logTpt float64, g *features.Graph, huberDelta float64) (loss, dLat, dTpt float64) {
	latLoss, latGrad := nn.Huber(logLat, LogTarget(g.LatencyMs), huberDelta)
	tptLoss, tptGrad := nn.Huber(logTpt, LogTarget(g.ThroughputEPS), huberDelta)
	return latLoss + tptLoss, latGrad, tptGrad
}
