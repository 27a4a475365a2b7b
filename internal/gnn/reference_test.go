package gnn

import (
	"zerotune/internal/features"
	"zerotune/internal/tensor"
)

// The per-graph reference of Train's batched step, kept for the tests that
// hold the step to it bit for bit.

// backward propagates dLogLat and dLogTpt (∂loss/∂head outputs) through one
// graph's traced pass, accumulating parameter gradients with nn.MLP.Backward
// one sample at a time: the definition trainStep's batched backward
// reproduces row for row.
func (m *Model) backward(tr *trace, dLogLat, dLogTpt float64) {
	h := m.Cfg.Hidden
	g := tr.g
	n := len(g.OpNodes)
	r := len(g.ResNodes)

	dHOp, dHRes := zeroedVecs(n, h), zeroedVecs(r, h)

	// Pooled-head backward: gradients split into the sink's state and the
	// mean pooling over all per-operator states.
	dTptIn := m.TptHead.Backward(tr.tptTrace, tensor.Vector{dLogTpt})
	dSinkState, dMeanState := tensor.NewVector(h), tensor.NewVector(h)
	copy(dSinkState, dTptIn[:h])
	copy(dMeanState, dTptIn[h:])
	if m.Cfg.Readout == ReadoutSink {
		dLatIn := m.LatHead.Backward(tr.latTrace, tensor.Vector{dLogLat})
		dSinkState.AddInPlace(dLatIn[:h])
		dMeanState.AddInPlace(dLatIn[h:])
	}
	dMeanState.ScaleInPlace(1 / float64(n))

	dState := tensor.NewVector(h)
	for i := 0; i < n; i++ {
		copy(dState, dMeanState)
		if m.Cfg.Readout != ReadoutSink {
			// Structured latency read-out: ∂logLat/∂o_i are the cached
			// softmax weights of the per-operator contributions.
			dState.AddInPlace(m.LatHead.Backward(tr.latTraces[i], tensor.Vector{dLogLat * tr.latW[i]}))
		}
		if i == g.SinkIdx {
			dState.AddInPlace(dSinkState)
		}

		// Mapping pass backward for operator i.
		dIn := m.CombineMap.Backward(tr.combineMap[i], dState)
		dHOp[i].AddInPlace(dIn[:h])
		dMsg := tensor.Vector(dIn[h:])
		for _, wr := range tr.mapWeights[i] {
			dHRes[wr.resIdx].AxpyInPlace(wr.weight, dMsg)
		}
	}

	// Resource pass backward.
	dEncRes := zeroedVecs(r, h)
	for i := 0; i < r; i++ {
		dIn := m.CombineRes.Backward(tr.combineRes[i], dHRes[i])
		dEncRes[i].AddInPlace(dIn[:h])
		dOthers := tensor.Vector(dIn[h:])
		if r > 1 {
			scale := 1 / float64(r-1)
			for j := 0; j < r; j++ {
				if j != i {
					dEncRes[j].AxpyInPlace(scale, dOthers)
				}
			}
		}
	}
	for i := 0; i < r; i++ {
		m.EncRes.Backward(tr.encRes[i], dEncRes[i])
	}

	// Data-flow pass backward, reverse topological order.
	for i := n - 1; i >= 0; i-- {
		dIn := m.CombineOp.Backward(tr.combineOp[i], dHOp[i])
		dEnc := tensor.Vector(dIn[:h])
		dAgg := tensor.Vector(dIn[h:])
		for _, up := range tr.upstreams[i] {
			dHOp[up].AddInPlace(dAgg)
		}
		m.EncOp[g.OpNodes[i].Type].Backward(tr.encOp[i], dEnc)
	}
}

// zeroedVecs returns n zero vectors of length dim.
func zeroedVecs(n, dim int) []tensor.Vector {
	vs := make([]tensor.Vector, n)
	for i := range vs {
		vs[i] = tensor.NewVector(dim)
	}
	return vs
}

// serialStep is the reference of trainStep.run: per graph, forwardInto and
// backward into one zeroed gradient buffer, graph after graph in batch order,
// then the batch mean. It returns the per-graph losses.
func serialStep(m *Model, batch []*features.Graph, huberDelta float64) []float64 {
	params := m.Params()
	for _, p := range params {
		clear(p.Grad)
	}
	losses := make([]float64, len(batch))
	tr := &trace{}
	for b, g := range batch {
		pred := m.forwardInto(tr, g)
		var dLat, dTpt float64
		losses[b], dLat, dTpt = trainLoss(pred.LogLatency, pred.LogThroughput, g, huberDelta)
		m.backward(tr, dLat, dTpt)
	}
	scale := 1.0 / float64(len(batch))
	for _, p := range params {
		for j := range p.Grad {
			p.Grad[j] *= scale
		}
	}
	return losses
}
