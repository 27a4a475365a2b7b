package gnn

import (
	"fmt"

	"zerotune/internal/features"
	"zerotune/internal/queryplan"
)

// opLayout places the rows of a batch of graphs of any topologies in the
// matrices its sub-networks run over: the training step's and the compiled
// engine's one schedule. Operators are numbered batch-wide in graph order,
// then node order (their row in the mapping combiner and the structured
// latency head); machines likewise (their row in both resource networks).
// Each encoder takes the rows of its operator type, and the data-flow
// combiner takes the rows of one depth level at a time — a node's depth is
// its longest path from a source, so every upstream state it sums sits on a
// shallower level, computed before it.
type opLayout struct {
	opBase, resBase []int                 // per graph, and one past the last: first operator / machine number
	slot            []int                 // per operator: encoder slot
	encRow          []int                 // per operator: row in its encoder, sample order (graph, then node descending)
	opRow           []int                 // per operator: row in the data-flow combiner, grouped by depth level
	rowOp           []int                 // per data-flow combiner row: the operator
	depth           []int                 // per operator: topological depth (0 for a node without upstreams)
	levels          []int                 // data-flow combiner rows of depth d: [levels[d], levels[d+1])
	fill            []int                 // per depth level: rows placed so far
	ups             [][]int               // per operator: its upstream operators, in DataEdges order
	counts          [len(opTypeOrder)]int // rows per encoder slot
}

// typeSlot is the encoder slot of an operator type, -1 if there is none.
func typeSlot(t queryplan.OpType) int {
	for k, tt := range opTypeOrder {
		if tt == t {
			return k
		}
	}
	return -1
}

// index numbers gs's operators and machines and lays out their rows. It
// returns the operator and machine counts. OpNodes must be topologically
// ordered, as the per-graph forward also requires.
func (l *opLayout) index(gs []*features.Graph) (nOps, nRes int) {
	l.opBase, l.resBase = l.opBase[:0], l.resBase[:0]
	for _, g := range gs {
		l.opBase = append(l.opBase, nOps)
		l.resBase = append(l.resBase, nRes)
		nOps += len(g.OpNodes)
		nRes += len(g.ResNodes)
	}
	l.opBase = append(l.opBase, nOps)
	l.resBase = append(l.resBase, nRes)

	l.slot = growInts(l.slot, nOps)
	l.encRow = growInts(l.encRow, nOps)
	l.opRow = growInts(l.opRow, nOps)
	l.rowOp = growInts(l.rowOp, nOps)
	l.depth = growInts(l.depth, nOps)
	l.ups = growIntSlices(l.ups, nOps)
	l.counts = [len(opTypeOrder)]int{}

	maxDepth := -1
	for b, g := range gs {
		ob := l.opBase[b]
		for _, e := range g.DataEdges {
			l.ups[ob+e[1]] = append(l.ups[ob+e[1]], ob+e[0])
		}
		for i, node := range g.OpNodes {
			op := ob + i
			d := 0
			for _, up := range l.ups[op] {
				d = max(d, l.depth[up]+1)
			}
			l.depth[op] = d
			maxDepth = max(maxDepth, d)
			if l.slot[op] = typeSlot(node.Type); l.slot[op] < 0 {
				// Train's checkGraph rejects such a graph first; Model.Predict panics alike.
				panic(fmt.Sprintf("gnn: no encoder for node type %v", node.Type))
			}
		}
		for i := len(g.OpNodes) - 1; i >= 0; i-- {
			op := ob + i
			l.encRow[op] = l.counts[l.slot[op]]
			l.counts[l.slot[op]]++
		}
	}

	// Depth levels: count, prefix-sum, then place operators in number order.
	l.levels = growInts(l.levels, maxDepth+2)
	for d := range l.levels {
		l.levels[d] = 0
	}
	for op := 0; op < nOps; op++ {
		l.levels[l.depth[op]+1]++
	}
	for d := 1; d < len(l.levels); d++ {
		l.levels[d] += l.levels[d-1]
	}
	l.fill = growInts(l.fill, maxDepth+1)
	for d := range l.fill {
		l.fill[d] = 0
	}
	for op := 0; op < nOps; op++ {
		d := l.depth[op]
		row := l.levels[d] + l.fill[d]
		l.fill[d]++
		l.opRow[op], l.rowOp[row] = row, op
	}
	return nOps, nRes
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}
