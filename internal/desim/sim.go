package desim

import (
	"fmt"
	"math"
	"sort"

	"zerotune/internal/cluster"
	"zerotune/internal/queryplan"
	"zerotune/internal/simulator"
)

// saturationFloor is the minimum sustained queue occupancy treated as
// backpressure; growth below it is noise.
const saturationFloor = 100

// group is one chain group: operators fused onto one logical thread per
// instance.
type group struct {
	ops       []int // member positions in topological order
	instances []*instance
	rr        []int // round-robin counter per upstream position feeding the group
}

// instance is one parallel instance of a chain group.
type instance struct {
	queue    []*work
	busy     bool
	maxQueue int
}

// work is one unit a chain instance processes: a tuple entering the group
// at a member position.
type work struct {
	tup   tuple
	opPos int // index into group.ops where processing starts
	side  int // join side, when entering at a join
}

// opState holds what one operator instance carries between tuples: the
// buffered contents of a window, and the fractional-emission accumulators
// (a filter uses emitAcc alone, for its selectivity).
type opState struct {
	births []float64 // buffered tuple birth times (non-join)
	// join buffers per side: birth and insertion times for eviction
	joinBirths [2][]float64
	joinTimes  [2][]float64
	// accumulators for fractional emissions
	emitAcc  float64
	matchAcc float64
	inserts  int // count-window insert counter
}

// outEdge is one data edge leaving an operator, with everything forward needs
// to deliver a tuple across it.
type outEdge struct {
	to      int     // downstream position
	side    int     // join input side at the downstream operator
	delayMs float64 // transfer delay; zero within a chain group
}

// sim is one run's state. Everything per operator is indexed by the
// operator's topological position in t, everything per chain group by the
// group's number (Topology.ChainGroups numbers them densely).
type sim struct {
	t    *queryplan.Topology
	opts Options

	groups  []group
	opGroup []int        // position → chain group
	opPos   []int        // position → index within its group's ops
	out     [][]outEdge  // position → outgoing edges, in query edge order
	svcMs   [][]float64  // position → per-instance service time of one tuple
	state   [][]*opState // position → per-instance state (filters and windows)

	tl        timeline // virtual clock in milliseconds
	nowMs     float64
	processed int

	latencies []float64
	ingested  int
	endMs     float64
	samples   []int // total queue occupancy at periodic sample points
}

// newSim lays out p — a placed plan over the analysed query t — on c.
func newSim(t *queryplan.Topology, p *queryplan.PQP, c *cluster.Cluster, cm *simulator.CostModel, opts Options) *sim {
	n := len(t.Ops)
	deg := t.Degrees(p, make([]int, 0, n))
	s := &sim{
		t: t, opts: opts,
		opGroup: t.ChainGroups(p, deg, make([]int, 0, n)),
		opPos:   make([]int, n),
		out:     make([][]outEdge, n),
		svcMs:   make([][]float64, n),
		state:   make([][]*opState, n),
		endMs:   opts.WarmupMs + opts.DurationMs,
	}
	for pos, g := range s.opGroup {
		if g == len(s.groups) {
			grp := group{rr: make([]int, n), instances: make([]*instance, deg[pos])}
			for i := range grp.instances {
				grp.instances[i] = &instance{}
			}
			s.groups = append(s.groups, grp)
		}
		s.opPos[pos] = len(s.groups[g].ops)
		s.groups[g].ops = append(s.groups[g].ops, pos)
	}

	// Service times use the analytical engine's amortization factors, for
	// parity with it; per-operator state; slide timers of time windows.
	rates := simulator.EstimateSteadyRates(t)
	for pos, op := range t.Ops {
		placed := p.Placement[op.ID]
		s.svcMs[pos] = make([]float64, deg[pos])
		for i := range s.svcMs[pos] {
			freq := 1.0
			if node := c.Node(placed[i]); node != nil {
				freq = node.Type.FreqGHz
			}
			s.svcMs[pos][i] = cm.ServiceTimeUs(op, freq, rates[pos].OutPerIn, rates[pos].ProbeCandidates) / 1000
		}
		if !op.IsWindowed() && op.Type != queryplan.OpFilter {
			continue
		}
		s.state[pos] = make([]*opState, deg[pos])
		for i := range s.state[pos] {
			s.state[pos][i] = &opState{}
		}
		// Time windows emit on slide timers per instance.
		if op.IsWindowed() && op.WindowPolicy == queryplan.PolicyTime {
			for i := 0; i < deg[pos]; i++ {
				s.schedule(&event{atMs: slideOf(op), kind: evWindowTimer, op: pos, inst: i})
			}
		}
	}
	for _, e := range t.Edges {
		from, to := e[0], e[1]
		edge := outEdge{to: to}
		if ins := t.In[to]; len(ins) == 2 && ins[1].From == from {
			edge.side = 1
		}
		if s.opGroup[from] != s.opGroup[to] {
			edge.delayMs = edgeDelayMs(t.Ops[from], p.Placement[t.Ops[from].ID], p.Placement[t.Ops[to].ID], c, cm)
		}
		s.out[from] = append(s.out[from], edge)
	}
	// Source emissions, sources in declaration order: each source instance
	// emits at interval degree/rate, staggered across instances. All
	// emissions over the horizon are enqueued up front (Run caps total
	// events).
	for k, src := range t.Query.Ops {
		if src.Type != queryplan.OpSource {
			continue
		}
		pos := t.Decl[k]
		intervalMs := 1000 * float64(deg[pos]) / src.EventRate
		for i := 0; i < deg[pos]; i++ {
			start := intervalMs * float64(i) / float64(deg[pos])
			for at := start; at <= s.endMs; at += intervalMs {
				s.schedule(&event{
					atMs: at, kind: evArrival,
					op: pos, inst: i,
					tup: tuple{birthMs: at},
				})
			}
		}
	}
	// Saturation sampling: 20 occupancy probes across the horizon.
	for i := 1; i <= 20; i++ {
		s.schedule(&event{atMs: s.endMs * float64(i) / 20, kind: evSample})
	}
	return s
}

// slideOf returns how far a window operator's window advances per emission:
// its own length unless it slides.
func slideOf(op *queryplan.Operator) float64 {
	if op.WindowType == queryplan.WindowSliding && op.SlidingLength > 0 {
		return op.SlidingLength
	}
	return op.WindowLength
}

func (s *sim) schedule(e *event) {
	s.tl.Schedule(e.atMs, e)
}

// run drains the event loop. A budget abort returns the metrics accumulated
// so far alongside an error wrapping ErrEventBudget — partial by definition.
func (s *sim) run() (*Metrics, error) {
	for s.tl.Len() > 0 {
		_, payload, _ := s.tl.Pop()
		e := payload.(*event)
		s.nowMs = e.atMs
		if s.nowMs > s.endMs+1 {
			break
		}
		s.processed++
		if s.processed > s.opts.MaxEvents {
			return s.metrics(), fmt.Errorf("desim: %w (%d events); configuration likely diverging", ErrEventBudget, s.opts.MaxEvents)
		}
		switch e.kind {
		case evArrival:
			s.onArrival(e)
		case evServiceDone:
			s.onServiceDone(e)
		case evWindowTimer:
			s.onWindowTimer(e)
		case evSample:
			total := 0
			for g := range s.groups {
				for _, in := range s.groups[g].instances {
					total += len(in.queue)
				}
			}
			s.samples = append(s.samples, total)
		}
	}
	return s.metrics(), nil
}

// onArrival enqueues a work item at the target instance and starts service
// if idle.
func (s *sim) onArrival(e *event) {
	gid := s.opGroup[e.op]
	inst := s.groups[gid].instances[e.inst]
	pos, side := s.opPos[e.op], e.side
	if side == emissionSide {
		// A time-window emission resumes after the window operator.
		pos, side = pos+1, 0
	}
	w := &work{tup: e.tup, opPos: pos, side: side}
	inst.queue = append(inst.queue, w)
	if len(inst.queue) > inst.maxQueue {
		inst.maxQueue = len(inst.queue)
	}
	if s.t.Ops[e.op].Type == queryplan.OpSource && e.tup.birthMs >= s.opts.WarmupMs {
		s.ingested++
	}
	if !inst.busy {
		s.startService(gid, e.inst)
	}
}

// startService pops the next work item and processes it through the chain.
func (s *sim) startService(gid, instIdx int) {
	inst := s.groups[gid].instances[instIdx]
	if len(inst.queue) == 0 {
		inst.busy = false
		return
	}
	w := inst.queue[0]
	inst.queue = inst.queue[1:]
	inst.busy = true
	durationMs := s.process(gid, instIdx, w)
	s.schedule(&event{atMs: s.nowMs + durationMs, kind: evServiceDone, op: gid, inst: instIdx})
}

func (s *sim) onServiceDone(e *event) {
	s.startService(e.op, e.inst)
}

// process walks the work item through the chain members from its entry
// position, consuming service time, dropping at filters, buffering at
// windows and emitting downstream. Returns the total service duration.
func (s *sim) process(gid, instIdx int, w *work) float64 {
	grp := &s.groups[gid]
	var totalMs float64
	type flight struct {
		tup  tuple
		pos  int
		side int
		off  float64 // service offset when this tuple reached pos
	}
	pending := []flight{{tup: w.tup, pos: w.opPos, side: w.side}}
	for len(pending) > 0 {
		f := pending[0]
		pending = pending[1:]
		pos, cur, off := f.pos, f.tup, f.off
		exited := true // false when dropped, buffered or delivered
	walk:
		for pos < len(grp.ops) {
			opAt := grp.ops[pos]
			op := s.t.Ops[opAt]
			off += s.svcMs[opAt][instIdx]
			if off > totalMs {
				totalMs = off
			}
			switch op.Type {
			case queryplan.OpFilter:
				acc := s.state[opAt][instIdx]
				acc.emitAcc += op.Selectivity
				if acc.emitAcc < 1 {
					exited = false
					break walk // dropped
				}
				acc.emitAcc -= 1
			case queryplan.OpAggregate:
				for _, o := range s.insertAggregate(opAt, instIdx, cur) {
					pending = append(pending, flight{tup: o, pos: pos + 1, off: off})
				}
				exited = false
				break walk // buffered; emissions continue separately
			case queryplan.OpJoin:
				for _, o := range s.insertJoin(opAt, instIdx, cur, f.side) {
					pending = append(pending, flight{tup: o, pos: pos + 1, off: off})
				}
				exited = false
				break walk
			case queryplan.OpSink:
				if s.nowMs+off >= s.opts.WarmupMs && s.nowMs+off <= s.endMs {
					s.latencies = append(s.latencies, s.nowMs+off-cur.birthMs)
				}
				exited = false
				break walk // delivered
			}
			pos++
		}
		if exited {
			s.forward(grp.ops[len(grp.ops)-1], cur, s.nowMs+off)
		}
	}
	return totalMs
}

// forward delivers a tuple leaving the chain's tail to every downstream
// group, round-robin over the group's instances.
func (s *sim) forward(tail int, tup tuple, atMs float64) {
	for _, e := range s.out[tail] {
		grp := &s.groups[s.opGroup[e.to]]
		target := grp.rr[tail] % len(grp.instances)
		grp.rr[tail]++
		s.schedule(&event{
			atMs: atMs + e.delayMs, kind: evArrival,
			op: e.to, inst: target, tup: tup, side: e.side,
		})
	}
}

// metrics aggregates the run.
func (s *sim) metrics() *Metrics {
	m := &Metrics{SinkDeliveries: len(s.latencies)}
	maxQ := 0
	for g := range s.groups {
		for _, in := range s.groups[g].instances {
			if in.maxQueue > maxQ {
				maxQ = in.maxQueue
			}
		}
	}
	m.MaxQueueLen = maxQ
	m.Saturated = s.saturatedTrend()
	m.IngestedEPS = float64(s.ingested) / (s.opts.DurationMs / 1000)
	if len(s.latencies) > 0 {
		var sum float64
		for _, l := range s.latencies {
			sum += l
		}
		m.AvgLatencyMs = sum / float64(len(s.latencies))
		sorted := append([]float64{}, s.latencies...)
		sort.Float64s(sorted)
		m.P95LatencyMs = sorted[int(0.95*float64(len(sorted)-1))]
	}
	return m
}

// edgeDelayMs mirrors the analytical edge latency with buffering disabled,
// for an edge out of operator up between instances placed on upNodes and
// downNodes: serialization plus the network hop weighted by the fraction of
// instance pairs on different machines.
func edgeDelayMs(up *queryplan.Operator, upNodes, downNodes []string, c *cluster.Cluster, cm *simulator.CostModel) float64 {
	bytes := simulator.TupleBytes(up.TupleWidthOut, up.TupleDataType)
	serdeMs := bytes * cm.SerdePerByte / 2 / 1000
	remote := 0
	for _, u := range upNodes {
		for _, d := range downNodes {
			if u != d {
				remote++
			}
		}
	}
	frac := float64(remote) / float64(len(upNodes)*len(downNodes))
	linkBytesPerMs := c.LinkGbps * 1e9 / 8 / 1000
	return serdeMs + float64(frac*(cm.HopLatencyMs+bytes/linkBytesPerMs)) // never fused (arm64 would)
}

// insertAggregate buffers a tuple into the window and returns emissions
// (count-based windows emit inline; time windows emit on timers).
func (s *sim) insertAggregate(pos, instIdx int, tup tuple) []tuple {
	op := s.t.Ops[pos]
	ws := s.state[pos][instIdx]
	ws.births = append(ws.births, tup.birthMs)
	if op.WindowPolicy != queryplan.PolicyCount {
		return nil
	}
	ws.inserts++
	length := int(op.WindowLength)
	if ws.inserts%int(slideOf(op)) != 0 || len(ws.births) < 1 {
		return nil
	}
	// Window contents: the last `length` buffered tuples.
	start := len(ws.births) - length
	if start < 0 {
		start = 0
	}
	contents := ws.births[start:]
	outs := s.emitGroups(op, ws, contents)
	if op.WindowType == queryplan.WindowTumbling {
		ws.births = ws.births[:0]
	} else if len(ws.births) > 4*length {
		// Bound sliding-window memory.
		ws.births = append([]float64{}, ws.births[len(ws.births)-length:]...)
	}
	return outs
}

// onWindowTimer fires a time-window emission for one instance.
func (s *sim) onWindowTimer(e *event) {
	op := s.t.Ops[e.op]
	slide := slideOf(op)
	// Reschedule the next tick first.
	if s.nowMs+slide <= s.endMs {
		s.schedule(&event{atMs: s.nowMs + slide, kind: evWindowTimer, op: e.op, inst: e.inst})
	}
	ws := s.state[e.op][e.inst]
	if op.Type == queryplan.OpJoin {
		for _, o := range s.fireJoinWindow(op, ws) {
			s.schedule(&event{atMs: s.nowMs, kind: evArrival, op: e.op, inst: e.inst, tup: o, side: emissionSide})
		}
		return
	}
	// Evict tuples outside the horizon, then emit.
	horizonStart := s.nowMs - op.WindowLength
	kept := ws.births[:0]
	var contents []float64
	for _, b := range ws.births {
		if b >= horizonStart {
			contents = append(contents, b)
		}
	}
	if op.WindowType == queryplan.WindowTumbling {
		ws.births = kept // tumbling: clear after emission
	} else {
		ws.births = append(kept, contents...)
	}
	if len(contents) == 0 {
		return
	}
	outs := s.emitGroups(op, ws, contents)
	// Emissions enter the instance's queue as fresh work starting after
	// the window operator.
	for _, o := range outs {
		s.schedule(&event{atMs: s.nowMs, kind: evArrival, op: e.op, inst: e.inst, tup: o, side: emissionSide})
	}
}

// emissionSide marks arrivals that are window emissions resuming mid-chain.
const emissionSide = -1

// emitGroups produces the aggregate output tuples for one window emission.
func (s *sim) emitGroups(op *queryplan.Operator, ws *opState, contents []float64) []tuple {
	var mean float64
	for _, b := range contents {
		mean += b
	}
	mean /= float64(len(contents))
	groups := math.Max(1, math.Min(op.Selectivity*float64(len(contents)), float64(len(contents))))
	ws.emitAcc += groups
	n := int(ws.emitAcc)
	ws.emitAcc -= float64(n)
	outs := make([]tuple, n)
	for i := range outs {
		outs[i] = tuple{birthMs: mean}
	}
	return outs
}

// insertJoin buffers a tuple on its side. Window joins emit at window
// close (the semantics the analytical model's window-wait term describes):
// time-policy joins emit on their slide timers, count-policy joins when
// the combined insert counter crosses the slide boundary.
func (s *sim) insertJoin(pos, instIdx int, tup tuple, side int) []tuple {
	op := s.t.Ops[pos]
	ws := s.state[pos][instIdx]
	if side != 0 && side != 1 {
		side = 0
	}
	ws.joinBirths[side] = append(ws.joinBirths[side], tup.birthMs)
	ws.joinTimes[side] = append(ws.joinTimes[side], s.nowMs)
	if op.WindowPolicy != queryplan.PolicyCount {
		return nil // time windows emit on timers
	}
	// Keep the last L tuples per side.
	l := int(op.WindowLength)
	for sd := 0; sd < 2; sd++ {
		if len(ws.joinBirths[sd]) > l {
			ws.joinBirths[sd] = ws.joinBirths[sd][len(ws.joinBirths[sd])-l:]
			ws.joinTimes[sd] = ws.joinTimes[sd][len(ws.joinTimes[sd])-l:]
		}
	}
	ws.inserts++
	if ws.inserts%int(slideOf(op)) != 0 {
		return nil
	}
	outs := s.emitJoinWindow(op, ws)
	if op.WindowType == queryplan.WindowTumbling {
		ws.joinBirths[0], ws.joinBirths[1] = nil, nil
		ws.joinTimes[0], ws.joinTimes[1] = nil, nil
	}
	return outs
}

// emitJoinWindow produces the expected matches of the current window pair:
// sel · |W1| · |W2| results whose birth is the mean participant birth.
func (s *sim) emitJoinWindow(op *queryplan.Operator, ws *opState) []tuple {
	n1, n2 := len(ws.joinBirths[0]), len(ws.joinBirths[1])
	if n1 == 0 || n2 == 0 {
		return nil
	}
	var mean float64
	for sd := 0; sd < 2; sd++ {
		for _, b := range ws.joinBirths[sd] {
			mean += b
		}
	}
	mean /= float64(n1 + n2)
	ws.matchAcc += float64(op.Selectivity * float64(n1) * float64(n2)) // never fused (arm64 would)
	n := int(ws.matchAcc)
	ws.matchAcc -= float64(n)
	outs := make([]tuple, n)
	for i := range outs {
		outs[i] = tuple{birthMs: mean}
	}
	return outs
}

// fireJoinWindow emits the matches of a time-policy join window and evicts
// tuples outside the horizon (tumbling windows clear entirely).
func (s *sim) fireJoinWindow(op *queryplan.Operator, ws *opState) []tuple {
	outs := s.emitJoinWindow(op, ws)
	if op.WindowType == queryplan.WindowTumbling {
		ws.joinBirths[0], ws.joinBirths[1] = nil, nil
		ws.joinTimes[0], ws.joinTimes[1] = nil, nil
		return outs
	}
	horizonStart := s.nowMs - op.WindowLength
	for sd := 0; sd < 2; sd++ {
		keepB, keepT := ws.joinBirths[sd][:0], ws.joinTimes[sd][:0]
		for i, ts := range ws.joinTimes[sd] {
			if ts >= horizonStart {
				keepB = append(keepB, ws.joinBirths[sd][i])
				keepT = append(keepT, ts)
			}
		}
		ws.joinBirths[sd], ws.joinTimes[sd] = keepB, keepT
	}
	return outs
}

// saturatedTrend reports whether total queue occupancy grew over the run:
// the average of the last quarter of samples must exceed both the floor
// and twice the average of the first quarter (after warm-up). Linear queue
// growth under overload trips this; transient window-emission bursts drain
// between samples and do not.
func (s *sim) saturatedTrend() bool {
	n := len(s.samples)
	if n < 8 {
		return false
	}
	quarter := n / 4
	var early, late float64
	for _, v := range s.samples[quarter : 2*quarter] {
		early += float64(v)
	}
	early /= float64(quarter)
	for _, v := range s.samples[n-quarter:] {
		late += float64(v)
	}
	late /= float64(quarter)
	return late > saturationFloor && late > 2*early
}
