package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"zerotune/internal/fault"
	"zerotune/internal/features"
	"zerotune/internal/gnn"
	"zerotune/internal/obs"
)

// batchItem is one in-flight prediction: the encoded graph, the model
// revision captured at request time, the request context (cancellation +
// trace), and the slot the result lands in — with when the forward pass it
// rode started and ended and how many graphs rode it, so the request can
// account for the flush from its own goroutine. The flush stays zero for an
// item failed before or without a forward pass.
//
// An item can carry one prediction after another: the flush loop hands it
// back with one token on done (finish) and never touches it after that send,
// so a waiter that received the token may submit it again. The deadline timer
// is kept across submissions too.
type batchItem struct {
	ctx   context.Context
	g     *features.Graph
	entry *ModelEntry
	pred  gnn.Prediction
	err   error
	flush flushStamp
	done  chan struct{} // capacity 1: one token per submission
	timer *time.Timer
	// abandoned is set, by the waiter alone, when it stopped waiting before
	// the token came (cancellation, deadline): the flush loop may still read
	// the item and its graph, so neither may be reused.
	abandoned bool
}

func newBatchItem(entry *ModelEntry, g *features.Graph) *batchItem {
	return &batchItem{entry: entry, g: g, done: make(chan struct{}, 1)}
}

// finish hands the item back to its waiter: the flush loop's last touch of it.
func (it *batchItem) finish() { it.done <- struct{}{} }

// flushStamp is one forward pass as its riders see it.
type flushStamp struct {
	start, end time.Time
	graphs     int
}

// FlushReason says why a batch leaves the collector; Hold, that it does not
// yet.
type FlushReason uint8

const (
	Hold        FlushReason = iota // another request is on its way and the window is open
	FlushIdle                      // nothing else is on its way to this batcher
	FlushFull                      // MaxBatch items collected
	FlushWindow                    // announced arrivals did not show up within the window
)

// String is the reason's label on /metrics.
func (r FlushReason) String() string {
	return [...]string{"hold", "idle", "full", "window"}[r]
}

// collectDecision is the batching rule: a batch of queued items flushes when
// it is full or when no other request is on its way (arriving counts requests
// announced to this batcher that have neither enqueued nor left); otherwise it
// is held for the rest of the window, which opened waited ago. A held batch is
// judged again on every enqueue, whenever arriving falls to zero, and when the
// returned duration has passed.
func collectDecision(queued, max, arriving int, waited, window time.Duration) (FlushReason, time.Duration) {
	switch {
	case queued >= max:
		return FlushFull, 0
	case arriving <= 0:
		return FlushIdle, 0
	case waited >= window:
		return FlushWindow, 0
	}
	return Hold, window - waited
}

// FlushCounts tallies flushed batches by the reason they left the collector.
type FlushCounts struct {
	Idle   uint64 `json:"idle"`
	Full   uint64 `json:"full"`
	Window uint64 `json:"window"`
}

// Count adds one batch that left for reason r.
func (c *FlushCounts) Count(r FlushReason) {
	switch r {
	case FlushIdle:
		c.Idle++
	case FlushFull:
		c.Full++
	case FlushWindow:
		c.Window++
	}
}

// Batcher coalesces concurrent predictions into micro-batches, each flushed
// as one call into the compiled engine's fused GEMM (the server's forward is
// one PredictEncodedInto) instead of N independent forward passes. It is work-conserving: the flush loop takes
// whatever has queued and holds the batch open only while another request is
// demonstrably on its way — announced through Announce and not yet enqueued
// or withdrawn — and then for at most the window (collectDecision is the
// rule). A lone request is therefore never delayed, and a caller of the bare
// Predict, which announces nothing, says "nobody else is coming". One flush
// loop runs at a time; arrivals during a flush queue up in the channel and
// form the next batch, so the forward pass and request collection pipeline
// naturally.
type Batcher struct {
	window   time.Duration
	max      int
	deadline time.Duration // max wait for a submitted item's result; 0 = unbounded
	in       chan *batchItem
	quit     chan struct{}
	wg       sync.WaitGroup
	onBatch  func(graphs int) // stats hook, called once per flushed batch

	// arriving counts open Arrivals. wake (capacity 1) is signalled when it
	// falls to zero, so a held batch is released as soon as the last request it
	// was waiting for enqueues or leaves; a token left over from an earlier
	// batch costs the loop one more look at the rule.
	arriving atomic.Int64
	wake     chan struct{}
	flushes  [FlushWindow + 1]atomic.Uint64 // by FlushReason

	// forward runs the batched forward pass for one model group. The server
	// installs a wrapper that threads the gnn.forward injection point (and is
	// where the circuit breaker observes failures); nil falls back to calling
	// the model directly.
	forward func(entry *ModelEntry, graphs []*features.Graph) ([]gnn.Prediction, error)

	// mu guards closed. Predict checks closed under the read lock before
	// enqueueing and Close sets it under the write lock before draining, so
	// no item can enter the queue after the post-shutdown drain has run —
	// the race that used to leave a caller blocked on a never-flushed item.
	mu     sync.RWMutex
	closed bool
}

// NewBatcher starts the flush loop. window bounds how long a batch waits for
// announced arrivals (<= 0: never, flush whatever is queued); max < 1
// defaults to 64; queue bounds the number of submitted-but-unflushed items
// (submissions beyond it fail fast with ErrQueueFull); deadline bounds how
// long Predict waits for its batch to run (<= 0: forever).
func NewBatcher(window time.Duration, max, queue int, deadline time.Duration, onBatch func(int)) *Batcher {
	if max < 1 {
		max = DefaultMaxBatch
	}
	if queue < max { // a bound that could not hold one full batch, unset included
		queue = DefaultQueueFactor * max
	}
	if onBatch == nil {
		onBatch = func(int) {}
	}
	b := &Batcher{window: window, max: max, deadline: deadline,
		in: make(chan *batchItem, queue), quit: make(chan struct{}), onBatch: onBatch,
		wake: make(chan struct{}, 1)}
	b.wg.Add(1)
	go b.loop()
	return b
}

// SetForward replaces the forward-pass function. Call before the first
// Predict; the flush loop reads it without synchronization.
func (b *Batcher) SetForward(f func(*ModelEntry, []*features.Graph) ([]gnn.Prediction, error)) {
	b.forward = f
}

// defaultForward is the plain forward pass used when no override is set.
func defaultForward(entry *ModelEntry, graphs []*features.Graph) ([]gnn.Prediction, error) {
	return entry.ZT.PredictEncoded(graphs), nil
}

// Arrival is one request announced to a Batcher: a promise that an item is on
// its way, which holds a collecting batch open for it (up to the window). It
// ends exactly once — Predict ends it once the item is queued, Withdraw ends
// one that will not enqueue — and every announcement must end, or the batches
// behind it wait out the window for nobody. Not for concurrent use.
type Arrival struct {
	b    *Batcher
	open bool
	// flush is the forward pass a successful Predict rode, for the handler's
	// stage clock.
	flush flushStamp
}

// Announce says a request is on its way to the batcher.
func (b *Batcher) Announce() Arrival {
	b.arriving.Add(1)
	return Arrival{b: b, open: true}
}

// Withdraw ends an arrival that will not enqueue. It is a no-op on one that
// has already ended, so a handler defers it once and every exit is covered.
func (a *Arrival) Withdraw() {
	if !a.open {
		return
	}
	a.open = false
	if a.b.arriving.Add(-1) == 0 {
		// The batch the loop may be holding was waiting for this request.
		select {
		case a.b.wake <- struct{}{}:
		default:
		}
	}
}

// Predict is Batcher.Predict for an announced request.
func (a *Arrival) Predict(ctx context.Context, entry *ModelEntry, g *features.Graph) (gnn.Prediction, error) {
	return a.b.predict(ctx, newBatchItem(entry, g), a)
}

// Arriving is the number of announced requests that have neither enqueued nor
// withdrawn.
func (b *Batcher) Arriving() int64 { return b.arriving.Load() }

// Flushes reports how many batches left the collector for each reason. A
// batch cut short by Close counts under none.
func (b *Batcher) Flushes() FlushCounts {
	return FlushCounts{
		Idle:   b.flushes[FlushIdle].Load(),
		Full:   b.flushes[FlushFull].Load(),
		Window: b.flushes[FlushWindow].Load(),
	}
}

// Predict submits one encoded graph bound to a model revision and blocks
// until its batch has run, the context is cancelled, the deadline passes,
// or the batcher shuts down. The model binding and the context travel with
// the item: a hot swap between submission and flush still evaluates the
// model the request was admitted under, and a request whose context is
// cancelled while queued (client disconnect) is dropped at flush time
// before it joins the forward pass. A full queue fails immediately with
// ErrQueueFull rather than blocking the caller. The caller announces nothing,
// so no batch waits for it and its own batch waits only for others' arrivals.
func (b *Batcher) Predict(ctx context.Context, entry *ModelEntry, g *features.Graph) (gnn.Prediction, error) {
	return b.predict(ctx, newBatchItem(entry, g), nil)
}

// predict submits it, whose entry and graph the caller set, and waits for its
// result. When it returns before the result came — the context ended or the
// deadline passed while the item was queued or in flight — it marks the item
// abandoned.
func (b *Batcher) predict(ctx context.Context, it *batchItem, arrival *Arrival) (gnn.Prediction, error) {
	ctx, span := obs.StartSpan(ctx, "batcher.enqueue")
	defer span.End()
	if err := ctx.Err(); err != nil {
		return gnn.Prediction{}, err
	}
	it.ctx, it.pred, it.err, it.flush = ctx, gnn.Prediction{}, nil, flushStamp{}
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return gnn.Prediction{}, ErrBatcherClosed
	}
	select {
	case b.in <- it:
		b.mu.RUnlock()
	default:
		b.mu.RUnlock()
		return gnn.Prediction{}, ErrQueueFull
	}
	if arrival != nil {
		// Only now, with the item in the channel: the loop reads arriving
		// before it drains the channel, so it never finds zero while this
		// request is in neither place.
		arrival.Withdraw()
	}
	var deadline <-chan time.Time
	if b.deadline > 0 {
		if it.timer == nil {
			it.timer = time.NewTimer(b.deadline)
		} else {
			it.timer.Reset(b.deadline)
		}
		deadline = it.timer.C
	}
	select {
	case <-it.done:
		if it.timer != nil && !it.timer.Stop() {
			// The deadline fired as the result came; its tick may still be
			// on its way to the channel, so this timer is not used again.
			it.timer = nil
		}
		if it.flush.graphs > 0 {
			// ctx still carries the batcher.enqueue span, which parents the
			// inference this request waited on into its own trace.
			obs.RecordSpan(ctx, "gnn.forward", it.flush.start, it.flush.end, "batch", it.flush.graphs)
			if arrival != nil {
				arrival.flush = it.flush
			}
		}
		return it.pred, it.err
	case <-ctx.Done():
		// The queued item is abandoned; the flush loop sees the cancelled
		// context and fails it without spending a forward pass on it.
		it.abandoned = true
		return gnn.Prediction{}, ctx.Err()
	case <-deadline:
		// The item stays queued and will eventually be flushed or failed;
		// nobody reads its result. Returning now is what keeps a wedged
		// batch from hanging the HTTP client.
		it.abandoned = true
		return gnn.Prediction{}, ErrPredictTimeout
	}
}

// Close stops the flush loop, then fails anything still queued. The order
// matters: items are failed only after wg.Wait proves the loop has exited,
// and the closed flag (set under the lock Predict submits under) guarantees
// no later submission can slip into the drained queue and strand its
// caller.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	close(b.quit)
	b.mu.Unlock()
	b.wg.Wait()
	b.failQueued()
}

func (b *Batcher) loop() {
	defer b.wg.Done()
	for {
		var first *batchItem
		select {
		case first = <-b.in:
		case <-b.quit:
			// Queued items are failed by Close after this loop provably
			// exited — draining here would race a straggling enqueue.
			return
		}
		batch, reason := b.collect(first)
		b.flushes[reason].Add(1)
		b.run(batch)
	}
}

// collect gathers one micro-batch starting from the first arrival, asking
// collectDecision after everything that can change its answer: an enqueue,
// arriving falling to zero, the window running out. The timer, the loop's
// only clock, exists only once the batch is actually held. Close releases a
// held batch (reason Hold), so shutdown never waits out a window.
func (b *Batcher) collect(first *batchItem) ([]*batchItem, FlushReason) {
	batch := []*batchItem{first}
	var (
		timer  *time.Timer
		waited time.Duration // zero until the timer says the window has passed
	)
	for {
		// arriving is read before the channel is drained: a request ends its
		// arrival only after its item is in the channel, so a zero here means
		// every request announced so far is in the batch or in the drain below.
		arriving := int(b.arriving.Load())
	drain:
		for len(batch) < b.max {
			select {
			case it := <-b.in:
				batch = append(batch, it)
			default:
				break drain
			}
		}
		reason, hold := collectDecision(len(batch), b.max, arriving, waited, b.window)
		if reason != Hold {
			return batch, reason
		}
		if timer == nil {
			timer = time.NewTimer(hold)
			defer timer.Stop()
		}
		select {
		case it := <-b.in:
			batch = append(batch, it)
		case <-b.wake:
		case <-timer.C:
			waited = b.window
		case <-b.quit:
			return batch, Hold
		}
	}
}

// run evaluates one batch. Requests cancelled while they were queued are
// failed first — a disconnected client's prediction never joins the
// forward pass. The survivors are grouped by their bound model revision
// (normally a single group; briefly two around a hot swap) and each group
// is one PredictEncodedInto call on the fused GEMM.
func (b *Batcher) run(batch []*batchItem) {
	live := batch[:0]
	for _, it := range batch {
		if it.ctx != nil && it.ctx.Err() != nil {
			it.err = it.ctx.Err()
			it.finish()
			continue
		}
		live = append(live, it)
	}
	if len(live) == 0 {
		return
	}
	if err := b.startFlush(len(live)); err != nil {
		for _, it := range live {
			it.err = err
			it.finish()
		}
		return
	}
	groups := make(map[*ModelEntry][]*batchItem, 1)
	for _, it := range live {
		groups[it.entry] = append(groups[it.entry], it)
	}
	for entry, items := range groups {
		b.runGroup(entry, items)
	}
}

// startFlush passes the batcher.flush injection point and counts the batch.
// A panic there (the point's panic mode) fails the batch instead of killing
// the flush loop and stranding every future request.
func (b *Batcher) startFlush(graphs int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: batch flush panic: %v", r)
		}
	}()
	if err := fault.Inject(fault.BatcherFlush); err != nil {
		return err
	}
	b.onBatch(graphs)
	return nil
}

// errNonFinite fails a prediction whose estimate is NaN or infinite: JSON has
// no such number, and an answer the model cannot give is a forward failure.
var errNonFinite = errors.New("serve: model produced a non-finite estimate")

func (b *Batcher) runGroup(entry *ModelEntry, items []*batchItem) {
	// items[:handed] have been handed back and are no longer the loop's to
	// touch. A validated model should never panic, but a forward-pass crash
	// must fail the rest of the batch, not the server.
	handed := 0
	defer func() {
		if r := recover(); r != nil {
			for _, it := range items[handed:] {
				it.err = fmt.Errorf("serve: inference panic: %v", r)
				it.finish()
			}
		}
	}()
	graphs := make([]*features.Graph, len(items))
	for i, it := range items {
		graphs[i] = it.g
	}
	fwd := b.forward
	if fwd == nil {
		fwd = defaultForward
	}
	flush := flushStamp{start: time.Now(), graphs: len(items)}
	preds, ferr := fwd(entry, graphs)
	flush.end = time.Now()
	for i, it := range items {
		it.flush = flush
		switch {
		case ferr != nil:
			it.err = ferr
		case !finitePrediction(preds[i]):
			it.err = errNonFinite
		default:
			it.pred = preds[i]
		}
		it.finish()
		handed = i + 1
	}
}

func finitePrediction(p gnn.Prediction) bool {
	return !math.IsNaN(p.LatencyMs) && !math.IsInf(p.LatencyMs, 0) &&
		!math.IsNaN(p.ThroughputEPS) && !math.IsInf(p.ThroughputEPS, 0)
}

// failQueued drains anything still in the queue at shutdown.
func (b *Batcher) failQueued() {
	for {
		select {
		case it := <-b.in:
			it.err = ErrBatcherClosed
			it.finish()
		default:
			return
		}
	}
}
