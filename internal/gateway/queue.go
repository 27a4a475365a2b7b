package gateway

import (
	"container/heap"
	"context"
	"fmt"
	"sync"

	"zerotune/internal/serve"
)

// QueuePolicy names the ordering discipline of the gateway-side dispatch
// queue that feeds the replicas.
type QueuePolicy string

const (
	// QueueFCFS serves requests strictly in arrival order.
	QueueFCFS QueuePolicy = "fcfs"
	// QueuePriority serves higher-priority SLO classes first, arrival
	// order within a class.
	QueuePriority QueuePolicy = "priority"
	// QueueSJF serves the cheapest request first, using the request body
	// size as the forward-cost estimate: the GNN forward pass scales with
	// plan size, and plan size is what the body encodes. Classic
	// shortest-job-first — minimizes mean wait at the cost of tail latency
	// for the largest plans (which the per-request deadline still bounds).
	QueueSJF QueuePolicy = "sjf"
)

// queuePolicy validates a policy name (Options.WithDefaults has named the
// default by now).
func queuePolicy(p QueuePolicy) error {
	switch p {
	case QueueFCFS, QueuePriority, QueueSJF:
		return nil
	default:
		return fmt.Errorf("gateway: unknown queue policy %q", p)
	}
}

// waiter is one parked request. index is the heap position, -1 once granted
// or abandoned (the grant/cancel race is resolved under the queue mutex).
type waiter struct {
	prio  int
	cost  int
	seq   uint64
	index int
	ready chan struct{}
}

// waiterHeap orders waiters by the queue policy.
type waiterHeap struct {
	policy QueuePolicy
	items  []*waiter
}

func (h *waiterHeap) Len() int { return len(h.items) }

func (h *waiterHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	switch h.policy {
	case QueuePriority:
		if a.prio != b.prio {
			return a.prio > b.prio
		}
	case QueueSJF:
		if a.cost != b.cost {
			return a.cost < b.cost
		}
	}
	return a.seq < b.seq
}

func (h *waiterHeap) Swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].index = i
	h.items[j].index = j
}

func (h *waiterHeap) Push(x any) {
	w := x.(*waiter)
	w.index = len(h.items)
	h.items = append(h.items, w)
}

func (h *waiterHeap) Pop() any {
	n := len(h.items) - 1
	w := h.items[n]
	h.items[n] = nil
	h.items = h.items[:n]
	w.index = -1
	return w
}

// dispatchQueue bounds gateway→replica concurrency: at most maxActive
// forwards run at once, and at most maxWaiting requests park behind them in
// policy order. The queue is a counting semaphore whose wait line is a heap
// — release hands the freed slot directly to the best waiter, so a grant is
// never lost to a scheduling race.
type dispatchQueue struct {
	mu         sync.Mutex
	heap       waiterHeap
	active     int
	maxActive  int
	maxWaiting int
	seq        uint64
}

func newDispatchQueue(policy QueuePolicy, maxActive, maxWaiting int) *dispatchQueue {
	return &dispatchQueue{
		heap:       waiterHeap{policy: policy},
		maxActive:  maxActive,
		maxWaiting: maxWaiting,
	}
}

// depth reports how many requests are parked.
func (q *dispatchQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.heap.Len()
}

// acquire takes a dispatch slot, parking in policy order when all slots are
// busy. It returns serve.ErrQueueFull when the wait line is at capacity and
// the context error if the caller gave up while parked.
func (q *dispatchQueue) acquire(ctx context.Context, prio, cost int) error {
	q.mu.Lock()
	if q.active < q.maxActive {
		q.active++
		q.mu.Unlock()
		return nil
	}
	if q.heap.Len() >= q.maxWaiting {
		q.mu.Unlock()
		return serve.ErrQueueFull
	}
	q.seq++
	w := &waiter{prio: prio, cost: cost, seq: q.seq, ready: make(chan struct{})}
	heap.Push(&q.heap, w)
	q.mu.Unlock()

	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
		q.mu.Lock()
		if w.index >= 0 {
			heap.Remove(&q.heap, w.index)
			q.mu.Unlock()
			return ctx.Err()
		}
		q.mu.Unlock()
		// The grant won the race: we own a slot we will never use, so pass
		// it on before reporting the cancellation.
		q.release()
		return ctx.Err()
	}
}

// release returns a slot: the best waiter inherits it directly, otherwise
// the active count drops.
func (q *dispatchQueue) release() {
	q.mu.Lock()
	if q.heap.Len() > 0 {
		w := heap.Pop(&q.heap).(*waiter)
		q.mu.Unlock()
		close(w.ready)
		return
	}
	q.active--
	q.mu.Unlock()
}
