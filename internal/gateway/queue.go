package gateway

import (
	"container/heap"
	"context"
	"sync"

	"zerotune/internal/serve"
)

// waiter is one parked request. index is the heap position, -1 once granted
// or abandoned (the grant/cancel race is resolved under the queue mutex).
type waiter struct {
	prio  int
	seq   uint64
	index int
	ready chan struct{}
}

// waiterHeap orders waiters by class priority, higher first, then by
// arrival.
type waiterHeap struct{ items []*waiter }

func (h *waiterHeap) Len() int { return len(h.items) }

func (h *waiterHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.prio != b.prio {
		return a.prio > b.prio
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
// forwards run at once, and at most maxWaiting requests park behind them,
// higher class priority first and arrival order within a priority. The queue
// is a counting semaphore whose wait line is a heap — release hands the freed
// slot directly to the best waiter, so a grant is never lost to a scheduling
// race.
type dispatchQueue struct {
	mu         sync.Mutex
	heap       waiterHeap
	active     int
	maxActive  int
	maxWaiting int
	seq        uint64
}

func newDispatchQueue(maxActive, maxWaiting int) *dispatchQueue {
	return &dispatchQueue{maxActive: maxActive, maxWaiting: maxWaiting}
}

// depth reports how many requests are parked.
func (q *dispatchQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.heap.Len()
}

// acquire takes a dispatch slot, parking at priority prio when all slots are
// busy. It returns serve.ErrQueueFull when the wait line is at capacity and
// the context error if the caller gave up while parked.
func (q *dispatchQueue) acquire(ctx context.Context, prio int) error {
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
	w := &waiter{prio: prio, seq: q.seq, ready: make(chan struct{})}
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
