package desim

import (
	"container/heap"
	"errors"
)

// ErrEventBudget reports that a simulation exceeded its event budget before
// reaching its horizon. It exists so callers can tell "the configuration
// diverges" apart from ordinary failures: a run that returns this error has
// produced *partial* results that must not be read as converged statistics.
// `zerotune validate` surfaces it with a diagnostic instead of printing a
// truncated table.
var ErrEventBudget = errors.New("event budget exceeded")

// timeline is the simulator's virtual-clock event queue: a min-heap ordered
// by (time, insertion sequence). The sequence tie-break makes pop order, and
// therefore every run, fully deterministic: equal-time events replay in the
// exact order they were scheduled, independent of heap internals.
//
// Clock monotonicity is enforced: popping an event earlier than the current
// virtual time panics, because a backwards clock silently corrupts every
// latency a simulation measures.
type timeline struct {
	h   tlHeap
	seq int
	now float64
	set bool // now is valid (at least one event popped)
}

type tlItem struct {
	at      float64
	seq     int
	payload any
}

type tlHeap []tlItem

func (h tlHeap) Len() int { return len(h) }
func (h tlHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h tlHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *tlHeap) Push(x any)   { *h = append(*h, x.(tlItem)) }
func (h *tlHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = tlItem{}
	*h = old[:n-1]
	return it
}

// Schedule enqueues payload at virtual time at. Scheduling in the past (before
// the current clock) panics — an event that fires before its cause is a
// simulation bug, not a condition to tolerate.
func (tl *timeline) Schedule(at float64, payload any) {
	if tl.set && at < tl.now {
		panic("desim: event scheduled before the virtual clock")
	}
	tl.seq++
	heap.Push(&tl.h, tlItem{at: at, seq: tl.seq, payload: payload})
}

// Pop removes and returns the earliest event, advancing the virtual clock to
// its time. ok is false when the timeline is empty.
func (tl *timeline) Pop() (at float64, payload any, ok bool) {
	if len(tl.h) == 0 {
		return 0, nil, false
	}
	it := heap.Pop(&tl.h).(tlItem)
	if tl.set && it.at < tl.now {
		panic("desim: virtual clock moved backwards")
	}
	tl.now = it.at
	tl.set = true
	return it.at, it.payload, true
}

// Now returns the current virtual time (the time of the last popped event).
func (tl *timeline) Now() float64 { return tl.now }

// Len returns the number of pending events.
func (tl *timeline) Len() int { return len(tl.h) }
