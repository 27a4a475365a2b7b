// Package parallel is the shared data-parallel execution layer: one worker
// team (Team), and the one-shot For, ForWorker and ForErr built on it, used
// by training (a team per run: chunks of a batch, per-layer gradient sums,
// the Adam step), corpus generation (per-query sampling) and the metric
// head's embeddings (per-graph forward passes), so every parallel path
// resolves its worker count and distributes work the same way.
//
// Determinism contract: callers assign each index its own output slot (and,
// where randomness is involved, an index-derived RNG seed), so results are
// identical regardless of the worker count or the order in which workers pick
// up indices. The worker id passed by ForWorker selects scratch buffers only;
// it must never influence results.
package parallel

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// EnvWorkers is the environment variable that overrides the worker count for
// every parallel section in the repository.
const EnvWorkers = "ZEROTUNE_WORKERS"

// Workers returns the number of workers parallel sections should use: the
// ZEROTUNE_WORKERS override when set to a positive integer, otherwise
// GOMAXPROCS. It is read on every call so tests can vary the override.
func Workers() int {
	if s := os.Getenv(EnvWorkers); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// Clamp bounds a worker count to [1, n] for a section with n work items.
func Clamp(workers, n int) int {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// For runs fn(i) for every i in [0, n) on up to workers workers and waits
// for all of them. Indices are handed out dynamically, so callers must not
// rely on any particular assignment of indices to workers. workers <= 1 (or
// n <= 1) runs inline with no goroutines.
func For(n, workers int, fn func(i int)) {
	ForWorker(n, workers, func(_, i int) { fn(i) })
}

// ForWorker is For with the executing worker's id (in [0, workers)) passed to
// fn. The id is for indexing per-worker scratch buffers only — which worker
// processes which index is scheduling-dependent, so the id must never affect
// the result written for an index. It is one phase of a Team made for it.
func ForWorker(n, workers int, fn func(worker, i int)) {
	t := NewTeam(Clamp(workers, n))
	t.ForWorker(n, fn)
	t.Close()
}

// spinRounds bounds how long an idle worker polls for the next phase before
// it parks (and how long the caller polls for the last helper of a phase).
// One round is an atomic load; 1<<18 rounds take ≈105 µs on the 2-core Xeon
// the repository is measured on. That covers the gaps between a training
// step's phases (a few µs) and the skew between its two chunks (≈50–150 µs
// at the benchmark fixture's shape): over 10 epochs of that training a worker
// parked ≈10 times, once an epoch, where at 1<<17 rounds (≈53 µs) it parked
// in 30–230 of the run's 1 141 phases and paid a wake-up on the step's
// critical path each time.
const spinRounds = 1 << 18

// Team is a fixed set of workers that runs phases: each call of For or
// ForWorker hands the phase's indices out to the caller, which is worker 0,
// and to the team's own goroutines, and returns when every index has run.
// Between phases the goroutines poll for spinRounds, then park, so a caller
// that runs phases back to back pays no goroutine start or wake-up per
// phase. They never poll when the team has more workers than GOMAXPROCS:
// there a poller would take the processor from a worker with work.
//
// A Team is used by one goroutine at a time, and Close ends its goroutines.
// No phase's closure is referenced once the phase has returned.
type Team struct {
	helpers int // goroutines besides the caller
	spin    int // rounds of polling before parking; 0 disables polling

	// The phase in flight. The caller writes fn and n before it advances
	// gen, and helpers read them after they see gen move.
	fn      func(worker, i int)
	n       int
	next    atomic.Int64 // the next index to hand out
	pending atomic.Int32 // helpers that have not finished the phase

	gen    atomic.Uint64 // advances once per phase and once at Close
	closed bool          // written before Close advances gen

	mu   sync.Mutex
	wake sync.Cond // parked helpers wait here for gen to move
	done sync.Cond // a parked caller waits here for pending to reach 0
	wg   sync.WaitGroup
}

// NewTeam starts a team of workers workers: the caller of its phases and
// workers-1 goroutines. workers <= 1 starts none and runs every phase
// inline.
func NewTeam(workers int) *Team {
	t := &Team{helpers: max(workers-1, 0)}
	if workers <= runtime.GOMAXPROCS(0) {
		t.spin = spinRounds
	}
	t.wake.L, t.done.L = &t.mu, &t.mu
	t.wg.Add(t.helpers)
	for w := 1; w <= t.helpers; w++ {
		go t.helper(w)
	}
	return t
}

// Workers is the team's size, the caller included.
func (t *Team) Workers() int { return t.helpers + 1 }

// For runs fn(i) for every i in [0, n) on the team and waits for all of them.
func (t *Team) For(n int, fn func(i int)) {
	t.ForWorker(n, func(_, i int) { fn(i) })
}

// ForWorker is For with the executing worker's id (in [0, Workers())) passed
// to fn; see the package's ForWorker.
func (t *Team) ForWorker(n int, fn func(worker, i int)) {
	if t.helpers == 0 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	t.fn, t.n = fn, n
	t.next.Store(0)
	t.pending.Store(int32(t.helpers))
	t.advance()
	t.work(0)
	for i := 0; i < t.spin && t.pending.Load() != 0; i++ {
	}
	if t.pending.Load() != 0 {
		t.mu.Lock()
		for t.pending.Load() != 0 {
			t.done.Wait()
		}
		t.mu.Unlock()
	}
	t.fn = nil
}

// Close ends the team's goroutines and waits for them to exit. It is safe to
// call more than once; the team runs no phase after it.
func (t *Team) Close() {
	if t.helpers == 0 || t.closed {
		return
	}
	t.closed = true
	t.advance()
	t.wg.Wait()
}

// advance starts the next phase (or the close): it moves gen and wakes every
// parked helper. Moving gen under mu means a helper that is about to park
// either sees the move or is already waiting when the broadcast comes.
func (t *Team) advance() {
	t.mu.Lock()
	t.gen.Add(1)
	t.wake.Broadcast()
	t.mu.Unlock()
}

// helper is worker w's goroutine: it runs its share of every phase until the
// team closes. Every helper takes part in every phase, so a phase cannot end
// (and gen cannot move again) before each helper has seen it.
func (t *Team) helper(w int) {
	defer t.wg.Done()
	var seen uint64
	for {
		seen = t.await(seen)
		if t.closed {
			return
		}
		t.work(w)
		if t.pending.Add(-1) == 0 {
			t.mu.Lock()
			t.done.Signal()
			t.mu.Unlock()
		}
	}
}

// await polls gen until it moves past seen, parking after t.spin rounds, and
// returns its new value.
func (t *Team) await(seen uint64) uint64 {
	for i := 0; i < t.spin; i++ {
		if g := t.gen.Load(); g != seen {
			return g
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for t.gen.Load() == seen {
		t.wake.Wait()
	}
	return t.gen.Load()
}

// work runs indices of the current phase as worker w until none is left.
func (t *Team) work(w int) {
	fn, n := t.fn, t.n
	for {
		i := int(t.next.Add(1)) - 1
		if i >= n {
			return
		}
		fn(w, i)
	}
}

// ForErr runs fn(i) for every i in [0, n) on up to workers workers and
// returns the error of the lowest failing index (deterministic regardless of
// scheduling), or nil if every call succeeded.
func ForErr(n, workers int, fn func(i int) error) error {
	var (
		mu       sync.Mutex
		firstIdx = n
		firstErr error
	)
	For(n, workers, func(i int) {
		if err := fn(i); err != nil {
			mu.Lock()
			if i < firstIdx {
				firstIdx, firstErr = i, err
			}
			mu.Unlock()
		}
	})
	return firstErr
}
