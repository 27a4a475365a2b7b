// In-package batcher tests: the shutdown race, queue backpressure and the
// request deadline are all about internal ordering, so they construct
// Batcher state directly instead of going through HTTP.
package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"zerotune/internal/features"
	"zerotune/internal/gnn"
)

// TestBatcherCloseVsPredictNoStrandedCaller is the regression test for the
// shutdown race: Close used to drain the queue while the flush loop was
// still (or a submitter was about to be) enqueueing, stranding a Predict
// caller on a done channel nobody would ever close. Every Predict below
// must return — under -race — no matter how the Close interleaves.
func TestBatcherCloseVsPredictNoStrandedCaller(t *testing.T) {
	for round := 0; round < 20; round++ {
		b := NewBatcher(0, 4, 64, 0, nil)
		entry := &ModelEntry{} // nil ZT: runGroup panics and the recovery path fails the item
		const n = 16
		var wg sync.WaitGroup
		results := make([]error, n)
		start := make(chan struct{})
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				_, err := b.Predict(context.Background(), entry, nil)
				results[i] = err
			}(i)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			b.Close()
		}()
		close(start)

		returned := make(chan struct{})
		go func() { wg.Wait(); close(returned) }()
		select {
		case <-returned:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: Predict stranded across Close — shutdown race", round)
		}
		for i, err := range results {
			// Legal outcomes: ran (panic-recovered inference error), failed at
			// shutdown, or rejected before enqueue. Never a nil-err success and
			// never a hang (checked above).
			if err == nil {
				t.Fatalf("round %d: predict %d returned no error from a nil model", round, i)
			}
		}
		b.Close() // idempotent
	}
}

// TestBatcherQueueFullBackpressure fills the submission queue of a batcher
// whose flush loop never runs, then checks the next Predict fails fast with
// ErrQueueFull instead of blocking.
func TestBatcherQueueFullBackpressure(t *testing.T) {
	// Construct without NewBatcher so no flush loop drains the queue.
	b := &Batcher{max: 4, in: make(chan *batchItem, 2), quit: make(chan struct{}), onBatch: func(int) {}}
	b.in <- &batchItem{done: make(chan struct{})}
	b.in <- &batchItem{done: make(chan struct{})}

	done := make(chan error, 1)
	go func() {
		_, err := b.Predict(context.Background(), &ModelEntry{}, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrQueueFull) {
			t.Fatalf("full queue returned %v, want ErrQueueFull", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Predict blocked on a full queue instead of failing fast")
	}
}

// TestBatcherDeadline submits against a wedged flush loop (none running)
// and expects ErrPredictTimeout once the deadline passes, not a hang.
func TestBatcherDeadline(t *testing.T) {
	b := &Batcher{max: 4, deadline: 20 * time.Millisecond,
		in: make(chan *batchItem, 4), quit: make(chan struct{}), onBatch: func(int) {}}
	start := time.Now()
	_, err := b.Predict(context.Background(), &ModelEntry{}, nil)
	if !errors.Is(err, ErrPredictTimeout) {
		t.Fatalf("wedged batch returned %v, want ErrPredictTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}
}

// TestBatcherPredictAfterClose checks the closed flag is observed before
// enqueue: a Predict issued strictly after Close returns ErrBatcherClosed.
func TestBatcherPredictAfterClose(t *testing.T) {
	b := NewBatcher(0, 4, 16, 0, nil)
	b.Close()
	if _, err := b.Predict(context.Background(), &ModelEntry{}, nil); !errors.Is(err, ErrBatcherClosed) {
		t.Fatalf("post-close Predict returned %v, want ErrBatcherClosed", err)
	}
}

// TestCacheLeaderErrorIsStaleForFollowers: a follower attached to a leader
// that fails must observe ErrStaleEntry (so the server re-acquires), while
// the slot is freed for the retry to claim.
func TestCacheLeaderErrorIsStaleForFollowers(t *testing.T) {
	c := NewCache(4)
	leaderEntry, leader := c.Acquire(fp(1))
	if !leader {
		t.Fatal("first acquire was not leader")
	}
	follower, isLeader := c.Acquire(fp(1))
	if isLeader {
		t.Fatal("second acquire stole leadership")
	}
	c.Complete(leaderEntry, gnn.Prediction{}, errors.New("inference exploded"))
	if _, err := follower.Wait(context.Background()); !errors.Is(err, ErrStaleEntry) {
		t.Fatalf("follower saw %v, want ErrStaleEntry wrapping", err)
	}
	// The failed entry must be gone: the retry becomes a fresh leader.
	if _, leader := c.Acquire(fp(1)); !leader {
		t.Fatal("retry after leader failure did not become leader")
	}
}

// TestBatcherCollectDecision walks the rule's clauses in their order of
// precedence: full, nobody on the way, window spent, hold.
func TestBatcherCollectDecision(t *testing.T) {
	const window = 2 * time.Millisecond
	for _, tc := range []struct {
		name                  string
		queued, max, arriving int
		waited, window        time.Duration
		want                  FlushReason
		hold                  time.Duration
	}{
		{name: "full", queued: 4, max: 4, arriving: 3, window: window, want: FlushFull},
		{name: "full beats idle", queued: 4, max: 4, window: window, want: FlushFull},
		{name: "lone request", queued: 1, max: 4, window: window, want: FlushIdle},
		{name: "idle after a wait", queued: 2, max: 4, waited: window / 2, window: window, want: FlushIdle},
		{name: "arriving, window just opened", queued: 1, max: 4, arriving: 1, window: window, want: Hold, hold: window},
		{name: "arriving, inside the window", queued: 2, max: 4, arriving: 2, waited: window / 4, window: window, want: Hold, hold: 3 * window / 4},
		{name: "arriving, window spent", queued: 2, max: 4, arriving: 1, waited: window, window: window, want: FlushWindow},
		{name: "arriving, past the window", queued: 2, max: 4, arriving: 1, waited: 3 * window, window: window, want: FlushWindow},
		{name: "no window", queued: 1, max: 4, arriving: 5, window: 0, want: FlushWindow},
		{name: "negative window", queued: 1, max: 4, arriving: 5, window: -1, want: FlushWindow},
		{name: "no window, nobody coming", queued: 1, max: 4, window: -1, want: FlushIdle},
	} {
		got, hold := collectDecision(tc.queued, tc.max, tc.arriving, tc.waited, tc.window)
		if got != tc.want || hold != tc.hold {
			t.Errorf("%s: CollectDecision(%d, %d, %d, %v, %v) = %v, %v; want %v, %v",
				tc.name, tc.queued, tc.max, tc.arriving, tc.waited, tc.window, got, hold, tc.want, tc.hold)
		}
	}
}

// TestBatcherCloseReleasesHeldBatch is the regression test for shutdown
// waiting out the window: a batch held for an announced arrival that never
// comes must be flushed by Close at once, its caller answered, not failed.
func TestBatcherCloseReleasesHeldBatch(t *testing.T) {
	b := NewBatcher(10*time.Second, 4, 16, 0, nil)
	b.SetForward(func(_ *ModelEntry, graphs []*features.Graph) ([]gnn.Prediction, error) {
		return make([]gnn.Prediction, len(graphs)), nil
	})
	never := b.Announce()
	defer never.Withdraw()
	item := b.Announce()
	result := make(chan error, 1)
	go func() {
		_, err := item.Predict(context.Background(), &ModelEntry{}, nil)
		result <- err
	}()
	// Enqueued (its arrival ended) and off the queue: the loop is holding it.
	for deadline := time.Now().Add(5 * time.Second); b.Arriving() != 1 || len(b.in) != 0; {
		if time.Now().After(deadline) {
			t.Fatal("item never reached the collector")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	b.Close()
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("Close took %v with a batch held open: it waited for the window", took)
	}
	select {
	case err := <-result:
		if err != nil {
			t.Fatalf("held item failed at shutdown: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("held item never answered")
	}
}

// TestBatcherLoopFlushReasons drives the live flush loop into the two
// clauses of collectDecision that end a batch held for a request still on
// its way: the window runs out, or the batch fills first.
func TestBatcherLoopFlushReasons(t *testing.T) {
	for _, tc := range []struct {
		name          string
		window        time.Duration
		max, enqueued int
		want          FlushCounts
	}{
		{"window", 20 * time.Millisecond, 4, 1, FlushCounts{Window: 1}},
		{"full", 10 * time.Second, 2, 2, FlushCounts{Full: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBatcher(tc.window, tc.max, 0, 0, nil)
			defer b.Close()
			b.SetForward(func(_ *ModelEntry, graphs []*features.Graph) ([]gnn.Prediction, error) {
				return make([]gnn.Prediction, len(graphs)), nil
			})
			never := b.Announce() // on its way throughout: no batch is ever idle
			defer never.Withdraw()
			var wg sync.WaitGroup
			for range tc.enqueued {
				a := b.Announce()
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := a.Predict(context.Background(), &ModelEntry{}, nil); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
			if got := b.Flushes(); got != tc.want {
				t.Errorf("flushes %+v, want %+v", got, tc.want)
			}
		})
	}
}
