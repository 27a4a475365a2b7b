// In-package cancellation tests: a prediction whose context dies while the
// item is queued must unblock the caller immediately and be filtered out of
// the batch before the forward pass runs.
package serve

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestBatcherPredictCancelledWhileQueued parks an item in a batcher whose
// flush loop never runs, cancels the request context, and requires Predict
// to return context.Canceled promptly instead of waiting for a flush that
// will never come.
func TestBatcherPredictCancelledWhileQueued(t *testing.T) {
	// Construct without NewBatcher so no flush loop drains the queue.
	b := &Batcher{max: 4, in: make(chan *batchItem, 4), quit: make(chan struct{}), onBatch: func(int) {}}
	ctx, cancel := context.WithCancel(context.Background())
	entry := &ModelEntry{}
	errCh := make(chan error, 1)
	go func() {
		_, err := b.Predict(ctx, entry, nil)
		errCh <- err
	}()
	// Wait until the item is actually queued, then cut the context.
	deadline := time.Now().Add(2 * time.Second)
	for len(b.in) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("item never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Predict returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Predict did not unblock on context cancellation")
	}
}

// TestBatcherRunFiltersCancelledItems checks the flush-side half: an item
// whose context died while queued is dropped before the batch forward pass,
// so the flushed batch the stats hook sees does not include it.
func TestBatcherRunFiltersCancelledItems(t *testing.T) {
	batches := make(chan int, 4)
	b := NewBatcher(10*time.Second, 8, 32, 0, func(n int) { batches <- n })
	defer b.Close()
	entry := &ModelEntry{} // nil ZT: a live item fails via panic recovery, never via ctx

	// An announced arrival that has not shown up holds the batch open, so both
	// items are in it before the cancellation; the two items announce
	// themselves too, which makes their enqueues observable.
	hold := b.Announce()
	dead, live := b.Announce(), b.Announce()
	cancelled, cancel := context.WithCancel(context.Background())
	deadErr := make(chan error, 1)
	liveErr := make(chan error, 1)
	go func() {
		_, err := dead.Predict(cancelled, entry, nil)
		deadErr <- err
	}()
	go func() {
		_, err := live.Predict(context.Background(), entry, nil)
		liveErr <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); b.Arriving() != 1; {
		if time.Now().After(deadline) {
			t.Fatalf("items never enqueued: %d arrivals still open", b.Arriving())
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-deadErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled item returned %v, want context.Canceled", err)
	}
	hold.Withdraw() // nobody else is coming: the batch flushes

	// The surviving item runs against the nil model and fails through the
	// panic-recovery path — crucially NOT with context.Canceled, proving it
	// stayed in the batch while the dead item was filtered out.
	select {
	case err := <-liveErr:
		if err == nil || errors.Is(err, context.Canceled) {
			t.Fatalf("live item returned %v, want a (non-cancellation) inference error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("live item never flushed")
	}
	select {
	case n := <-batches:
		if n != 1 {
			t.Fatalf("flushed batch had %d live items, want 1 (cancelled item not filtered)", n)
		}
	case <-time.After(time.Second):
		t.Fatal("stats hook never saw the batch")
	}
}
