package desim

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"zerotune/internal/features"
	"zerotune/internal/gnn"
	"zerotune/internal/loadgen"
	"zerotune/internal/serve"
)

// One script of announcements, enqueues, withdrawals and a window expiry,
// replayed through the live serve.Batcher and through the simulator, must cut
// the same requests into the same batches for the same reasons. Both call
// serve.CollectDecision; what this pins is that they call it at the same
// moments with the same inputs — the simulator's arriving count and its
// re-evaluation points against the live loop's atomic, wake channel and timer.

type diffOp int

const (
	opAnnounce diffOp = iota // the request passes the front door (a body-cache miss)
	opEnqueue                // its item reaches the batcher's queue
	opWithdraw               // it leaves without enqueueing: a twin of an in-flight plan
	opFlush                  // expectation: this batch has left the collector by now
)

type diffStep struct {
	atMs   int64 // virtual time; the live replay keeps only the order
	op     diffOp
	req    int               // announce / enqueue / withdraw
	twin   int               // withdraw: the in-flight request whose plan this one repeats
	batch  []int             // flush
	reason serve.FlushReason // flush
}

const (
	diffEncodeMs = 10 // front door → queue, the same for every simulated request
	diffWindowMs = 25
	diffMaxBatch = 5
)

// diffScript walks every clause of the rule. Requests are numbered in arrival
// order; each one's enqueue or withdrawal comes diffEncodeMs after its
// announcement, which is the only shape of script the simulator can express.
var diffScript = []diffStep{
	// Idle, after holding for an announced companion that does enqueue.
	{atMs: 0, op: opAnnounce, req: 0},
	{atMs: 5, op: opAnnounce, req: 1},
	{atMs: 10, op: opEnqueue, req: 0},
	{atMs: 15, op: opEnqueue, req: 1},
	{atMs: 15, op: opFlush, batch: []int{0, 1}, reason: serve.FlushIdle},
	// Idle, released by a withdrawal: the wake path.
	{atMs: 30, op: opAnnounce, req: 2},
	{atMs: 35, op: opAnnounce, req: 3},
	{atMs: 40, op: opEnqueue, req: 2},
	{atMs: 45, op: opWithdraw, req: 3, twin: 2},
	{atMs: 45, op: opFlush, batch: []int{2}, reason: serve.FlushIdle},
	// Window: somebody is always on the way, so the batch opened at 70 waits
	// until 95 and leaves without the request announced at 92.
	{atMs: 60, op: opAnnounce, req: 4},
	{atMs: 65, op: opAnnounce, req: 5},
	{atMs: 70, op: opEnqueue, req: 4},
	{atMs: 74, op: opAnnounce, req: 6},
	{atMs: 75, op: opEnqueue, req: 5},
	{atMs: 83, op: opAnnounce, req: 7},
	{atMs: 84, op: opEnqueue, req: 6},
	{atMs: 92, op: opAnnounce, req: 8},
	{atMs: 93, op: opEnqueue, req: 7},
	{atMs: 95, op: opFlush, batch: []int{4, 5, 6, 7}, reason: serve.FlushWindow},
	{atMs: 102, op: opEnqueue, req: 8},
	{atMs: 102, op: opFlush, batch: []int{8}, reason: serve.FlushIdle},
	// Full, with a sixth request still on its way.
	{atMs: 120, op: opAnnounce, req: 9},
	{atMs: 121, op: opAnnounce, req: 10},
	{atMs: 122, op: opAnnounce, req: 11},
	{atMs: 123, op: opAnnounce, req: 12},
	{atMs: 124, op: opAnnounce, req: 13},
	{atMs: 125, op: opAnnounce, req: 14},
	{atMs: 130, op: opEnqueue, req: 9},
	{atMs: 131, op: opEnqueue, req: 10},
	{atMs: 132, op: opEnqueue, req: 11},
	{atMs: 133, op: opEnqueue, req: 12},
	{atMs: 134, op: opEnqueue, req: 13},
	{atMs: 134, op: opFlush, batch: []int{9, 10, 11, 12, 13}, reason: serve.FlushFull},
	{atMs: 135, op: opEnqueue, req: 14},
	{atMs: 135, op: opFlush, batch: []int{14}, reason: serve.FlushIdle},
}

type diffResult struct {
	batches [][]int
	flushes serve.FlushCounts
}

func diffWant() diffResult {
	var want diffResult
	for _, st := range diffScript {
		if st.op != opFlush {
			continue
		}
		want.batches = append(want.batches, st.batch)
		want.flushes.Count(st.reason)
	}
	return want
}

// diffSimulate turns the script into an arrival schedule — a request is
// announced when it reaches the replica, a withdrawn one carries its twin's
// body so the plan cache makes it a follower — and reads the batches back
// from the outcomes.
func diffSimulate(t *testing.T) diffResult {
	t.Helper()
	var sched []loadgen.Request
	announced := map[int]int64{}
	for _, st := range diffScript {
		switch st.op {
		case opAnnounce:
			if st.req != len(sched) {
				t.Fatalf("script announces request %d out of order", st.req)
			}
			announced[st.req] = st.atMs
			sched = append(sched, loadgen.Request{
				Offset: time.Duration(st.atMs) * time.Millisecond,
				Body:   []byte(fmt.Sprintf("plan-%d", st.req)),
			})
		case opWithdraw:
			sched[st.req].Body = sched[st.twin].Body
			fallthrough
		case opEnqueue:
			if st.atMs != announced[st.req]+diffEncodeMs {
				t.Fatalf("script ends request %d at %dms, not %dms after its announcement", st.req, st.atMs, diffEncodeMs)
			}
		}
	}
	run, err := SimulateServe(sched, ServeConfig{
		Replicas:    1,
		BatchWindow: diffWindowMs * time.Millisecond,
		MaxBatch:    diffMaxBatch,
		Service: ServiceModel{
			EncodeNs:      diffEncodeMs * int64(time.Millisecond),
			ForwardBaseNs: 100_000, // a flush is over before the script's next step
			CacheHitNs:    1, FallbackNs: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Requests that rode one forward pass finish at the same instant.
	byDone := map[int64][]int{}
	for _, o := range run.Outcomes {
		if o.Status != 200 {
			t.Fatalf("simulated request %d: status %d", o.Seq, o.Status)
		}
		if !o.Coalesced && !o.CacheHit {
			byDone[o.DoneNs] = append(byDone[o.DoneNs], o.Seq)
		}
	}
	var done []int64
	for ns := range byDone {
		done = append(done, ns)
	}
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	got := diffResult{flushes: run.Stats.PerReplica[0].Flushes}
	for _, ns := range done {
		got.batches = append(got.batches, byDone[ns])
	}
	return got
}

// diffReplayLive performs the script's steps, in order, on a real Batcher. A
// flush step waits for the batch to leave, so the next step finds the loop
// where the simulator's clock would; the window is long enough that the steps
// inside it finish with time to spare on a busy machine.
func diffReplayLive(t *testing.T) diffResult {
	t.Helper()
	var (
		mu      sync.Mutex
		batches [][]int
		ids     = map[*features.Graph]int{}
	)
	b := serve.NewBatcher(300*time.Millisecond, diffMaxBatch, 0, 0, nil)
	b.SetForward(func(_ *serve.ModelEntry, graphs []*features.Graph) ([]gnn.Prediction, error) {
		batch := make([]int, len(graphs))
		mu.Lock()
		for i, g := range graphs {
			batch[i] = ids[g]
		}
		batches = append(batches, batch)
		mu.Unlock()
		return make([]gnn.Prediction, len(graphs)), nil
	})
	entry := &serve.ModelEntry{}
	waitFor := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !ok(); {
			if time.Now().After(deadline) {
				t.Fatalf("live replay: timed out waiting for %s", what)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	arrivals := map[int]*serve.Arrival{}
	var callers sync.WaitGroup
	flushed := 0
	for _, st := range diffScript {
		switch st.op {
		case opAnnounce:
			a := b.Announce()
			arrivals[st.req] = &a
		case opWithdraw:
			arrivals[st.req].Withdraw()
		case opEnqueue:
			g := &features.Graph{}
			mu.Lock()
			ids[g] = st.req
			mu.Unlock()
			open := b.Arriving()
			callers.Add(1)
			go func(a *serve.Arrival, req int) {
				defer callers.Done()
				if _, err := a.Predict(context.Background(), entry, g); err != nil {
					t.Errorf("live request %d: %v", req, err)
				}
			}(arrivals[st.req], st.req)
			// The arrival ends once the item is in the queue.
			waitFor(fmt.Sprintf("request %d to enqueue", st.req), func() bool { return b.Arriving() == open-1 })
		case opFlush:
			flushed++
			waitFor(fmt.Sprintf("batch %v to flush", st.batch), func() bool {
				mu.Lock()
				defer mu.Unlock()
				return len(batches) >= flushed
			})
		}
	}
	callers.Wait()
	b.Close()
	return diffResult{batches: batches, flushes: b.Flushes()}
}

func TestBatcherDifferentialLiveVsSim(t *testing.T) {
	want := diffWant()
	if sim := diffSimulate(t); !reflect.DeepEqual(sim, want) {
		t.Errorf("simulator cut the script into\n  %+v\nwant\n  %+v", sim, want)
	}
	if live := diffReplayLive(t); !reflect.DeepEqual(live, want) {
		t.Errorf("live batcher cut the script into\n  %+v\nwant\n  %+v", live, want)
	}
}
