package parallel

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersEnvOverride(t *testing.T) {
	t.Setenv(EnvWorkers, "5")
	if got := Workers(); got != 5 {
		t.Fatalf("Workers() = %d with override 5", got)
	}
	t.Setenv(EnvWorkers, "0")
	if got := Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers() = %d, want GOMAXPROCS for invalid override", got)
	}
	t.Setenv(EnvWorkers, "bogus")
	if got := Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers() = %d, want GOMAXPROCS for garbage override", got)
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ workers, n, want int }{
		{8, 3, 3}, {2, 10, 2}, {0, 5, 1}, {-1, 5, 1}, {4, 0, 1},
	}
	for _, c := range cases {
		if got := Clamp(c.workers, c.n); got != c.want {
			t.Fatalf("Clamp(%d, %d) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		const n = 100
		var hits [n]atomic.Int32
		For(n, workers, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, hits[i].Load())
			}
		}
	}
}

func TestForZeroItems(t *testing.T) {
	called := false
	For(0, 4, func(int) { called = true })
	if called {
		t.Fatal("fn called with zero items")
	}
}

func TestForWorkerIDsInRange(t *testing.T) {
	const workers, n = 4, 50
	var bad atomic.Int32
	ForWorker(n, workers, func(w, i int) {
		if w < 0 || w >= workers {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Fatal("worker id outside [0, workers)")
	}
}

func TestForErrReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		err := ForErr(20, workers, func(i int) error {
			if i%7 == 3 { // fails at 3, 10, 17
				return fmt.Errorf("fail %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail 3" {
			t.Fatalf("workers=%d: err = %v, want fail 3", workers, err)
		}
	}
	if err := ForErr(10, 4, func(int) error { return nil }); err != nil {
		t.Fatalf("unexpected error %v", err)
	}
}

// TestTeamPhases: one team runs phases back to back — of every size, fewer
// items than workers and none at all included — and each covers its indices
// exactly once, with worker ids in [0, Workers()), whether the team's
// goroutines poll between phases or park (a team larger than GOMAXPROCS never
// polls).
func TestTeamPhases(t *testing.T) {
	for _, workers := range []int{1, 2, 3, runtime.GOMAXPROCS(0) + 2} {
		team := NewTeam(workers)
		if team.Workers() != workers {
			t.Fatalf("NewTeam(%d).Workers() = %d", workers, team.Workers())
		}
		for phase, n := range []int{0, 1, 2, workers - 1, 100, 3, 1, 7, 0, 64} {
			hits := make([]atomic.Int32, max(n, 0))
			var bad atomic.Int32
			team.ForWorker(n, func(w, i int) {
				if w < 0 || w >= workers {
					bad.Add(1)
				}
				hits[i].Add(1)
			})
			for i := range hits {
				if hits[i].Load() != 1 {
					t.Fatalf("workers=%d phase %d (n=%d): index %d hit %d times", workers, phase, n, i, hits[i].Load())
				}
			}
			if bad.Load() != 0 {
				t.Fatalf("workers=%d phase %d: worker id outside [0, %d)", workers, phase, workers)
			}
			if workers > 1 && phase == 4 {
				time.Sleep(2 * time.Millisecond) // let the goroutines park before the next phase
			}
		}
		team.Close()
		team.Close()
	}
}

// TestTeamCloseEndsGoroutines: a team keeps its goroutines between phases,
// Close ends them, and a one-shot For leaves none behind either.
func TestTeamCloseEndsGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	team := NewTeam(4)
	team.For(10, func(int) {})
	if n := runtime.NumGoroutine(); n != before+3 {
		t.Fatalf("%d goroutines with a team of 4 open, %d before", n, before)
	}
	team.Close()
	For(10, 4, func(int) {})
	// Close returns once every goroutine has signalled its exit; the last
	// instructions of an exiting goroutine may still be running.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close and a one-shot For, %d before", runtime.NumGoroutine(), before)
		}
	}
}

// TestTeamDropsThePhaseClosure: once a phase returns, the team holds nothing
// the phase's closure captured, so a long-lived team does not keep a
// caller's scratch alive.
func TestTeamDropsThePhaseClosure(t *testing.T) {
	team := NewTeam(2)
	defer team.Close()
	collected := make(chan struct{})
	func() {
		scratch := &struct{ data [1 << 13]float64 }{}
		runtime.SetFinalizer(scratch, func(any) { close(collected) })
		team.For(8, func(i int) { scratch.data[i]++ })
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("the phase's captured scratch is still reachable after the phase returned")
		}
		time.Sleep(time.Millisecond)
	}
}
