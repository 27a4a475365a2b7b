package fault

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestDeterministicAcrossRegistries drives two same-seed registries through
// an identical schedule and requires identical decisions and event logs —
// the contract the serve package's chaos drill relies on.
func TestDeterministicAcrossRegistries(t *testing.T) {
	run := func(seed uint64) (string, []bool) {
		r := New(seed)
		r.Install(Schedule{Point: GNNForward, Mode: ModeError, Prob: 0.3})
		r.Install(Schedule{Point: ArtifactRead, Mode: ModeError, Prob: 0.7, After: 2})
		var outcomes []bool
		for i := 0; i < 200; i++ {
			outcomes = append(outcomes, r.Inject(GNNForward) != nil)
			outcomes = append(outcomes, r.Inject(ArtifactRead) != nil)
		}
		return r.DumpEvents(), outcomes
	}
	logA, outA := run(42)
	logB, outB := run(42)
	if logA != logB {
		t.Fatalf("same-seed event logs differ:\n%s\nvs\n%s", logA, logB)
	}
	for i := range outA {
		if outA[i] != outB[i] {
			t.Fatalf("decision %d differs between same-seed runs", i)
		}
	}
	if logA == "" {
		t.Fatal("prob 0.3 over 200 hits fired nothing — decision function broken")
	}
	logC, _ := run(43)
	if logC == logA {
		t.Fatal("different seeds produced identical event logs")
	}
}

// TestEveryAfterLimit exercises the exact-periodic schedule knobs.
func TestEveryAfterLimit(t *testing.T) {
	r := New(1)
	r.Install(Schedule{Point: BatcherFlush, Mode: ModeError, Every: 3, After: 2, Limit: 2})
	var fired []int
	for i := 1; i <= 20; i++ {
		if r.Inject(BatcherFlush) != nil {
			fired = append(fired, i)
		}
	}
	// Eligible hits are 3.. with (h-2)%3==0 → 5, 8, 11...; Limit 2 stops at 8.
	want := []int{5, 8}
	if fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	if got := r.Injected(BatcherFlush); got != 2 {
		t.Fatalf("Injected = %d, want 2", got)
	}
	if got := r.Hits(BatcherFlush); got != 20 {
		t.Fatalf("Hits = %d, want 20", got)
	}
}

// TestErrorModeWrapsSentinels checks both the package sentinel and the
// schedule's custom error are matchable with errors.Is.
func TestErrorModeWrapsSentinels(t *testing.T) {
	custom := errors.New("boom")
	r := New(7)
	r.Install(Schedule{Point: RegistrySwap, Mode: ModeError, Every: 1, Err: custom})
	err := r.Inject(RegistrySwap)
	if !IsInjected(err) {
		t.Fatalf("IsInjected(%v) = false", err)
	}
	if !errors.Is(err, custom) {
		t.Fatalf("custom sentinel not wrapped: %v", err)
	}
}

// TestDelayModeUsesClock injects a delay fault and verifies the sleep goes to
// the injected clock instead of blocking the test.
func TestDelayModeUsesClock(t *testing.T) {
	r := New(7)
	clock := &RecordingClock{}
	r.SetClock(clock)
	r.Install(Schedule{Point: CacheAcquire, Mode: ModeDelay, Every: 2, Delay: 250 * time.Millisecond})
	for i := 0; i < 4; i++ {
		if err := r.Inject(CacheAcquire); err != nil {
			t.Fatalf("delay mode returned error: %v", err)
		}
	}
	slept := clock.Slept()
	if len(slept) != 2 || slept[0] != 250*time.Millisecond {
		t.Fatalf("clock saw %v, want two 250ms sleeps", slept)
	}
}

// TestPanicModeThrowsPanicValue verifies panic-mode faults throw *PanicValue
// so recover sites can attribute them.
func TestPanicModeThrowsPanicValue(t *testing.T) {
	r := New(7)
	r.Install(Schedule{Point: CheckpointWrite, Mode: ModePanic, Every: 1})
	defer func() {
		pv, ok := recover().(*PanicValue)
		if !ok {
			t.Fatalf("recover() = %T, want *PanicValue", pv)
		}
		if pv.Point != CheckpointWrite || pv.Hit != 1 {
			t.Fatalf("panic value %+v", pv)
		}
	}()
	_ = r.Inject(CheckpointWrite)
	t.Fatal("panic mode did not panic")
}

// TestClearPreservesCounters ensures Clear stops faulting but keeps the hit
// counter monotonic, so post-clear events (if reinstalled) never reuse hits.
func TestClearPreservesCounters(t *testing.T) {
	r := New(9)
	r.Install(Schedule{Point: GNNForward, Mode: ModeError, Every: 1})
	_ = r.Inject(GNNForward)
	r.Clear(GNNForward)
	if err := r.Inject(GNNForward); err != nil {
		t.Fatalf("cleared point still faults: %v", err)
	}
	if got := r.Hits(GNNForward); got != 2 {
		t.Fatalf("Hits after clear = %d, want 2", got)
	}
	r.Install(Schedule{Point: GNNForward, Mode: ModeError, Every: 1})
	_ = r.Inject(GNNForward)
	evs := r.Events()
	if len(evs) != 2 || evs[0].Hit != 1 || evs[1].Hit != 3 {
		t.Fatalf("events %v, want hits 1 and 3", evs)
	}
}

// TestGlobalActivation checks the package-level fast path: no-op when
// inactive, live when activated, and safe under concurrent pass-throughs.
func TestGlobalActivation(t *testing.T) {
	Deactivate()
	t.Cleanup(Deactivate)
	if err := Inject(GNNForward); err != nil {
		t.Fatalf("inactive Inject returned %v", err)
	}
	r := New(3)
	r.Install(Schedule{Point: GNNForward, Mode: ModeError, Prob: 0.5})
	Activate(r)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = Inject(GNNForward)
			}
		}()
	}
	wg.Wait()
	if got := r.Hits(GNNForward); got != 800 {
		t.Fatalf("Hits = %d, want 800 (lost pass-throughs under concurrency)", got)
	}
	if inj := r.Injected(GNNForward); inj == 0 || inj == 800 {
		t.Fatalf("Injected = %d, want strictly between 0 and 800 at prob 0.5", inj)
	}
}

// TestUniformRange sanity-checks the decision hash is in [0,1) and not
// degenerate.
func TestUniformRange(t *testing.T) {
	var lo, hi float64 = 1, 0
	for i := uint64(1); i <= 1000; i++ {
		u := Uniform(99, GNNForward, i)
		if u < 0 || u >= 1 {
			t.Fatalf("Uniform out of range: %v", u)
		}
		if u < lo {
			lo = u
		}
		if u > hi {
			hi = u
		}
	}
	if hi-lo < 0.5 {
		t.Fatalf("Uniform looks degenerate: range [%v, %v]", lo, hi)
	}
}
