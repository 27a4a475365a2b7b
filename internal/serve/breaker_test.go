package serve

import (
	"testing"
	"time"
)

// allow is Admit for cases that do not care which request is the probe.
func allow(b *breaker) bool {
	ok, _ := b.Admit()
	return ok
}

// TestBreakerTripAndProbeEvery walks the state machine on an injected clock:
// threshold failures trip it, the first request once every cooldown has
// passed is admitted as the probe, a failed probe re-opens and restarts the
// cooldown, a successful probe closes.
func TestBreakerTripAndProbeEvery(t *testing.T) {
	opens := 0
	now := time.Unix(0, 0)
	b := newBreaker(breakerConfig{Threshold: 3, Cooldown: 2 * time.Second,
		Now: func() time.Time { return now }, OnOpen: func() { opens++ }})
	for i := 0; i < 3; i++ {
		if !allow(b) {
			t.Fatalf("closed breaker rejected request %d", i)
		}
		b.RecordFailure()
	}
	if st := b.State(); st != CircuitOpen {
		t.Fatalf("after %d failures state = %v, want open", 3, st)
	}
	if opens != 1 {
		t.Fatalf("onOpen fired %d times, want 1", opens)
	}
	// Cooldown 2s: a request 1s in stays on the fallback, one at 2s probes.
	now = now.Add(time.Second)
	if allow(b) {
		t.Fatal("request inside the cooldown became a probe")
	}
	now = now.Add(time.Second)
	if !allow(b) {
		t.Fatal("first request after the cooldown should be admitted as probe")
	}
	if st := b.State(); st != CircuitHalfOpen {
		t.Fatalf("state during probe = %v, want half-open", st)
	}
	// While the probe is in flight, everyone else stays degraded.
	if allow(b) {
		t.Fatal("request admitted while a probe was in flight")
	}
	b.RecordFailure() // probe fails → re-open, cooldown restarts
	if st := b.State(); st != CircuitOpen {
		t.Fatalf("state after failed probe = %v, want open", st)
	}
	if opens != 2 {
		t.Fatalf("onOpen fired %d times after re-open, want 2", opens)
	}
	if allow(b) {
		t.Fatal("failed probe did not restart the cooldown")
	}
	now = now.Add(2 * time.Second)
	if !allow(b) {
		t.Fatal("first request after the restarted cooldown should probe again")
	}
	b.RecordSuccess() // probe succeeds → close
	if st := b.State(); st != CircuitClosed {
		t.Fatalf("state after successful probe = %v, want closed", st)
	}
	if !allow(b) {
		t.Fatal("closed breaker rejected traffic after recovery")
	}
}

// TestBreakerCooldownClock drives the wall-clock probe schedule through an
// injected now() so no real time passes.
func TestBreakerCooldownClock(t *testing.T) {
	now := time.Unix(0, 0)
	b := newBreaker(breakerConfig{Threshold: 1, Cooldown: time.Second, Now: func() time.Time { return now }})
	allow(b)
	b.RecordFailure()
	if allow(b) {
		t.Fatal("probe admitted before cooldown elapsed")
	}
	now = now.Add(2 * time.Second)
	if !allow(b) {
		t.Fatal("probe not admitted after cooldown")
	}
	if st := b.State(); st != CircuitHalfOpen {
		t.Fatalf("state = %v, want half-open", st)
	}
}

// TestBreakerSuccessResetsStreak checks that interleaved successes keep the
// consecutive-failure count from accumulating across them.
func TestBreakerSuccessResetsStreak(t *testing.T) {
	b := newBreaker(breakerConfig{Threshold: 2})
	for i := 0; i < 5; i++ {
		allow(b)
		b.RecordFailure()
		allow(b)
		b.RecordSuccess()
	}
	if st := b.State(); st != CircuitClosed {
		t.Fatalf("alternating failure/success tripped the breaker: %v", st)
	}
}

// TestBreakerAbandonedProbe covers the probe-without-resolution path: a
// probe that never exercised the forward path (cache hit, bad request) hands
// its slot back, the circuit returns to open, and the next request is
// admitted as the probe instead of the breaker wedging half-open forever. A
// zero cooldown makes every request on an open circuit due to probe.
func TestBreakerAbandonedProbe(t *testing.T) {
	opens := 0
	b := newBreaker(breakerConfig{Threshold: 1, OnOpen: func() { opens++ }})
	allow(b)
	b.RecordFailure() // trip
	allowed, probe := b.Admit()
	if !allowed || !probe {
		t.Fatalf("Admit() = (%v, %v), want admitted probe", allowed, probe)
	}
	b.AbandonProbe()
	if st := b.State(); st != CircuitOpen {
		t.Fatalf("state after abandoned probe = %v, want open", st)
	}
	if opens != 1 {
		t.Fatalf("abandoning a probe fired onOpen (%d opens), re-open should be silent", opens)
	}
	// The cooldown is still over: the next request is a probe again.
	allowed, probe = b.Admit()
	if !allowed || !probe {
		t.Fatalf("post-abandon Admit() = (%v, %v), want a fresh probe", allowed, probe)
	}
	b.RecordSuccess()
	if st := b.State(); st != CircuitClosed {
		t.Fatalf("state after resolved probe = %v, want closed", st)
	}
	// AbandonProbe after resolution is a no-op (the deferred-abandon pattern).
	b.AbandonProbe()
	if st := b.State(); st != CircuitClosed {
		t.Fatalf("AbandonProbe on a closed breaker changed state to %v", st)
	}
}

// TestBreakerDisabled verifies threshold 0 turns every method into a no-op
// pass-through.
func TestBreakerDisabled(t *testing.T) {
	b := newBreaker(breakerConfig{})
	for i := 0; i < 10; i++ {
		if !allow(b) {
			t.Fatal("disabled breaker rejected a request")
		}
		b.RecordFailure()
	}
	if st := b.State(); st != CircuitClosed {
		t.Fatalf("disabled breaker left closed state: %v", st)
	}
}
