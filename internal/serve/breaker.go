package serve

import (
	"sync"
	"time"
)

// CircuitState is the breaker's position: closed (learned path serving),
// open (learned path sidestepped, fallback answering), or half-open (one
// probe in flight to test recovery).
type CircuitState int

const (
	CircuitClosed CircuitState = iota
	CircuitHalfOpen
	CircuitOpen
)

func (s CircuitState) String() string {
	switch s {
	case CircuitClosed:
		return "closed"
	case CircuitHalfOpen:
		return "half-open"
	case CircuitOpen:
		return "open"
	default:
		return "unknown"
	}
}

// breakerConfig sizes a breaker. Threshold <= 0 disables it (Admit always
// allows). Recovery is probed once Cooldown has passed on Now since the
// circuit opened; a test that drives Now makes every transition a function
// of its own sequence of requests and clock moves.
type breakerConfig struct {
	Threshold int
	Cooldown  time.Duration
	Now       func() time.Time // default time.Now
	// OnOpen runs on every transition to open, with the breaker's lock held:
	// it must not call back into the breaker.
	OnOpen func()
}

// breaker is a consecutive-failure circuit breaker around the GNN forward
// path. Closed: requests flow and consecutive forward failures are counted.
// Open: requests are rejected (the server degrades them to the fallback)
// until the cooldown admits one. Half-open: exactly one probe is in
// flight; its success closes the circuit, its failure re-opens it.
type breaker struct {
	cfg breakerConfig

	mu          sync.Mutex
	state       CircuitState
	consecutive int       // failures since the last success (closed state)
	openedAt    time.Time // when the circuit last opened
}

// newBreaker builds a closed breaker.
func newBreaker(cfg breakerConfig) *breaker {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &breaker{cfg: cfg}
}

// Admit reports whether this request may take the learned forward path. In
// the open state it admits a single probe once the cooldown has passed and
// rejects the rest; a rejected request should be served by the fallback.
// When probe is true this request IS the half-open recovery probe and must
// resolve the breaker with exactly one of RecordSuccess, RecordFailure, or
// AbandonProbe — otherwise the circuit stays half-open (which rejects
// everyone) forever.
func (b *breaker) Admit() (allowed, probe bool) {
	if b.cfg.Threshold <= 0 {
		return true, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case CircuitClosed:
		return true, false
	case CircuitHalfOpen:
		// One probe at a time; everyone else stays on the fallback until the
		// probe resolves.
		return false, false
	default: // CircuitOpen
		if b.cfg.Now().Sub(b.openedAt) < b.cfg.Cooldown {
			return false, false
		}
		b.state = CircuitHalfOpen
		return true, true
	}
}

// AbandonProbe hands back a half-open probe slot when the probe request
// resolved without exercising the forward path (cache hit, bad request,
// backpressure, injected acquire fault): the circuit returns to open with
// its opening time untouched, so the next request is admitted as the probe.
// A probe that did run the forward path resolves the state via
// RecordSuccess or RecordFailure first, which makes this a no-op.
// Concurrently, a new probe admitted between this probe's resolution and its
// deferred abandon could be bounced back to open — benign, the next request
// is admitted again.
func (b *breaker) AbandonProbe() {
	if b.cfg.Threshold <= 0 {
		return
	}
	b.mu.Lock()
	if b.state == CircuitHalfOpen {
		b.state = CircuitOpen
	}
	b.mu.Unlock()
}

// RecordSuccess reports a completed forward pass. Any success closes the
// circuit and resets the failure streak — in particular the half-open
// probe's.
func (b *breaker) RecordSuccess() {
	if b.cfg.Threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = CircuitClosed
	b.consecutive = 0
}

// RecordFailure reports a forward-path failure (error or timeout). In the
// closed state it trips the circuit after threshold consecutive failures; a
// failed half-open probe re-opens immediately.
func (b *breaker) RecordFailure() {
	if b.cfg.Threshold <= 0 {
		return
	}
	b.mu.Lock()
	switch b.state {
	case CircuitHalfOpen:
		b.open()
	case CircuitClosed:
		b.consecutive++
		if b.consecutive >= b.cfg.Threshold {
			b.open()
		}
	}
	b.mu.Unlock()
}

// open transitions to CircuitOpen. Caller holds b.mu (see breakerConfig.OnOpen).
func (b *breaker) open() {
	b.state = CircuitOpen
	b.consecutive = 0
	b.openedAt = b.cfg.Now()
	if b.cfg.OnOpen != nil {
		b.cfg.OnOpen()
	}
}

// State returns the breaker position for health/metrics.
func (b *breaker) State() CircuitState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
