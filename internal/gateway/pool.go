package gateway

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"zerotune/internal/fault"
	"zerotune/internal/obs"
	"zerotune/internal/serve"
)

// Replica states. A replica is either serving traffic (healthy) or ejected:
// removed from routing after consecutive failures, waiting out a jittered
// backoff before a rejoin probe readmits it.
const (
	stateHealthy int32 = iota
	stateEjected
)

// errProbeUnhealthy marks a probe that reached a replica that answered
// non-200 — alive, but not fit to serve.
var errProbeUnhealthy = errors.New("gateway: replica probe answered non-200")

// Replica is one pool member: a backend plus its health state and in-flight
// count. Health transitions are serialized by the pool; the in-flight count
// is updated lock-free on the request path.
type Replica struct {
	backend serve.Backend
	idx     int
	header  []string // the replicaHeader value of its answers: its name, shared

	state       atomic.Int32
	consecFails atomic.Int32
	outstanding atomic.Int64

	// Rejoin bookkeeping, guarded by the pool mutex: how many probe rounds
	// to skip before the next rejoin attempt, which attempt of this
	// ejection is next, and how many times this replica has been ejected
	// (the jitter stream position, so backoff draws never repeat).
	waitRounds   uint64
	probeAttempt uint64
	ejectCount   uint64

	requests  *obs.Counter
	failures  *obs.Counter
	ejections *obs.Counter
	rejoins   *obs.Counter
	forwardS  *obs.Histogram
}

// Name returns the backend's identity.
func (r *Replica) Name() string { return r.backend.Name() }

// Healthy reports whether the replica is currently routable.
func (r *Replica) Healthy() bool { return r.state.Load() == stateHealthy }

// Outstanding is the number of requests currently in flight to this replica.
func (r *Replica) Outstanding() int64 { return r.outstanding.Load() }

// noteDispatch marks a forward attempt in flight.
func (r *Replica) noteDispatch() { r.outstanding.Add(1) }

// noteDone marks a forward attempt finished.
func (r *Replica) noteDone() { r.outstanding.Add(-1) }

// Pool is the gateway's replica set: it owns health state (probing,
// consecutive-failure ejection, jittered-backoff rejoin) and exposes the
// replica list routing picks from. Every health decision that
// involves randomness draws from the seeded fault.Uniform stream, so two
// pools built with the same seed, backends and failure sequence transition
// identically — the property the chaos tests diff byte-for-byte.
type Pool struct {
	replicas      []*Replica
	seed          uint64
	failThreshold int32

	mu    sync.Mutex // serializes probe rounds and eject/rejoin transitions
	round uint64     // probe rounds completed (backoff is counted in rounds)
}

// newPool wraps backends into replicas and registers their instruments.
func newPool(backends []serve.Backend, seed uint64, failThreshold int, reg *obs.Registry) *Pool {
	p := &Pool{seed: seed, failThreshold: int32(failThreshold)}
	for i, b := range backends {
		r := &Replica{
			backend:   b,
			idx:       i,
			header:    []string{b.Name()},
			requests:  reg.Counter("zerotune_gateway_replica_requests_total", obs.L("replica", b.Name())),
			failures:  reg.Counter("zerotune_gateway_replica_failures_total", obs.L("replica", b.Name())),
			ejections: reg.Counter("zerotune_gateway_replica_ejections_total", obs.L("replica", b.Name())),
			rejoins:   reg.Counter("zerotune_gateway_replica_rejoins_total", obs.L("replica", b.Name())),
			forwardS:  reg.Histogram("zerotune_gateway_forward_duration_seconds", obs.L("replica", b.Name())),
		}
		rr := r
		reg.GaugeFunc("zerotune_gateway_replica_healthy", func() float64 {
			if rr.Healthy() {
				return 1
			}
			return 0
		}, obs.L("replica", b.Name()))
		reg.GaugeFunc("zerotune_gateway_replica_outstanding", func() float64 {
			return float64(rr.Outstanding())
		}, obs.L("replica", b.Name()))
		p.replicas = append(p.replicas, r)
	}
	return p
}

// Replicas returns the pool members in index order. The slice is shared and
// must not be mutated.
func (p *Pool) Replicas() []*Replica { return p.replicas }

// HealthyCount reports how many replicas are currently routable.
func (p *Pool) HealthyCount() int {
	n := 0
	for _, r := range p.replicas {
		if r.Healthy() {
			n++
		}
	}
	return n
}

// recordSuccess resets the consecutive-failure counter after a forward that
// reached the replica (any HTTP status — application errors wear the
// envelope and prove the replica is alive).
func (p *Pool) recordSuccess(r *Replica) { r.consecFails.Store(0) }

// recordFailure counts one transport-level failure and ejects the replica
// once the consecutive run reaches the threshold.
func (p *Pool) recordFailure(r *Replica) {
	r.failures.Inc()
	if r.consecFails.Add(1) >= p.failThreshold {
		p.eject(r)
	}
}

// eject removes a replica from routing and schedules its first rejoin probe.
func (p *Pool) eject(r *Replica) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if r.state.Load() == stateEjected {
		return
	}
	r.state.Store(stateEjected)
	r.ejections.Inc()
	r.ejectCount++
	r.probeAttempt = 0
	r.waitRounds = p.backoffRounds(r, 0)
}

// rejoin readmits a replica after a successful probe.
func (p *Pool) rejoin(r *Replica) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if r.state.Load() == stateHealthy {
		return
	}
	r.state.Store(stateHealthy)
	r.consecFails.Store(0)
	r.rejoins.Inc()
}

// backoffRounds derives how many probe rounds an ejected replica skips
// before rejoin attempt `attempt`: exponential base 2^min(attempt,6) with a
// deterministic jitter in [0.5, 1.5) drawn from the seeded uniform stream.
// Jitter decorrelates replicas ejected in the same storm without giving up
// reproducibility — the draw is a pure function of (seed, replica, ejection
// count, attempt).
func (p *Pool) backoffRounds(r *Replica, attempt uint64) uint64 {
	a := attempt
	if a > 6 {
		a = 6
	}
	base := float64(uint64(1) << a)
	j := fault.Uniform(p.seed, "gateway/backoff/"+r.Name(), r.ejectCount<<8|attempt)
	return uint64(base * (0.5 + j))
}

// Probe runs one probe round: every healthy replica gets a liveness check
// (probe failures feed the same consecutive-failure ejection as forward
// failures, so a dead-but-idle replica is still discovered), and every
// ejected replica whose backoff has elapsed gets a rejoin probe. Replicas
// are probed sequentially in index order so the fault layer's per-point hit
// counters — and therefore a seeded probe storm — are deterministic.
func (p *Pool) Probe(ctx context.Context) {
	p.mu.Lock()
	p.round++
	var due []*Replica
	for _, r := range p.replicas {
		if r.state.Load() == stateHealthy {
			due = append(due, r)
			continue
		}
		if r.waitRounds > 0 {
			r.waitRounds--
			continue
		}
		due = append(due, r)
	}
	p.mu.Unlock()

	for _, r := range due {
		err := fault.Inject(fault.GatewayProbe)
		if err == nil {
			status, _, cerr := r.backend.Call(ctx, "/healthz", nil)
			if cerr != nil {
				err = cerr
			} else if status != 200 {
				// A replica without a model (or mid-crash) answers 503; it is
				// alive but cannot serve, which routing must treat as down.
				err = errProbeUnhealthy
			}
		}
		if err == nil {
			if r.Healthy() {
				r.consecFails.Store(0)
			} else {
				p.rejoin(r)
			}
			continue
		}
		if r.Healthy() {
			p.recordFailure(r)
		} else {
			p.mu.Lock()
			r.probeAttempt++
			r.waitRounds = p.backoffRounds(r, r.probeAttempt)
			p.mu.Unlock()
		}
	}
}
