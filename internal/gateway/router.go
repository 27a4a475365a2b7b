package gateway

import (
	"fmt"
	"sync/atomic"

	"zerotune/internal/fault"
)

// RoutePolicy names a replica-selection strategy.
type RoutePolicy string

const (
	// RouteRoundRobin cycles through healthy replicas in order.
	RouteRoundRobin RoutePolicy = "round-robin"
	// RouteLeastLoaded picks the healthy replica with the lowest
	// outstanding-request EWMA, so slow or saturated replicas shed load to
	// their peers automatically.
	RouteLeastLoaded RoutePolicy = "least-loaded"
	// RouteAffinity rendezvous-hashes the request fingerprint over replica
	// names: a given plan always lands on the same replica while it is
	// healthy, so per-replica plan and body caches shard naturally instead
	// of each replica warming the full working set. When the owner is
	// ejected the key spills to the runner-up and snaps back on rejoin.
	RouteAffinity RoutePolicy = "affinity"
)

// router picks a replica for one forward attempt. replicas is the full pool
// in index order; tried is a bitmask of indices already attempted for this
// request (retries must fan out, not hammer one backend). A nil result means
// no routable replica remains. spill is affinity-specific: the key's
// rendezvous owner exists but was not routable, so the request landed on a
// fallback replica.
type router interface {
	policy() RoutePolicy
	pick(replicas []*Replica, key uint64, tried uint64) (r *Replica, spill bool)
}

// newRouter resolves a policy name.
func newRouter(p RoutePolicy) (router, error) {
	switch p {
	case RouteRoundRobin:
		return &roundRobinRouter{}, nil
	case RouteLeastLoaded:
		return &leastLoadedRouter{}, nil
	case RouteAffinity:
		return &affinityRouter{}, nil
	default:
		return nil, fmt.Errorf("gateway: unknown routing policy %q", p)
	}
}

// routable reports whether r can take this attempt.
func routable(r *Replica, tried uint64) bool {
	return r.Healthy() && tried&(1<<uint(r.idx)) == 0
}

// roundRobinRouter cycles a shared counter, skipping unroutable replicas.
type roundRobinRouter struct{ next atomic.Uint64 }

func (rr *roundRobinRouter) policy() RoutePolicy { return RouteRoundRobin }

func (rr *roundRobinRouter) pick(replicas []*Replica, _ uint64, tried uint64) (*Replica, bool) {
	n := uint64(len(replicas))
	start := rr.next.Add(1) - 1
	for i := uint64(0); i < n; i++ {
		if r := replicas[(start+i)%n]; routable(r, tried) {
			return r, false
		}
	}
	return nil, false
}

// leastLoadedRouter ranks by (load EWMA, outstanding, index): the EWMA is
// the signal, the instantaneous outstanding count breaks near-ties toward
// the genuinely idler replica, and the index makes ties deterministic.
type leastLoadedRouter struct{}

func (*leastLoadedRouter) policy() RoutePolicy { return RouteLeastLoaded }

func (*leastLoadedRouter) pick(replicas []*Replica, _ uint64, tried uint64) (*Replica, bool) {
	var best *Replica
	var bestLoad float64
	var bestOut int64
	for _, r := range replicas {
		if !routable(r, tried) {
			continue
		}
		load, out := r.Load(), r.Outstanding()
		if best == nil || load < bestLoad || (load == bestLoad && out < bestOut) {
			best, bestLoad, bestOut = r, load, out
		}
	}
	return best, false
}

// affinityRouter implements rendezvous (highest-random-weight) hashing: each
// replica scores score(key, name) and the maximum over the full pool owns
// the key. Scores reuse the fault package's seeded splitmix64∘FNV uniform —
// the same keyed-hash machinery the fault layer already trusts — so placement is a pure function of (key, replica names): stable
// across gateway restarts, independent of replica order, and with minimal
// disruption (only the ejected owner's keys move) on membership change.
type affinityRouter struct{}

func (*affinityRouter) policy() RoutePolicy { return RouteAffinity }

// affinityScore ranks replica ownership of a key under rendezvous hashing:
// the replica whose name scores highest for the key owns it.
func affinityScore(key uint64, name string) float64 {
	return fault.Uniform(key, "gateway/affinity/"+name, 0)
}

func (*affinityRouter) pick(replicas []*Replica, key uint64, tried uint64) (*Replica, bool) {
	var owner, best *Replica
	var ownerScore, bestScore float64
	for _, r := range replicas {
		s := affinityScore(key, r.Name())
		if owner == nil || s > ownerScore {
			owner, ownerScore = r, s
		}
		if !routable(r, tried) {
			continue
		}
		if best == nil || s > bestScore {
			best, bestScore = r, s
		}
	}
	return best, best != nil && best != owner
}
