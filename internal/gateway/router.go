package gateway

import "zerotune/internal/fault"

// affinityScore ranks replica ownership of a key under rendezvous hashing:
// the replica whose name scores highest owns it. Scores reuse the fault
// package's seeded splitmix64∘FNV uniform, the keyed-hash machinery the
// fault layer already trusts.
func affinityScore(key uint64, name string) float64 {
	return fault.Uniform(key, "gateway/affinity/"+name, 0)
}

// pick routes one forward attempt by rendezvous (highest-random-weight)
// hashing of the request fingerprint over replica names: the highest-scoring
// routable replica takes it. A given body lands on the same replica while it
// is healthy, so per-replica plan and body caches shard instead of each
// replica warming the full working set. Placement is a pure function of
// (key, replica names): stable across gateway restarts, independent of
// replica order, and only the ejected owner's keys move on membership
// change.
//
// replicas is the full pool in index order; tried is a bitmask of indices
// already attempted for this request, so successive picks under a growing
// mask walk the pool in descending score order — the order retries
// follow. A nil result means no routable replica
// remains. spill reports that the key's owner exists but was not routable,
// so the request landed on a runner-up.
func pick(replicas []*Replica, key uint64, tried uint64) (r *Replica, spill bool) {
	var owner, best *Replica
	var ownerScore, bestScore float64
	for _, r := range replicas {
		s := affinityScore(key, r.Name())
		if owner == nil || s > ownerScore {
			owner, ownerScore = r, s
		}
		if !r.Healthy() || tried&(1<<uint(r.idx)) != 0 {
			continue
		}
		if best == nil || s > bestScore {
			best, bestScore = r, s
		}
	}
	return best, best != nil && best != owner
}
