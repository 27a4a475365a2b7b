// Package feedback closes the loop between serving and training: observed
// runtime costs reported by clients (or by the adaptive controller) are
// retained in a bounded, seed-deterministic reservoir, a drift detector
// compares them against the predictions that were served, and a learner
// drains the reservoir into a shadow-evaluated fine-tune whose candidate is
// auto-promoted through the artifact + hot-reload machinery — with
// automatic rollback when the promoted model regresses.
//
// The pipeline, end to end:
//
//	ingest → reservoir Store → drift Detector ─trip→ Learner.RunOnce
//	  RunOnce: drain → split train/holdout → clone + core.FineTune
//	         → compile gate + shadow eval (holdout MAPE) → artifact write
//	         → promote (registry swap) → post-promote check → rollback?
//
// Every random decision — reservoir eviction, holdout membership — draws
// from the fault package's seeded splitmix64 stream, so the retained set
// and the split are pure functions of (seed, ingest order).
package feedback

import (
	"sync"

	"zerotune/internal/cluster"
	"zerotune/internal/fault"
	"zerotune/internal/features"
	"zerotune/internal/obs"
	"zerotune/internal/queryplan"
)

// Sample is one closed-loop observation: what the model predicted for a
// plan, and what actually happened when it ran.
type Sample struct {
	// Fingerprint is the hex plan fingerprint (provenance; the store does
	// not key on it, repeated observations of one plan are all evidence).
	Fingerprint string
	// Class is the SLO class the observation arrived under ("" = default).
	Class string

	// Plan and Cluster let the trainer re-encode under a feature mask.
	Plan    *queryplan.PQP
	Cluster *cluster.Cluster
	// Graph is the plan encoded under the serving model's mask (optional;
	// the learner re-encodes from Plan/Cluster when nil).
	Graph *features.Graph

	PredictedLatencyMs     float64
	PredictedThroughputEPS float64
	ObservedLatencyMs      float64
	ObservedThroughputEPS  float64
}

// maxClassLabels bounds the per-class counter cardinality; classes beyond
// the cap are counted under "other" so a misbehaving client cannot grow
// /metrics without bound.
const maxClassLabels = 16

// reservoirPoint names the seeded uniform stream driving evictions.
const reservoirPoint = "feedback.reservoir"

// Store is a bounded reservoir of feedback samples (Vitter's Algorithm R).
// Every sample ever offered has equal probability of being retained, and
// the eviction draws come from the seeded splitmix64 stream: the same seed
// and the same ingest sequence retain the identical set. Safe for
// concurrent use.
type Store struct {
	mu       sync.Mutex
	capacity int
	seed     uint64
	seen     uint64 // offered since the last Drain
	total    uint64 // offered over the store's lifetime
	samples  []Sample

	reg      *obs.Registry
	size     *obs.Gauge
	ingested map[string]*obs.Counter
}

// NewStore builds a reservoir retaining at most capacity samples (minimum
// 1). reg receives zerotune_feedback_store_size and the per-class
// zerotune_feedback_ingested_total counters; nil creates a private one.
func NewStore(capacity int, seed uint64, reg *obs.Registry) *Store {
	if capacity < 1 {
		capacity = 1
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Store{
		capacity: capacity,
		seed:     seed,
		samples:  make([]Sample, 0, capacity),
		reg:      reg,
		ingested: make(map[string]*obs.Counter),
	}
	s.size = reg.Gauge("zerotune_feedback_store_size")
	return s
}

// Record offers one sample to the reservoir.
func (s *Store) Record(smp Sample) {
	s.mu.Lock()
	s.seen++
	s.total++
	if len(s.samples) < s.capacity {
		s.samples = append(s.samples, smp)
	} else {
		// Algorithm R: the i-th offer replaces a uniform slot in [0, i)
		// when that slot lands inside the reservoir.
		j := uint64(fault.Uniform(s.seed, reservoirPoint, s.seen) * float64(s.seen))
		if j < uint64(s.capacity) {
			s.samples[j] = smp
		}
	}
	s.size.Set(float64(len(s.samples)))
	ctr := s.classCounter(smp.Class)
	s.mu.Unlock()
	ctr.Inc()
}

// classCounter returns (lazily creating) the ingest counter for class.
// Caller holds s.mu.
func (s *Store) classCounter(class string) *obs.Counter {
	if class == "" {
		class = "default"
	}
	if _, ok := s.ingested[class]; !ok && len(s.ingested) >= maxClassLabels {
		class = "other"
	}
	c, ok := s.ingested[class]
	if !ok {
		c = s.reg.Counter("zerotune_feedback_ingested_total", obs.L("class", class))
		s.ingested[class] = c
	}
	return c
}

// Len reports how many samples the reservoir currently retains.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.samples)
}

// Seen reports how many samples were offered since the last Drain.
func (s *Store) Seen() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen
}

// Total reports how many samples were ever offered.
func (s *Store) Total() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Snapshot returns a copy of the retained set in insertion/replacement
// order, leaving the reservoir intact.
func (s *Store) Snapshot() []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Sample(nil), s.samples...)
}

// Drain removes and returns the retained set, resetting the reservoir (and
// its eviction stream) for the next fill. The learner calls this once per
// fine-tune run.
func (s *Store) Drain() []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.samples
	s.samples = make([]Sample, 0, s.capacity)
	s.seen = 0
	s.size.Set(0)
	return out
}
