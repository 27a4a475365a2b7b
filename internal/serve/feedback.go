package serve

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"

	"zerotune/internal/cluster"
	"zerotune/internal/core"
	"zerotune/internal/fault"
	"zerotune/internal/features"
	"zerotune/internal/feedback"
	"zerotune/internal/gnn"
	"zerotune/internal/queryplan"
)

// Defaults of the parts of the learning loop the server builds itself; the
// learner's and the detector's own live in package feedback.
const (
	DefaultLearnStoreSize = 2048
	DefaultLearnSeed      = 1
)

// recentPerStored sizes the fingerprint → prediction index that attributes
// feedback to served predictions: this many entries per reservoir slot.
const recentPerStored = 4

// LearnOptions enables the closed continual-learning loop: /v1/feedback
// ingestion into a seed-deterministic reservoir, drift detection over
// prediction-vs-observed pairs, and drift-triggered shadow-evaluated
// fine-tune runs that auto-promote (and auto-roll-back) through the
// registry. Zero fields take defaults.
type LearnOptions struct {
	// StoreSize bounds the feedback reservoir (default DefaultLearnStoreSize).
	StoreSize int
	// Learner configures the fine-tune runs. Its Seed also drives reservoir
	// eviction (default DefaultLearnSeed); the server supplies Store,
	// Promoter and Registry.
	Learner feedback.Config
	// Drift configures the detector that trips those runs; the server
	// supplies Registry and OnTrip.
	Drift feedback.DetectorConfig
}

// WithDefaults fills the fields the server itself reads; Learner and Drift
// are defaulted by the feedback constructors they are handed to.
func (lo LearnOptions) WithDefaults() LearnOptions {
	if lo.StoreSize < 1 {
		lo.StoreSize = DefaultLearnStoreSize
	}
	if lo.Learner.Seed == 0 {
		lo.Learner.Seed = DefaultLearnSeed
	}
	return lo
}

// learnState bundles the server's closed-loop machinery.
type learnState struct {
	store    *feedback.Store
	detector *feedback.Detector
	learner  *feedback.Learner
	recent   *recentIndex
}

// newLearnState wires store → detector → learner onto the server's
// registry, with the server itself as the promoter.
func (s *Server) newLearnState(lo LearnOptions) (*learnState, error) {
	lo = lo.WithDefaults()
	reg := s.opts.Registry
	ls := &learnState{
		store:  feedback.NewStore(lo.StoreSize, lo.Learner.Seed, reg),
		recent: newRecentIndex(recentPerStored * lo.StoreSize),
	}
	lo.Learner.Store, lo.Learner.Promoter, lo.Learner.Registry = ls.store, s, reg
	learner, err := feedback.NewLearner(lo.Learner)
	if err != nil {
		return nil, err
	}
	ls.learner = learner
	lo.Drift.Registry, lo.Drift.OnTrip = reg, learner.Kick
	ls.detector = feedback.NewDetector(lo.Drift)
	return ls, nil
}

// StartLearning launches the learner loop (drift-trip and interval
// driven); it exits when ctx ends. Reports false when the server was built
// without LearnOptions.
func (s *Server) StartLearning(ctx context.Context) bool {
	if s.learn == nil {
		return false
	}
	go s.learn.learner.Run(ctx)
	return true
}

// Learner exposes the learner for tests and the CLI; nil when learning is
// disabled.
func (s *Server) Learner() *feedback.Learner {
	if s.learn == nil {
		return nil
	}
	return s.learn.learner
}

// FeedbackStore exposes the reservoir; nil when learning is disabled.
func (s *Server) FeedbackStore() *feedback.Store {
	if s.learn == nil {
		return nil
	}
	return s.learn.store
}

// CurrentModel implements feedback.Promoter.
func (s *Server) CurrentModel() (*core.ZeroTune, string, uint64, error) {
	e := s.reg.Current()
	if e == nil {
		return nil, "", 0, ErrNoModel
	}
	return e.ZT, e.Path, e.Gen, nil
}

// PromoteModel implements feedback.Promoter: load-validate-swap the
// artifact at path, clearing the prediction caches like any reload.
func (s *Server) PromoteModel(path string) (uint64, error) {
	e, err := s.ServeModelFile(path)
	if err != nil {
		return 0, err
	}
	s.stats.Reloads.Add(1)
	return e.Gen, nil
}

// recentEntry is what /v1/feedback needs to attribute an observation: the
// plan, where it ran, its encoded graph, and what the model predicted.
type recentEntry struct {
	plan    *queryplan.PQP
	cluster *cluster.Cluster
	graph   *features.Graph
	predLat float64
	predTpt float64
}

// recentIndex is a bounded FIFO map from plan fingerprint to the most
// recent prediction served for it.
type recentIndex struct {
	mu   sync.Mutex
	m    map[Fingerprint]recentEntry
	ring []Fingerprint
	next int
}

func newRecentIndex(capacity int) *recentIndex {
	return &recentIndex{
		m:    make(map[Fingerprint]recentEntry, capacity),
		ring: make([]Fingerprint, capacity),
	}
}

func (ri *recentIndex) put(fp Fingerprint, e recentEntry) {
	ri.mu.Lock()
	defer ri.mu.Unlock()
	if _, ok := ri.m[fp]; ok {
		ri.m[fp] = e
		return
	}
	if len(ri.m) >= len(ri.ring) {
		delete(ri.m, ri.ring[ri.next])
	}
	ri.m[fp] = e
	ri.ring[ri.next] = fp
	ri.next = (ri.next + 1) % len(ri.ring)
}

func (ri *recentIndex) get(fp Fingerprint) (recentEntry, bool) {
	ri.mu.Lock()
	defer ri.mu.Unlock()
	e, ok := ri.m[fp]
	return e, ok
}

// noteRecent indexes a served prediction and stamps the response with the
// fingerprint clients echo back in /v1/feedback. No-op (and zero hot-path
// cost beyond a nil check) when learning is disabled.
func (s *Server) noteRecent(fp Fingerprint, p *queryplan.PQP, c *cluster.Cluster,
	g *features.Graph, pred gnn.Prediction, resp *PredictResponse) {
	if s.learn == nil {
		return
	}
	s.learn.recent.put(fp, recentEntry{
		plan: p, cluster: c, graph: g,
		predLat: pred.LatencyMs, predTpt: pred.ThroughputEPS,
	})
	resp.Fingerprint = hex.EncodeToString(fp[:])
}

// parseFingerprint decodes the hex form echoed by /v1/predict.
func parseFingerprint(s string) (Fingerprint, error) {
	var fp Fingerprint
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(fp) {
		return fp, fmt.Errorf("serve: malformed fingerprint %q", s)
	}
	copy(fp[:], b)
	return fp, nil
}

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	if s.learn == nil {
		WriteError(w, http.StatusServiceUnavailable, ErrLearningDisabled)
		return
	}
	if err := fault.Inject(fault.FeedbackIngest); err != nil {
		WriteError(w, http.StatusServiceUnavailable, err)
		return
	}
	var req FeedbackRequest
	if err := decodeJSON(w, r, &req); err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	if req.Fingerprint == "" {
		WriteError(w, http.StatusBadRequest, errors.New("serve: feedback needs the fingerprint echoed by /v1/predict"))
		return
	}
	if !isPositiveFinite(req.ObservedLatencyMs) || !isPositiveFinite(req.ObservedThroughputEPS) {
		WriteError(w, http.StatusBadRequest, errors.New("serve: observed latency and throughput must be positive finite"))
		return
	}
	fp, err := parseFingerprint(req.Fingerprint)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	e, ok := s.learn.recent.get(fp)
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("%w: %s", ErrUnknownFingerprint, req.Fingerprint))
		return
	}
	s.learn.store.Record(feedback.Sample{
		Fingerprint:            req.Fingerprint,
		Class:                  r.Header.Get(SLOClassHeader),
		Plan:                   e.plan,
		Cluster:                e.cluster,
		Graph:                  e.graph,
		PredictedLatencyMs:     e.predLat,
		PredictedThroughputEPS: e.predTpt,
		ObservedLatencyMs:      req.ObservedLatencyMs,
		ObservedThroughputEPS:  req.ObservedThroughputEPS,
	})
	s.learn.detector.Observe(e.predLat, req.ObservedLatencyMs)
	mape, pearson, _ := s.learn.detector.Stats()
	WriteJSON(w, http.StatusOK, FeedbackResponse{
		Accepted:      true,
		Fingerprint:   req.Fingerprint,
		StoreSize:     s.learn.store.Len(),
		Seen:          s.learn.store.Total(),
		DriftMAPE:     nanSafe(mape),
		DriftPearsonR: nanSafe(pearson),
	})
}

// learnInfo assembles the /healthz learning summary; nil when disabled.
func (s *Server) learnInfo() *LearnInfo {
	if s.learn == nil {
		return nil
	}
	mape, pearson, _ := s.learn.detector.Stats()
	runs, promotions, rollbacks, _ := s.learn.learner.Counts()
	return &LearnInfo{
		StoreSize:     s.learn.store.Len(),
		Seen:          s.learn.store.Total(),
		DriftMAPE:     nanSafe(mape),
		DriftPearsonR: nanSafe(pearson),
		DriftTrips:    s.learn.detector.Trips(),
		FineTunes:     runs,
		Promotions:    promotions,
		Rollbacks:     rollbacks,
	}
}

func isPositiveFinite(v float64) bool {
	return v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v)
}

// nanSafe renders NaN/Inf as 0 for JSON (encoding/json cannot encode NaN).
func nanSafe(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
