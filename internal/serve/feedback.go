package serve

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"sync"
	"time"

	"zerotune/internal/cluster"
	"zerotune/internal/core"
	"zerotune/internal/fault"
	"zerotune/internal/features"
	"zerotune/internal/feedback"
	"zerotune/internal/gnn"
	"zerotune/internal/queryplan"
)

// LearnOptions enables the closed continual-learning loop: /v1/feedback
// ingestion into a seed-deterministic reservoir, drift detection over
// prediction-vs-observed pairs, and drift-triggered shadow-evaluated
// fine-tune runs that auto-promote (and auto-roll-back) through the
// registry. Zero fields take defaults.
type LearnOptions struct {
	// StoreSize bounds the feedback reservoir (default 2048).
	StoreSize int
	// RecentSize bounds the fingerprint → prediction index that attributes
	// feedback to served predictions (default 4×StoreSize).
	RecentSize int
	// Seed drives reservoir eviction, the train/holdout split, and the
	// fine-tune schedule (default 1).
	Seed uint64
	// MinSamples gates a fine-tune run (default 32).
	MinSamples int
	// Epochs per fine-tune run (default: the few-shot schedule's).
	Epochs int
	// Dir receives candidate artifacts (default: the OS temp dir; the cmd
	// layer defaults it next to the served model file).
	Dir string
	// HoldbackFrac is the shadow-evaluation share (default 0.25).
	HoldbackFrac float64
	// MaxShadowRegress is the relative holdout-MAPE margin a candidate may
	// regress by and still promote (default 0).
	MaxShadowRegress float64
	// DriftWindow / DriftMinSamples / DriftMAPE / DriftPearson configure
	// the detector (defaults 256 / 32 / 0.5 / disabled).
	DriftWindow     int
	DriftMinSamples int
	DriftMAPE       float64
	DriftPearson    float64
	// Interval additionally runs the learner periodically (0 = drift-trip
	// only).
	Interval time.Duration
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
	if lo.StoreSize < 1 {
		lo.StoreSize = 2048
	}
	if lo.RecentSize < 1 {
		lo.RecentSize = 4 * lo.StoreSize
	}
	if lo.Seed == 0 {
		lo.Seed = 1
	}
	if lo.MinSamples < 2 {
		lo.MinSamples = 32
	}
	if lo.Dir == "" {
		lo.Dir = os.TempDir()
	}
	reg := s.opts.Registry
	ls := &learnState{
		store:  feedback.NewStore(lo.StoreSize, lo.Seed, reg),
		recent: newRecentIndex(lo.RecentSize),
	}
	learner, err := feedback.NewLearner(feedback.Config{
		Store:            ls.store,
		Promoter:         s,
		Dir:              lo.Dir,
		MinSamples:       lo.MinSamples,
		HoldbackFrac:     lo.HoldbackFrac,
		MaxShadowRegress: lo.MaxShadowRegress,
		Epochs:           lo.Epochs,
		Seed:             lo.Seed,
		Interval:         lo.Interval,
		Registry:         reg,
	})
	if err != nil {
		return nil, err
	}
	ls.learner = learner
	ls.detector = feedback.NewDetector(feedback.DetectorConfig{
		Window:        lo.DriftWindow,
		MinSamples:    lo.DriftMinSamples,
		MAPEThreshold: lo.DriftMAPE,
		PearsonFloor:  lo.DriftPearson,
		Registry:      reg,
		OnTrip:        learner.Kick,
	})
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
		writeError(w, http.StatusServiceUnavailable, ErrLearningDisabled)
		return
	}
	if err := fault.Inject(fault.FeedbackIngest); err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	var req FeedbackRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Fingerprint == "" {
		writeError(w, http.StatusBadRequest, errors.New("serve: feedback needs the fingerprint echoed by /v1/predict"))
		return
	}
	if !isPositiveFinite(req.ObservedLatencyMs) || !isPositiveFinite(req.ObservedThroughputEPS) {
		writeError(w, http.StatusBadRequest, errors.New("serve: observed latency and throughput must be positive finite"))
		return
	}
	fp, err := parseFingerprint(req.Fingerprint)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	e, ok := s.learn.recent.get(fp)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w: %s", ErrUnknownFingerprint, req.Fingerprint))
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
	writeJSON(w, http.StatusOK, FeedbackResponse{
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
