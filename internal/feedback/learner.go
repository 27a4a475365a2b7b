package feedback

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"zerotune/internal/core"
	"zerotune/internal/fault"
	"zerotune/internal/gnn"
	"zerotune/internal/obs"
	"zerotune/internal/workload"
)

// Typed errors of the learner. Callers branch with errors.Is.
var (
	// ErrNotEnoughSamples is returned by RunOnce when the store holds fewer
	// than Config.MinSamples samples.
	ErrNotEnoughSamples = errors.New("feedback: not enough samples for a fine-tune run")
	// ErrShadowRegressed is returned when the fine-tuned candidate's
	// holdout MAPE regresses past the allowed margin and is rejected.
	ErrShadowRegressed = errors.New("feedback: candidate regressed on shadow evaluation")
	// ErrRollback is returned when a promoted candidate failed the
	// post-promote check and the previous generation was swapped back in.
	ErrRollback = errors.New("feedback: promoted candidate rolled back")
	// ErrNoPromoter is returned when the learner is built without a
	// Promoter.
	ErrNoPromoter = errors.New("feedback: promoter is required")
)

// Promoter is the learner's view of the serving layer: the model currently
// serving (with its artifact path and generation) and the swap primitive.
// *serve.Server implements it.
type Promoter interface {
	// CurrentModel returns the active model, the artifact path it was
	// loaded from ("" for in-memory installs) and its generation.
	CurrentModel() (zt *core.ZeroTune, path string, gen uint64, err error)
	// PromoteModel load-validate-swaps the artifact at path in and returns
	// the new generation.
	PromoteModel(path string) (gen uint64, err error)
}

// holdoutPoint names the seeded uniform stream deciding holdout membership.
const holdoutPoint = "feedback.holdout"

// holdbackFrac is the share of drained samples held out of training for
// shadow evaluation (at least one sample each side).
const holdbackFrac = 0.25

// DefaultMinSamples gates a fine-tune run. Like every default of the learner
// it is declared here only: serve hands its Config through untouched and the
// CLI's flag reads this constant.
const DefaultMinSamples = 32

// Config configures a Learner. Zero fields take defaults.
type Config struct {
	// Store supplies the samples (required).
	Store *Store
	// Promoter supplies and swaps the serving model (required).
	Promoter Promoter
	// Dir receives candidate artifacts (default: the OS temp dir). Set it
	// when a promoted candidate should outlive a reboot; the CLI defaults
	// it next to the served model file.
	Dir string
	// MinSamples gates a run (default DefaultMinSamples).
	MinSamples int
	// MaxShadowRegress is the relative margin by which the candidate's
	// holdout MAPE may exceed the current model's before rejection
	// (default 0 — the candidate must be at least as good).
	MaxShadowRegress float64
	// Epochs for the fine-tune schedule (default: few-shot schedule's).
	Epochs int
	// Seed drives the train/holdout split and the fine-tune schedule.
	Seed uint64
	// Interval, when positive, also kicks a run periodically — drift trips
	// remain the primary trigger.
	Interval time.Duration
	// Registry receives the learner's instruments; nil creates a private
	// one.
	Registry *obs.Registry
}

// WithDefaults fills unset config fields.
func (c Config) WithDefaults() Config {
	if c.MinSamples < 2 {
		c.MinSamples = DefaultMinSamples
	}
	if c.MaxShadowRegress < 0 {
		c.MaxShadowRegress = 0
	}
	if c.Epochs < 1 {
		c.Epochs = core.FewShotTrainOptions().Epochs
	}
	if c.Dir == "" {
		c.Dir = os.TempDir()
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	return c
}

// Report describes one RunOnce outcome.
type Report struct {
	Samples       int     // drained into this run
	Holdout       int     // held back for shadow evaluation
	CurrentMAPE   float64 // serving model's holdout MAPE
	CandidateMAPE float64 // fine-tuned candidate's holdout MAPE
	CandidatePath string  // artifact written for the candidate ("" if rejected pre-write)
	Promoted      bool
	RolledBack    bool
	Gen           uint64 // generation after the run settled
}

// pendingJob carries an interrupted fine-tune across RunOnce calls: the
// drained samples and the last training checkpoint, so a ctx-cancelled run
// resumes instead of losing the drained data.
type pendingJob struct {
	train   []Sample
	holdout []Sample
	ckpt    *gnn.Checkpoint
}

// Learner drains the feedback store into shadow-evaluated fine-tune runs.
// One run at a time; Kick is non-blocking and coalesces.
type Learner struct {
	cfg  Config
	kick chan struct{}

	mu      sync.Mutex // serializes RunOnce
	pending *pendingJob

	runs       atomic.Uint64
	promotions atomic.Uint64
	rollbacks  atomic.Uint64
	rejected   atomic.Uint64

	runsCounter     *obs.Counter
	promoteCounter  *obs.Counter
	rollbackCounter *obs.Counter
	rejectedCounter *obs.Counter
	shadowCurrent   *obs.Gauge
	shadowCandidate *obs.Gauge
}

// NewLearner builds a learner from cfg.
func NewLearner(cfg Config) (*Learner, error) {
	if cfg.Store == nil {
		return nil, errors.New("feedback: learner needs a store")
	}
	if cfg.Promoter == nil {
		return nil, ErrNoPromoter
	}
	cfg = cfg.WithDefaults()
	reg := cfg.Registry
	return &Learner{
		cfg:             cfg,
		kick:            make(chan struct{}, 1),
		runsCounter:     reg.Counter("zerotune_finetune_runs_total"),
		promoteCounter:  reg.Counter("zerotune_promotions_total"),
		rollbackCounter: reg.Counter("zerotune_rollbacks_total"),
		rejectedCounter: reg.Counter("zerotune_finetune_rejected_total"),
		shadowCurrent:   reg.Gauge("zerotune_shadow_mape_current"),
		shadowCandidate: reg.Gauge("zerotune_shadow_mape_candidate"),
	}, nil
}

// Counts reports (runs, promotions, rollbacks, rejected) for health pages.
func (l *Learner) Counts() (runs, promotions, rollbacks, rejected uint64) {
	return l.runs.Load(), l.promotions.Load(), l.rollbacks.Load(), l.rejected.Load()
}

// Kick requests a fine-tune run; non-blocking, coalescing. Wire it to
// DetectorConfig.OnTrip.
func (l *Learner) Kick() {
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// Run services kicks (and the optional interval) until ctx ends. RunOnce
// errors are absorbed — they are already counted on the registry — so one
// bad run never stops the loop.
func (l *Learner) Run(ctx context.Context) {
	var tick <-chan time.Time
	if l.cfg.Interval > 0 {
		t := time.NewTicker(l.cfg.Interval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-l.kick:
		case <-tick:
		}
		if _, err := l.RunOnce(ctx); err != nil && ctx.Err() != nil {
			return
		}
	}
}

// RunOnce executes one full closed-loop iteration: drain → fine-tune a
// clone → compile → shadow-evaluate → write artifact → promote →
// post-promote check (the feedback.promote fault point) with automatic
// rollback. A
// ctx-cancelled fine-tune parks its checkpoint and drained samples; the
// next RunOnce resumes them.
func (l *Learner) RunOnce(ctx context.Context) (*Report, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, span := obs.StartSpan(ctx, "feedback.finetune")
	defer span.End()

	if l.pending == nil {
		if l.cfg.Store.Len() < l.cfg.MinSamples {
			span.SetAttr("skipped", "not_enough_samples")
			return nil, ErrNotEnoughSamples
		}
		train, holdout := splitSamples(l.cfg.Store.Drain(), holdbackFrac, l.cfg.Seed)
		l.pending = &pendingJob{train: train, holdout: holdout}
	}
	job := l.pending
	rep := &Report{Samples: len(job.train) + len(job.holdout), Holdout: len(job.holdout)}
	span.SetAttr("samples", rep.Samples)

	cur, curPath, curGen, err := l.cfg.Promoter.CurrentModel()
	if err != nil {
		l.pending = nil
		return rep, err
	}
	rep.Gen = curGen

	// Fine-tune a clone: core.FineTune mutates the model it runs on, and
	// the serving model must stay untouched until promotion.
	cand, err := cloneModel(cur)
	if err != nil {
		l.pending = nil
		return rep, err
	}
	// park returns err, keeping the job (samples + checkpoint) parked for
	// the next run when the error is a clean ctx interruption — whether it
	// struck during encoding, training, or shadow evaluation — and dropping
	// it on genuine failures.
	park := func(err error) error {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			span.SetAttr("interrupted", true)
		} else {
			l.pending = nil
		}
		return err
	}
	items, err := itemsOf(ctx, cand, job.train)
	if err != nil {
		return rep, park(err)
	}
	l.runs.Add(1)
	l.runsCounter.Inc()
	opts := core.FewShotTrainOptions()
	opts.Epochs = l.cfg.Epochs
	opts.Seed = l.cfg.Seed
	opts.Resume = job.ckpt
	opts.CheckpointEvery = 1
	opts.Checkpoint = func(ck *gnn.Checkpoint) error { job.ckpt = ck; return nil }
	// FineTune ends by compiling, so the candidate is judged on the engine
	// that would serve it, and an accuracy-gate refusal rejects it before its
	// artifact is written.
	if _, err := cand.FineTune(ctx, items, opts); err != nil {
		if errors.Is(err, gnn.ErrAccuracyGate) {
			l.rejected.Add(1)
			l.rejectedCounter.Inc()
		}
		return rep, park(err)
	}

	// Shadow evaluation: both models answer the held-back slice; the
	// candidate must not regress. The job stays parked until the run
	// settles — a resumed run replays fine-tune from the final checkpoint
	// (a no-op) and lands back here.
	curMAPE, err := shadowMAPE(ctx, cur, job.holdout)
	if err != nil {
		return rep, park(err)
	}
	candMAPE, err := shadowMAPE(ctx, cand, job.holdout)
	if err != nil {
		return rep, park(err)
	}
	l.pending = nil
	rep.CurrentMAPE, rep.CandidateMAPE = curMAPE, candMAPE
	l.shadowCurrent.Set(gaugeSafe(curMAPE))
	l.shadowCandidate.Set(gaugeSafe(candMAPE))
	span.SetAttr("current_mape", curMAPE)
	span.SetAttr("candidate_mape", candMAPE)
	if !(candMAPE <= curMAPE*(1+l.cfg.MaxShadowRegress)) || math.IsNaN(candMAPE) {
		l.rejected.Add(1)
		l.rejectedCounter.Inc()
		return rep, fmt.Errorf("%w: candidate %.4f vs current %.4f", ErrShadowRegressed, candMAPE, curMAPE)
	}

	// Artifact write → load-validate-swap promotion.
	candPath := filepath.Join(l.cfg.Dir, fmt.Sprintf("candidate-gen%d.json", curGen+1))
	if err := cand.SaveFile(candPath); err != nil {
		return rep, err
	}
	rep.CandidatePath = candPath
	gen, err := l.cfg.Promoter.PromoteModel(candPath)
	if err != nil {
		l.rejected.Add(1)
		l.rejectedCounter.Inc()
		return rep, err
	}
	rep.Promoted, rep.Gen = true, gen
	l.promotions.Add(1)
	l.promoteCounter.Inc()

	// Post-promote check. The injection point stands in for a shadow
	// regression detected after the swap; an error rolls the previous
	// generation back in.
	if err := fault.Inject(fault.FeedbackPromote); err != nil {
		if curPath == "" {
			return rep, fmt.Errorf("%w: previous model has no artifact path: %w", ErrRollback, err)
		}
		rbGen, rbErr := l.cfg.Promoter.PromoteModel(curPath)
		if rbErr != nil {
			return rep, fmt.Errorf("feedback: rollback failed: %w (cause: %w)", rbErr, err)
		}
		rep.RolledBack, rep.Promoted, rep.Gen = true, false, rbGen
		l.rollbacks.Add(1)
		l.rollbackCounter.Inc()
		return rep, fmt.Errorf("%w: %w", ErrRollback, err)
	}
	return rep, nil
}

// cloneModel deep-copies a model via its artifact round-trip — the one
// serialization that is guaranteed complete.
func cloneModel(zt *core.ZeroTune) (*core.ZeroTune, error) {
	var buf bytes.Buffer
	if err := zt.Save(&buf); err != nil {
		return nil, err
	}
	return core.Load(&buf)
}

// splitSamples deterministically partitions samples into train and holdout
// slices: membership is a seeded uniform draw per index, with a guarantee
// of at least one sample on each side.
func splitSamples(samples []Sample, frac float64, seed uint64) (train, holdout []Sample) {
	for i, s := range samples {
		if fault.Uniform(seed, holdoutPoint, uint64(i+1)) < frac {
			holdout = append(holdout, s)
		} else {
			train = append(train, s)
		}
	}
	if len(holdout) == 0 && len(train) > 1 {
		holdout = append(holdout, train[len(train)-1])
		train = train[:len(train)-1]
	}
	if len(train) == 0 && len(holdout) > 1 {
		train = append(train, holdout[len(holdout)-1])
		holdout = holdout[:len(holdout)-1]
	}
	return train, holdout
}

// itemsOf converts samples to labelled workload items for core.FineTune:
// observed costs become the training labels, and graphs are re-labelled
// copies (never mutating a graph the serving cache may still hold).
func itemsOf(ctx context.Context, zt *core.ZeroTune, samples []Sample) ([]*workload.Item, error) {
	items := make([]*workload.Item, 0, len(samples))
	for i, s := range samples {
		if s.ObservedLatencyMs <= 0 || s.ObservedThroughputEPS <= 0 {
			continue
		}
		g := s.Graph
		if g == nil {
			if s.Plan == nil || s.Cluster == nil {
				continue
			}
			t, err := s.Plan.Query.Analyze()
			if err == nil {
				g, err = zt.EncodePlan(ctx, t, s.Plan, s.Cluster)
			}
			if err != nil {
				return nil, fmt.Errorf("feedback: encode sample %d: %w", i, err)
			}
		}
		cp := *g
		cp.LatencyMs = s.ObservedLatencyMs
		cp.ThroughputEPS = s.ObservedThroughputEPS
		items = append(items, &workload.Item{
			Plan: s.Plan, Cluster: s.Cluster,
			LatencyMs: s.ObservedLatencyMs, ThroughputEPS: s.ObservedThroughputEPS,
			Graph: &cp,
		})
	}
	if len(items) == 0 {
		return nil, errors.New("feedback: no usable training samples")
	}
	return items, nil
}

// shadowMAPE evaluates a model against held-back observations: the mean
// absolute percentage error over both targets (latency and throughput).
func shadowMAPE(ctx context.Context, zt *core.ZeroTune, holdout []Sample) (float64, error) {
	var preds, observed []float64
	for i, s := range holdout {
		if s.Plan == nil || s.Cluster == nil {
			continue
		}
		p, err := zt.Predict(ctx, s.Plan, s.Cluster)
		if err != nil {
			return math.NaN(), fmt.Errorf("feedback: shadow predict %d: %w", i, err)
		}
		if s.ObservedLatencyMs > 0 {
			preds = append(preds, p.LatencyMs)
			observed = append(observed, s.ObservedLatencyMs)
		}
		if s.ObservedThroughputEPS > 0 {
			preds = append(preds, p.ThroughputEPS)
			observed = append(observed, s.ObservedThroughputEPS)
		}
	}
	if len(preds) == 0 {
		return math.NaN(), errors.New("feedback: no usable holdout samples")
	}
	return MAPE(preds, observed), nil
}
