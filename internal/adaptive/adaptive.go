// Package adaptive implements runtime re-tuning on top of the zero-shot
// cost model. The paper focuses on *initial* parallelism selection but
// notes the model "can also be used to readjust parallelism degree at
// runtime" (Sec. I); this package is that extension: a controller that
// watches the observed source rates and, when they drift past a threshold,
// re-runs the what-if optimizer against the new rates — no trial
// deployments, no oscillation.
//
// Construct controllers with New and functional options:
//
//	ctl := adaptive.New(est,
//		adaptive.WithDriftThreshold(0.3),
//		adaptive.WithRegistry(reg),
//		adaptive.WithFeedback(store))
//
// When a feedback sink is configured, ObserveMetrics pairs the model's
// prediction for the running plan with the measured runtime numbers and
// records a feedback.Sample — the controller then participates in the same
// closed learning loop as /v1/feedback.
package adaptive

import (
	"context"
	"errors"
	"fmt"
	"math"

	"zerotune/internal/cluster"
	"zerotune/internal/feedback"
	"zerotune/internal/obs"
	"zerotune/internal/optimizer"
	"zerotune/internal/queryplan"
)

// Typed errors returned by Deploy and Observe. Match with errors.Is.
var (
	// ErrNoEstimator: the controller was built without a cost estimator.
	ErrNoEstimator = errors.New("adaptive: controller has no estimator")
	// ErrNotDeployed: Observe was called with a nil or undeployed State.
	ErrNotDeployed = errors.New("adaptive: observe on an undeployed state")
	// ErrBadRate: the observed total source rate was not positive.
	ErrBadRate = errors.New("adaptive: non-positive observed rate")
)

// FeedbackSink receives prediction-vs-observed samples from ObserveMetrics.
// *feedback.Store satisfies it.
type FeedbackSink interface {
	Record(feedback.Sample)
}

// Controller re-tunes a running query when its workload drifts. Build one
// with New and the With* options.
type Controller struct {
	// estimator prices candidate plans (normally the trained model).
	estimator optimizer.CostEstimator
	// tuneOptions configure each optimization pass.
	tuneOptions optimizer.TuneOptions
	// driftThreshold is the relative change in total source rate that
	// triggers re-tuning (0.3 = re-tune on ±30% drift).
	driftThreshold float64
	// minImprovement is the minimum predicted relative cost improvement
	// required to actually reconfigure — reconfiguration is expensive, so
	// marginal wins are skipped.
	minImprovement float64

	sink FeedbackSink

	// Metrics are nil unless WithRegistry was supplied.
	retunes      *obs.Counter
	observations *obs.Counter
	driftGauge   *obs.Gauge
}

// Option configures a Controller built by New.
type Option func(*Controller)

// WithTuneOptions overrides the optimizer options used by every pass.
func WithTuneOptions(o optimizer.TuneOptions) Option {
	return func(c *Controller) { c.tuneOptions = o }
}

// WithDriftThreshold sets the relative rate drift that triggers re-tuning.
func WithDriftThreshold(v float64) Option {
	return func(c *Controller) { c.driftThreshold = v }
}

// WithMinImprovement sets the predicted-score margin a new plan must beat
// the re-priced current plan by before the controller reconfigures.
func WithMinImprovement(v float64) Option {
	return func(c *Controller) { c.minImprovement = v }
}

// WithRegistry publishes controller metrics:
// zerotune_adaptive_retunes_total, zerotune_adaptive_observations_total,
// and the zerotune_adaptive_drift gauge (last relative drift seen).
func WithRegistry(reg *obs.Registry) Option {
	return func(c *Controller) {
		if reg == nil {
			return
		}
		c.retunes = reg.Counter("zerotune_adaptive_retunes_total")
		c.observations = reg.Counter("zerotune_adaptive_observations_total")
		c.driftGauge = reg.Gauge("zerotune_adaptive_drift")
	}
}

// WithFeedback routes prediction-vs-observed pairs from ObserveMetrics into
// sink (normally the server's *feedback.Store), closing the learning loop.
func WithFeedback(sink FeedbackSink) Option {
	return func(c *Controller) { c.sink = sink }
}

// New returns a controller with sane defaults, refined by opts.
func New(est optimizer.CostEstimator, opts ...Option) *Controller {
	c := &Controller{
		estimator:      est,
		tuneOptions:    optimizer.DefaultTuneOptions(),
		driftThreshold: 0.3,
		minImprovement: 0.05,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// State is the controller's view of one running query.
type State struct {
	Query *queryplan.Query // the query with the rates the plan was tuned for
	Plan  *queryplan.PQP
	// TunedRate is the total source rate the current plan was chosen for.
	TunedRate float64
	// Reconfigurations counts how many times the controller changed the
	// running plan.
	Reconfigurations int
}

// Observation is one runtime measurement fed to ObserveMetrics. TotalRate
// is required; LatencyMs and ThroughputEPS are optional measured numbers —
// when both are positive and a feedback sink is configured, the controller
// records a prediction-vs-observed sample.
type Observation struct {
	TotalRate     float64
	LatencyMs     float64
	ThroughputEPS float64
}

// totalRate sums the declared source rates of a query.
func totalRate(q *queryplan.Query) float64 {
	var sum float64
	for _, s := range q.Sources() {
		sum += s.EventRate
	}
	return sum
}

// Deploy performs the initial tuning for the query's declared rates.
func (c *Controller) Deploy(ctx context.Context, q *queryplan.Query, cl *cluster.Cluster) (*State, error) {
	ctx, span := obs.StartSpan(ctx, "adaptive.deploy")
	defer span.End()
	if c.estimator == nil {
		return nil, ErrNoEstimator
	}
	res, err := optimizer.Tune(ctx, q, cl, c.estimator, c.tuneOptions)
	if err != nil {
		return nil, err
	}
	span.SetAttr("tuned_rate", totalRate(q))
	return &State{Query: q, Plan: res.Plan, TunedRate: totalRate(q)}, nil
}

// scaledQuery returns a copy of q with every source rate scaled by factor.
func scaledQuery(q *queryplan.Query, factor float64) *queryplan.Query {
	clone := &queryplan.Query{Name: q.Name, Template: q.Template, Edges: append([]queryplan.Edge{}, q.Edges...)}
	for _, o := range q.Ops {
		op := *o
		if op.Type == queryplan.OpSource {
			op.EventRate *= factor
		}
		clone.Ops = append(clone.Ops, &op)
	}
	return clone
}

// Observe feeds the controller a new total source-rate observation. When
// the drift against the tuned rate exceeds the threshold, the controller
// re-tunes against the observed rate and reconfigures if the predicted
// weighted cost of the new plan beats the current plan's (re-priced at the
// observed rate) by at least the WithMinImprovement margin. It returns
// whether a reconfiguration happened.
func (c *Controller) Observe(ctx context.Context, st *State, cl *cluster.Cluster, observedRate float64) (bool, error) {
	return c.ObserveMetrics(ctx, st, cl, Observation{TotalRate: observedRate})
}

// ObserveMetrics is Observe with the full runtime measurement: in addition
// to the drift/re-tune decision on o.TotalRate, it records a
// prediction-vs-observed feedback sample when the observation carries
// measured latency and throughput and a sink was configured.
func (c *Controller) ObserveMetrics(ctx context.Context, st *State, cl *cluster.Cluster, o Observation) (bool, error) {
	ctx, span := obs.StartSpan(ctx, "adaptive.observe")
	defer span.End()
	if st == nil || st.Plan == nil {
		return false, ErrNotDeployed
	}
	if o.TotalRate <= 0 {
		return false, fmt.Errorf("%w: %v", ErrBadRate, o.TotalRate)
	}
	if c.estimator == nil {
		return false, ErrNoEstimator
	}
	if c.observations != nil {
		c.observations.Inc()
	}
	c.recordFeedback(ctx, st, cl, o)

	drift := o.TotalRate/st.TunedRate - 1
	if drift < 0 {
		drift = -drift
	}
	span.SetAttr("drift", drift)
	if c.driftGauge != nil {
		c.driftGauge.Set(drift)
	}
	if drift < c.driftThreshold {
		return false, nil
	}
	// Re-tune against the observed workload.
	factor := o.TotalRate / totalRate(st.Query)
	shifted := scaledQuery(st.Query, factor)
	res, err := optimizer.Tune(ctx, shifted, cl, c.estimator, c.tuneOptions)
	if err != nil {
		return false, err
	}
	// Price the currently running degrees under the new rates.
	current := queryplan.NewPQP(shifted)
	for _, op := range shifted.Ops {
		current.SetDegree(op.ID, st.Plan.Degree(op.ID))
	}
	if err := cluster.Place(current, cl); err != nil {
		return false, err
	}
	curEst, err := c.estimator.Estimate(ctx, current, cl)
	if err != nil {
		return false, err
	}
	// Compare on the optimizer's scale-free score (lower is better).
	curScore := scoreOf(curEst, c.tuneOptions.Weight)
	newScore := scoreOf(res.Estimate, c.tuneOptions.Weight)
	if curScore-newScore < c.minImprovement {
		// Not worth a reconfiguration; accept the drift as the new normal
		// so the controller does not re-evaluate every observation.
		st.Query = shifted
		st.TunedRate = o.TotalRate
		st.Plan = current
		return false, nil
	}
	st.Query = shifted
	st.Plan = res.Plan
	st.TunedRate = o.TotalRate
	st.Reconfigurations++
	if c.retunes != nil {
		c.retunes.Inc()
	}
	span.SetAttr("retuned", true)
	return true, nil
}

// recordFeedback pairs the model's prediction for the running plan with
// the measured numbers and hands the sample to the sink. Best-effort: an
// estimator error here must not fail the observation.
func (c *Controller) recordFeedback(ctx context.Context, st *State, cl *cluster.Cluster, o Observation) {
	if c.sink == nil || o.LatencyMs <= 0 || o.ThroughputEPS <= 0 {
		return
	}
	est, err := c.estimator.Estimate(ctx, st.Plan, cl)
	if err != nil {
		return
	}
	c.sink.Record(feedback.Sample{
		Class:                  "adaptive",
		Plan:                   st.Plan,
		Cluster:                cl,
		PredictedLatencyMs:     est.LatencyMs,
		PredictedThroughputEPS: est.ThroughputEPS,
		ObservedLatencyMs:      o.LatencyMs,
		ObservedThroughputEPS:  o.ThroughputEPS,
	})
}

// scoreOf mirrors the optimizer's log-score: wt·ln(lat) − (1−wt)·ln(tpt).
func scoreOf(e optimizer.Estimate, wt float64) float64 {
	return wt*math.Log(math.Max(e.LatencyMs, 1e-9)) - (1-wt)*math.Log(math.Max(e.ThroughputEPS, 1e-9))
}
