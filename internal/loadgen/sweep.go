package loadgen

import (
	"context"
	"fmt"
	"time"
)

// Defaults of a sweep (SweepOptions).
const (
	DefaultSweepFactor     = 2
	DefaultSweepSteps      = 5
	DefaultStepDuration    = 5 * time.Second
	DefaultGoodputFraction = 0.9
)

// SweepOptions configures a closed-form RPS sweep: offered load walks
// upward step by step until the saturation knee — the point where goodput
// stops tracking offered rate — is located, or the steps run out.
type SweepOptions struct {
	// Start is the first step's offered rate (req/s).
	Start float64
	// Factor multiplies the rate between steps (default DefaultSweepFactor;
	// must be > 1 unless Add is set).
	Factor float64
	// Add is added to the rate between steps (applied after Factor; 0 = off).
	Add float64
	// Steps is the number of load steps (default DefaultSweepSteps).
	Steps int
	// StepDuration is each step's horizon (default DefaultStepDuration).
	StepDuration time.Duration
	// GoodputFraction defines saturation: a step whose goodput falls below this
	// fraction of its offered rate is past the knee (DefaultGoodputFraction).
	GoodputFraction float64
	// Run configures the per-step open-loop runner.
	Run RunOptions
}

func (o *SweepOptions) validate() error {
	if o.Start <= 0 {
		return fmt.Errorf("loadgen: sweep start rate must be positive, got %g", o.Start)
	}
	if o.Factor == 0 && o.Add == 0 {
		o.Factor = DefaultSweepFactor
	}
	if o.Factor == 0 {
		o.Factor = 1
	}
	if o.Factor < 1 || (o.Factor == 1 && o.Add <= 0) {
		return fmt.Errorf("loadgen: sweep must walk load upward (factor %g, add %g)", o.Factor, o.Add)
	}
	if o.Steps <= 0 {
		o.Steps = DefaultSweepSteps
	}
	if o.StepDuration <= 0 {
		o.StepDuration = DefaultStepDuration
	}
	if o.GoodputFraction <= 0 || o.GoodputFraction > 1 {
		o.GoodputFraction = DefaultGoodputFraction
	}
	return nil
}

// Sweep runs base's workload at increasing offered rates and locates the
// saturation knee. base.Rate and base.Duration are overridden per step;
// everything else (seed, arrival process, class mix, bodies) is shared, so
// each step's schedule stays a pure function of (spec, step rate).
//
// The sweep stops early once a step saturates — driving an already-downed
// server harder only burns time — and reports the last sustaining rate as
// the knee.
func Sweep(ctx context.Context, base Spec, opts SweepOptions) (*Report, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	rep := &Report{Mode: "sweep", Trace: HeaderFromSpec(base)}
	rate := opts.Start
	var lastGood float64
	for step := 0; step < opts.Steps; step++ {
		spec := base
		spec.Rate = rate
		spec.Duration = opts.StepDuration
		reqs, err := spec.Schedule()
		if err != nil {
			return nil, err
		}
		results, err := Run(ctx, reqs, opts.Run)
		if err != nil {
			return rep, err
		}
		st := BuildStep(rate, opts.StepDuration, results)
		rep.Steps = append(rep.Steps, st)
		if st.GoodputRPS < opts.GoodputFraction*rate {
			rep.Saturated = true
			rep.KneeRPS = lastGood  // 0 when even the first step collapsed
			rep.KneeUpperRPS = rate // first failing rate: knee ∈ (KneeRPS, rate]
			break
		}
		lastGood = rate
		rate = rate*opts.Factor + opts.Add
	}
	rep.Trace.Note = "sweep: per-step rates in steps[]"
	return rep, nil
}
