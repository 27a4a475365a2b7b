package loadgen

import (
	"context"
	"fmt"
	"math"
	"time"
)

// The capacity search is the one way this repo finds how much load a serving
// tier sustains: `zerotune bench -sweep` asks it of a live target through
// Oracle, which turns an offered rate into a measured StepReport.

// Defaults of a capacity search (SearchOptions).
const (
	DefaultP99          = 50 * time.Millisecond
	DefaultMinRPS       = 50
	DefaultMaxRPS       = 50_000
	DefaultStepDuration = 5 * time.Second
)

// sustainedOK is the least share of a step's requests that must succeed.
const sustainedOK = 0.95

// bracketRatio is how tightly the search pins the knee: it stops once the
// highest sustained and lowest failed rates are within 1 % of each other.
const bracketRatio = 1.01

// SearchOptions is the question a capacity search answers: the highest rate
// in [MinRPS, MaxRPS] at which StepDuration of offered load is sustained.
type SearchOptions struct {
	// P99 bounds a sustained step's corrected p99.
	P99 time.Duration `json:"p99_ns"`
	// MinRPS is the first rate probed, MaxRPS the highest.
	MinRPS float64 `json:"min_rps"`
	MaxRPS float64 `json:"max_rps"`
	// StepDuration is the horizon of each probe's load: the spec an oracle
	// is built on carries it as its Duration.
	StepDuration time.Duration `json:"step_duration_ns"`
}

// validate refuses a question with no answer, naming the flags that ask it.
func (o SearchOptions) validate() error {
	switch {
	case o.P99 <= 0:
		return fmt.Errorf("loadgen: search: -p99 must be positive, got %s", o.P99)
	case o.MinRPS <= 0:
		return fmt.Errorf("loadgen: search: -min-rate must be positive, got %g", o.MinRPS)
	case o.MaxRPS <= o.MinRPS:
		return fmt.Errorf("loadgen: search: -max-rate %g must exceed -min-rate %g", o.MaxRPS, o.MinRPS)
	case o.StepDuration <= 0:
		return fmt.Errorf("loadgen: search: -step-duration must be positive, got %s", o.StepDuration)
	}
	return nil
}

// sustained is the one test of a probe: its corrected p99 stays inside P99
// and at least sustainedOK of the requests the step actually scheduled
// succeeded. The share is of the step's own Requests, not of rate × horizon:
// a seeded Poisson schedule draws a few percent more or fewer arrivals than
// its mean, and goodput judged against arrivals that never happened fails
// steps in which every request succeeded.
func (o SearchOptions) sustained(st StepReport) bool {
	p99 := time.Duration(st.Latency.P99 * float64(time.Millisecond))
	return p99 <= o.P99 && float64(st.OK) >= sustainedOK*float64(st.Requests)
}

// Probe is one rate the search offered and the step the oracle measured.
type Probe struct {
	RPS       float64    `json:"rps"`
	Sustained bool       `json:"sustained"`
	Step      StepReport `json:"step"`
}

// Capacity is one search's answer: the knee lies between MaxRPS, the highest
// probed rate that was sustained, and FailRPS, the lowest that was not.
// MaxRPS is 0 when even SearchOptions.MinRPS failed; FailRPS is 0 when even
// SearchOptions.MaxRPS was sustained (the capacity exceeds the bracket).
type Capacity struct {
	// Scenario names what was searched: a URL, "serve", or "replicas=N".
	Scenario string  `json:"scenario"`
	MaxRPS   float64 `json:"max_rps"`
	FailRPS  float64 `json:"fail_rps,omitempty"`
	Probes   []Probe `json:"probes"`
}

// Best is the step measured at MaxRPS (zero when nothing was sustained).
func (c Capacity) Best() StepReport {
	for _, p := range c.Probes {
		if p.Sustained && p.RPS == c.MaxRPS {
			return p.Step
		}
	}
	return StepReport{}
}

// Search finds the highest rate eval sustains under opts; eval(rate) offers
// rate for opts.StepDuration and reports the step. It walks ×2 up from MinRPS
// until a rate fails or MaxRPS is sustained — so a live target is never
// driven past twice its knee — then bisects that bracket geometrically
// (√(lo·hi): rates span orders of magnitude, so this halves the ratio
// uncertainty) until it is within bracketRatio, which a bracket of at most 2×
// reaches in at most seven probes. The probe sequence is a function of opts
// and eval's answers alone, so a deterministic oracle gives identical runs.
func Search(opts SearchOptions, eval func(rate float64) (StepReport, error)) (Capacity, error) {
	var c Capacity
	if err := opts.validate(); err != nil {
		return c, err
	}
	probe := func(rate float64) (bool, error) {
		st, err := eval(rate)
		if err != nil {
			return false, err
		}
		ok := opts.sustained(st)
		c.Probes = append(c.Probes, Probe{RPS: rate, Sustained: ok, Step: st})
		if ok {
			c.MaxRPS = rate
		} else {
			c.FailRPS = rate
		}
		return ok, nil
	}
	for rate := opts.MinRPS; ; rate = min(2*rate, opts.MaxRPS) {
		ok, err := probe(rate)
		if err != nil {
			return c, err
		}
		if !ok || rate == opts.MaxRPS {
			break
		}
	}
	for c.MaxRPS > 0 && c.FailRPS/c.MaxRPS > bracketRatio {
		if _, err := probe(math.Sqrt(c.MaxRPS * c.FailRPS)); err != nil {
			return c, err
		}
	}
	return c, nil
}

// Oracle is the live oracle of a search: each rate is spec's workload — its
// seed, class mix, bodies and Duration, the probe's horizon — drawn afresh
// at that rate and run against run.Target.
func Oracle(ctx context.Context, spec Spec, run RunOptions) func(rate float64) (StepReport, error) {
	return func(rate float64) (StepReport, error) {
		spec.Rate = rate
		reqs, err := spec.Schedule()
		if err != nil {
			return StepReport{}, err
		}
		results, err := Run(ctx, reqs, run)
		if err != nil {
			return StepReport{}, err
		}
		return buildStep(rate, spec.Duration, results), nil
	}
}
