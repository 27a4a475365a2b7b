package desim

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"zerotune/internal/loadgen"
)

// The capacity planner: binary search over offered rate, with the serve-tier
// simulator as the oracle, answering "what is the highest sustained RPS this
// configuration serves inside its p99 SLO?" — and, via Compare, "how do
// candidate configurations fare on the *same* arrival schedule?". All load
// is virtual; a planning run costs milliseconds of CPU, not minutes of
// cluster time.

// Defaults of a capacity search (SLOTarget, SearchOptions).
const (
	DefaultP99             = 50 * time.Millisecond
	DefaultGoodputFraction = 0.95
	DefaultMinRPS          = 50
	DefaultMaxRPS          = 50_000
	DefaultIterations      = 12 // a 1.5× starting bracket resolved to well under 1%
	DefaultStepDuration    = 5 * time.Second
)

// SLOTarget is what "sustained" means: the corrected p99 stays inside P99
// and goodput covers GoodputFraction of the offered rate. Admission or
// queue rejections count against goodput exactly as they do in live sweeps.
type SLOTarget struct {
	P99 time.Duration `json:"p99_ns"` // default DefaultP99
	// GoodputFraction is the least goodput/offered ratio (DefaultGoodputFraction).
	GoodputFraction float64 `json:"goodput_fraction"`
}

func (t SLOTarget) withDefaults() SLOTarget {
	if t.P99 <= 0 {
		t.P99 = DefaultP99
	}
	if t.GoodputFraction <= 0 || t.GoodputFraction > 1 {
		t.GoodputFraction = DefaultGoodputFraction
	}
	return t
}

// met reports whether one evaluated step sustains the target at its rate.
func (t SLOTarget) met(st loadgen.StepReport) bool {
	p99 := time.Duration(st.Latency.P99 * float64(time.Millisecond))
	return p99 <= t.P99 && st.GoodputRPS >= t.GoodputFraction*st.OfferedRPS
}

// SearchOptions bounds the max-RPS binary search.
type SearchOptions struct {
	// Spec is the workload template: seed, arrival process, class mix and
	// bodies are taken from it; Rate and Duration are overridden per
	// evaluation.
	Spec loadgen.Spec
	// MinRPS and MaxRPS bracket the search (DefaultMinRPS, DefaultMaxRPS).
	MinRPS float64
	MaxRPS float64
	// Iterations bounds the bisection count (default DefaultIterations).
	Iterations int
	// StepDuration is each evaluation's horizon (default DefaultStepDuration).
	StepDuration time.Duration
	// Trace, when set, receives every evaluation's decision trace, each
	// prefixed by a "# eval" header line.
	Trace io.Writer
}

func (o SearchOptions) withDefaults() SearchOptions {
	if o.MinRPS <= 0 {
		o.MinRPS = DefaultMinRPS
	}
	if o.MaxRPS <= o.MinRPS {
		o.MaxRPS = DefaultMaxRPS
	}
	if o.Iterations <= 0 {
		o.Iterations = DefaultIterations
	}
	if o.StepDuration <= 0 {
		o.StepDuration = DefaultStepDuration
	}
	return o
}

// RateEval is one probed operating point.
type RateEval struct {
	RPS       float64            `json:"rps"`
	Sustained bool               `json:"sustained"`
	Step      loadgen.StepReport `json:"step"`
}

// PlanResult is one scenario's capacity answer: MaxRPS is the highest
// evaluated rate that sustained the target, FailRPS the lowest that did not
// — the knee lies in (MaxRPS, FailRPS). FailRPS is 0 when even the search
// ceiling sustained (capacity exceeds the bracket), and MaxRPS is 0 when
// even the floor failed.
type PlanResult struct {
	Scenario string     `json:"scenario"`
	Target   SLOTarget  `json:"target"`
	MaxRPS   float64    `json:"max_rps"`
	FailRPS  float64    `json:"fail_rps,omitempty"`
	Evals    []RateEval `json:"evals"`
}

// Best returns the step evaluated at MaxRPS (zero StepReport when none
// sustained).
func (p *PlanResult) Best() loadgen.StepReport {
	for _, e := range p.Evals {
		if e.Sustained && e.RPS == p.MaxRPS {
			return e.Step
		}
	}
	return loadgen.StepReport{}
}

// SearchMaxRPS locates cfg's maximum sustainable rate under target by
// geometric bisection: evaluate the bracket ends, then repeatedly probe the
// geometric midpoint √(lo·hi) — rates spread over orders of magnitude, so
// the geometric mean halves the *ratio* uncertainty per step. The search,
// like the simulator under it, is deterministic: same spec, config and
// options produce the same evaluation sequence and byte-identical traces.
func SearchMaxRPS(scenario string, cfg ServeConfig, target SLOTarget, opts SearchOptions) (*PlanResult, error) {
	target = target.withDefaults()
	opts = opts.withDefaults()
	res := &PlanResult{Scenario: scenario, Target: target}

	eval := func(rate float64) (RateEval, error) {
		st, _, err := evalRate(scenario, cfg, opts, rate)
		if err != nil {
			return RateEval{}, err
		}
		ev := RateEval{RPS: rate, Sustained: target.met(st), Step: st}
		res.Evals = append(res.Evals, ev)
		return ev, nil
	}

	floor, err := eval(opts.MinRPS)
	if err != nil {
		return nil, err
	}
	if !floor.Sustained {
		res.FailRPS = opts.MinRPS
		return res, nil
	}
	ceil, err := eval(opts.MaxRPS)
	if err != nil {
		return nil, err
	}
	if ceil.Sustained {
		res.MaxRPS = opts.MaxRPS
		return res, nil
	}
	lo, hi := opts.MinRPS, opts.MaxRPS
	for i := 0; i < opts.Iterations && hi/lo > 1.01; i++ {
		mid := math.Round(math.Sqrt(lo * hi))
		if mid <= lo || mid >= hi {
			break
		}
		ev, err := eval(mid)
		if err != nil {
			return nil, err
		}
		if ev.Sustained {
			lo = mid
		} else {
			hi = mid
		}
	}
	res.MaxRPS = lo
	res.FailRPS = hi
	return res, nil
}

// Scenario names one candidate configuration for a counterfactual compare.
type Scenario struct {
	Name   string
	Config ServeConfig
}

// ScenarioResult is one scenario's outcome on the shared schedule.
type ScenarioResult struct {
	Scenario string             `json:"scenario"`
	Step     loadgen.StepReport `json:"step"`
	Stats    ServeStats         `json:"stats"`
}

// Compare runs every scenario against the *same* arrival schedule — the
// counterfactual contract: observed differences are attributable to the
// configuration alone, because the workload (every arrival instant, class
// and body) is shared byte-for-byte. The schedule is generated once from
// spec; traces (one "# eval" section per scenario, when opts.Trace is set)
// therefore agree on every "ev=arrive" line across scenarios.
func Compare(spec loadgen.Spec, scenarios []Scenario, trace io.Writer) ([]ScenarioResult, error) {
	sched, err := spec.Schedule()
	if err != nil {
		return nil, err
	}
	wall := spec.Duration
	if wall <= 0 && len(sched) > 0 {
		wall = sched[len(sched)-1].Offset
	}
	out := make([]ScenarioResult, 0, len(scenarios))
	for _, sc := range scenarios {
		cfg := sc.Config
		if trace != nil {
			if err := evalHeader(trace, sc.Name, spec.Rate); err != nil {
				return nil, err
			}
			cfg.Trace = trace
		}
		run, err := SimulateServe(sched, cfg)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
		out = append(out, ScenarioResult{
			Scenario: sc.Name,
			Step:     loadgen.BuildStep(spec.Rate, wall, run.Results()),
			Stats:    run.Stats,
		})
	}
	return out, nil
}

// evalRate simulates one (scenario, rate) operating point.
func evalRate(scenario string, cfg ServeConfig, opts SearchOptions, rate float64) (loadgen.StepReport, *RunResult, error) {
	spec := opts.Spec
	spec.Rate = rate
	spec.Duration = opts.StepDuration
	sched, err := spec.Schedule()
	if err != nil {
		return loadgen.StepReport{}, nil, err
	}
	if opts.Trace != nil {
		if err := evalHeader(opts.Trace, scenario, rate); err != nil {
			return loadgen.StepReport{}, nil, err
		}
		cfg.Trace = opts.Trace
	}
	run, err := SimulateServe(sched, cfg)
	if err != nil {
		return loadgen.StepReport{}, nil, fmt.Errorf("scenario %q at %g rps: %w", scenario, rate, err)
	}
	return loadgen.BuildStep(rate, opts.StepDuration, run.Results()), run, nil
}

// evalHeader separates per-evaluation trace sections. The rate renders via
// FormatFloat(-1): the shortest exact decimal, stable across runs.
func evalHeader(w io.Writer, scenario string, rate float64) error {
	_, err := io.WriteString(w,
		"# eval scenario="+scenario+" rate="+strconv.FormatFloat(rate, 'f', -1, 64)+"\n")
	return err
}
