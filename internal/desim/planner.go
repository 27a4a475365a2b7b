package desim

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"zerotune/internal/loadgen"
)

// The capacity planner's half of the search: loadgen.Search asks the
// question — the highest rate this configuration sustains inside its p99
// bound — and Oracle answers each probe with the serve-tier simulator instead
// of a live tier; Compare asks "how do candidate configurations fare on the
// *same* arrival schedule?". All load is virtual; a planning run costs
// milliseconds of CPU, not minutes of cluster time.

// Scenario names one candidate configuration: a row of a compare or a search.
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
// spec; traces (one "# eval" section per scenario, when trace is set)
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
		res, err := simulate(sched, spec.Rate, wall, sc, trace)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// Oracle is the simulated oracle of a capacity search for one scenario: each
// rate is spec's workload — its seed, arrival process, class mix, bodies and
// Duration, the probe's horizon — drawn afresh at that rate and simulated,
// and the step is built by loadgen.BuildStep, the arithmetic a live probe
// uses. Like the simulator under it, it is deterministic: the same spec,
// scenario and search produce the same probes and byte-identical traces, one
// "# eval" section per probe when trace is set.
func Oracle(spec loadgen.Spec, sc Scenario, trace io.Writer) func(rate float64) (loadgen.StepReport, error) {
	return func(rate float64) (loadgen.StepReport, error) {
		spec.Rate = rate
		sched, err := spec.Schedule()
		if err != nil {
			return loadgen.StepReport{}, err
		}
		res, err := simulate(sched, rate, spec.Duration, sc, trace)
		return res.Step, err
	}
}

// simulate runs one scenario on a schedule offered at rate over wall.
func simulate(sched []loadgen.Request, rate float64, wall time.Duration, sc Scenario, trace io.Writer) (ScenarioResult, error) {
	cfg := sc.Config
	if trace != nil {
		if err := evalHeader(trace, sc.Name, rate); err != nil {
			return ScenarioResult{}, err
		}
		cfg.Trace = trace
	}
	run, err := SimulateServe(sched, cfg)
	if err != nil {
		return ScenarioResult{}, fmt.Errorf("scenario %q at %g rps: %w", sc.Name, rate, err)
	}
	return ScenarioResult{Scenario: sc.Name, Step: loadgen.BuildStep(rate, wall, run.Results()), Stats: run.Stats}, nil
}

// evalHeader separates per-evaluation trace sections. The rate renders via
// FormatFloat(-1): the shortest exact decimal, stable across runs.
func evalHeader(w io.Writer, scenario string, rate float64) error {
	_, err := io.WriteString(w,
		"# eval scenario="+scenario+" rate="+strconv.FormatFloat(rate, 'f', -1, 64)+"\n")
	return err
}
