package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"zerotune/internal/cluster"
	"zerotune/internal/core"
	"zerotune/internal/desim"
	"zerotune/internal/gateway"
	"zerotune/internal/gnn"
	"zerotune/internal/loadgen"
	"zerotune/internal/queryplan"
	"zerotune/internal/serve"
	"zerotune/internal/workload"
)

// runPlan is the capacity planner: it answers "what is the maximum RPS this
// serve-tier configuration sustains inside a p99 SLO?" and "how do candidate
// configurations compare on identical load?" by running the seeded bench
// workload through the serve-tier discrete-event simulator instead of a live
// cluster. A full multi-scenario plan costs seconds of CPU; the same spec
// can then be replayed against real replicas with `zerotune bench` to check
// the simulator's answer.
func runPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	model := fs.String("model", "", "model to calibrate service timings from (omit with -service to plan without a model)")
	measureReps := fs.Int("measure-reps", 5, "repetitions per timing measurement when calibrating from -model")
	service := fs.String("service", "", "pin per-stage service times: gateway=2µs,encode=25µs,base=150µs,peritem=6µs,hit=3µs,fallback=10µs (pinning makes runs byte-reproducible)")

	seed := fs.Uint64("seed", 1, "seed for the arrival/class/body draws (same seed = byte-identical schedule and trace)")
	arrival := fs.String("arrival", "poisson", "interarrival process: poisson | gamma | weibull | uniform")
	cv := fs.Float64("cv", 1, "interarrival coefficient of variation (gamma/weibull)")
	diurnal := fs.Float64("diurnal", 0, "diurnal rate-envelope amplitude in [0,1)")
	diurnalPeriod := fs.Duration("diurnal-period", 0, "diurnal period (default: the step duration)")
	classMix := fs.String("classes", "", "SLO class mix of generated load: name=weight,...")
	corpus := fs.Int("corpus", 8, "number of distinct request bodies in the generated corpus")

	replicaList := fs.String("replicas", "1,3", "replica counts to compare, comma-separated (each is one scenario)")
	route := fs.String("route", "", "routing policy: affinity | round-robin | least-loaded (default affinity)")
	slo := fs.String("slo", "", "admission classes: name=rate[:burst[:priority]],...")
	batchWindow := fs.Duration("batch-window", 0, "micro-batch collection window (default: the serve tier's)")
	maxBatch := fs.Int("max-batch", 0, "micro-batch size cap (default: the serve tier's)")
	queueDepth := fs.Int("queue-depth", 0, "per-replica queue bound (default: the serve tier's)")
	cacheEntries := fs.Int("cache", 0, "per-replica cache entries (default: the serve tier's; negative disables)")
	failureProb := fs.Float64("failure-prob", 0, "per-flush forward failure probability (exercises breaker dynamics)")
	circuit := fs.Int("circuit-threshold", 0, "consecutive failures tripping the breaker (default: the serve tier's; negative disables)")

	p99 := fs.Duration("p99", 50*time.Millisecond, "SLO target: corrected p99 must stay inside this")
	goodput := fs.Float64("goodput-fraction", 0.95, "SLO target: goodput must cover this fraction of offered load")
	minRate := fs.Float64("min-rate", 50, "search floor (req/s)")
	maxRate := fs.Float64("max-rate", 50_000, "search ceiling (req/s)")
	iterations := fs.Int("iterations", 12, "bisection budget per scenario")
	stepDuration := fs.Duration("step-duration", 5*time.Second, "virtual horizon per evaluated rate")
	rate := fs.Float64("rate", 0, "skip the search: compare scenarios at this fixed offered rate")

	tracePath := fs.String("trace", "", "write the decision trace (every routing/queueing/caching decision) here")
	reportPath := fs.String("report", "", "write the machine-readable JSON report (benchjson-compatible) here")
	_ = fs.Parse(args)

	svc, err := planServiceModel(*service, *model, *seed, *measureReps)
	if err != nil {
		return err
	}
	counts, err := parseReplicaList(*replicaList)
	if err != nil {
		return err
	}
	classes, err := parseClassMix(*classMix)
	if err != nil {
		return err
	}
	sloClasses, err := parseSLOClasses(*slo)
	if err != nil {
		return err
	}
	bodies, err := benchBodies(*seed, *corpus)
	if err != nil {
		return err
	}
	spec := loadgen.Spec{
		Seed:             *seed,
		Arrival:          loadgen.ArrivalKind(*arrival),
		CV:               *cv,
		DiurnalAmplitude: *diurnal,
		DiurnalPeriod:    *diurnalPeriod,
		Classes:          classes,
		Bodies:           bodies,
	}

	// trace stays a true nil interface when no path was given — a typed-nil
	// *os.File would read as "tracing on" downstream.
	var trace io.Writer
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		trace = f
	}

	scenarios := make([]desim.Scenario, 0, len(counts))
	for _, n := range counts {
		scenarios = append(scenarios, desim.Scenario{
			Name: fmt.Sprintf("replicas=%d", n),
			Config: desim.ServeConfig{
				Replicas:         n,
				BatchWindow:      *batchWindow,
				MaxBatch:         *maxBatch,
				QueueDepth:       *queueDepth,
				CacheEntries:     *cacheEntries,
				Route:            gateway.RoutePolicy(*route),
				Classes:          sloClasses,
				Service:          svc,
				CircuitThreshold: *circuit,
				FailureProb:      *failureProb,
				Seed:             *seed,
			},
		})
	}

	rep := &planReport{
		Mode:    "plan",
		Target:  "desim",
		Trace:   loadgen.HeaderFromSpec(spec),
		Service: svc,
	}
	if *rate > 0 {
		// Fixed-rate what-if: every scenario sees the same schedule.
		spec.Rate = *rate
		spec.Duration = *stepDuration
		rep.Mode = "plan-fixed"
		rep.Fixed, err = desim.Compare(spec, scenarios, trace)
		if err != nil {
			return err
		}
		fmt.Print(fixedTable(*rate, rep.Fixed))
	} else {
		target := desim.SLOTarget{P99: *p99, GoodputFraction: *goodput}
		opts := desim.SearchOptions{
			Spec:         spec,
			MinRPS:       *minRate,
			MaxRPS:       *maxRate,
			Iterations:   *iterations,
			StepDuration: *stepDuration,
			Trace:        trace,
		}
		for _, sc := range scenarios {
			res, err := desim.SearchMaxRPS(sc.Name, sc.Config, target, opts)
			if err != nil {
				return err
			}
			rep.Plans = append(rep.Plans, res)
		}
		fmt.Print(planTable(*p99, rep.Plans))
	}
	rep.buildBenchmarks()

	if *reportPath != "" {
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*reportPath, append(out, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "plan: report written to %s\n", *reportPath)
	}
	if trace != nil {
		fmt.Fprintf(os.Stderr, "plan: decision trace written to %s\n", *tracePath)
	}
	return nil
}

// planServiceModel resolves the simulator's cost table: pinned -service
// overrides beat -model calibration beat the committed defaults.
func planServiceModel(pin, model string, seed uint64, reps int) (desim.ServiceModel, error) {
	svc := desim.DefaultServiceModel()
	if model != "" {
		zt, err := core.LoadFile(model)
		if err != nil {
			return svc, fmt.Errorf("plan: %w", err)
		}
		// Calibrate on the engine `zerotune serve` runs; a model its gate
		// refuses is one serve would not load.
		if err := zt.Compile(gnn.CompileOptions{}); err != nil {
			return svc, fmt.Errorf("plan: %w", err)
		}
		gen := workload.NewSeenGenerator(seed)
		structures := workload.SeenRanges().Structures
		var plans []*queryplan.PQP
		var clu *cluster.Cluster
		for i := 0; i < 4; i++ {
			q, c, err := gen.SampleQuery(structures[i%len(structures)], uint64(i+1))
			if err != nil {
				return svc, fmt.Errorf("plan: sample plan %d: %w", i, err)
			}
			plans = append(plans, queryplan.NewPQP(q))
			if clu == nil {
				clu = c
			}
		}
		t, err := serve.MeasureServiceTimings(context.Background(), zt, plans, clu, reps)
		if err != nil {
			return svc, fmt.Errorf("plan: %w", err)
		}
		svc = desim.ServiceModelFromTimings(t)
		fmt.Fprintf(os.Stderr, "plan: calibrated from %s: encode=%s base=%s peritem=%s\n",
			model, time.Duration(svc.EncodeNs), time.Duration(svc.ForwardBaseNs), time.Duration(svc.ForwardPerItemNs))
	}
	if pin != "" {
		if err := applyServicePins(&svc, pin); err != nil {
			return svc, err
		}
	}
	return svc, nil
}

// applyServicePins parses "stage=duration,..." overrides onto the model.
func applyServicePins(svc *desim.ServiceModel, pin string) error {
	for _, entry := range strings.Split(pin, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, val, ok := strings.Cut(entry, "=")
		if !ok {
			return fmt.Errorf("plan: -service entry %q: want stage=duration", entry)
		}
		d, err := time.ParseDuration(val)
		if err != nil {
			return fmt.Errorf("plan: -service entry %q: %w", entry, err)
		}
		ns := d.Nanoseconds()
		switch name {
		case "gateway":
			svc.GatewayNs = ns
		case "encode":
			svc.EncodeNs = ns
		case "base":
			svc.ForwardBaseNs = ns
		case "peritem":
			svc.ForwardPerItemNs = ns
		case "hit":
			svc.CacheHitNs = ns
		case "fallback":
			svc.FallbackNs = ns
		default:
			return fmt.Errorf("plan: -service entry %q: unknown stage (want gateway|encode|base|peritem|hit|fallback)", entry)
		}
	}
	return nil
}

// parseReplicaList parses the -replicas scenario list ("1,3,6").
func parseReplicaList(spec string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(spec, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("plan: -replicas entry %q: want a positive count", f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, errors.New("plan: -replicas names no scenarios")
	}
	return out, nil
}

// planReport is the machine-readable output; Benchmarks mirrors
// cmd/benchjson's schema like the bench report does.
type planReport struct {
	Mode       string                   `json:"mode"`
	Target     string                   `json:"target"`
	Trace      loadgen.TraceHeader      `json:"trace"`
	Service    desim.ServiceModel       `json:"service"`
	Plans      []*desim.PlanResult      `json:"plans,omitempty"`
	Fixed      []desim.ScenarioResult   `json:"fixed,omitempty"`
	Benchmarks []loadgen.BenchmarkEntry `json:"benchmarks"`
}

func (r *planReport) buildBenchmarks() {
	for _, p := range r.Plans {
		best := p.Best()
		r.Benchmarks = append(r.Benchmarks, loadgen.BenchmarkEntry{
			Name:       "plan/" + p.Scenario,
			Iterations: int64(best.Requests),
			NsPerOp:    best.Latency.P50 * 1e6,
			Metrics: map[string]float64{
				"max-rps":     p.MaxRPS,
				"fail-rps":    p.FailRPS,
				"p99-ms":      best.Latency.P99,
				"goodput-rps": best.GoodputRPS,
			},
		})
	}
	for _, f := range r.Fixed {
		r.Benchmarks = append(r.Benchmarks, loadgen.BenchmarkEntry{
			Name:       "plan/" + f.Scenario,
			Iterations: int64(f.Step.Requests),
			NsPerOp:    f.Step.Latency.P50 * 1e6,
			Metrics: map[string]float64{
				"offered-rps": f.Step.OfferedRPS,
				"goodput-rps": f.Step.GoodputRPS,
				"p99-ms":      f.Step.Latency.P99,
				"cache-hits":  float64(f.Stats.CacheHits),
				"degraded":    float64(f.Stats.Degraded),
			},
		})
	}
}

// planTable renders the search results, one row per scenario: the capacity
// interval and the operating point at the sustained rate.
func planTable(p99 time.Duration, plans []*desim.PlanResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "capacity under p99 ≤ %s:\n", p99)
	fmt.Fprintf(&b, "%14s %10s %10s %9s %9s %9s %6s\n",
		"scenario", "max rps", "knee <", "p50", "p99", "goodput", "evals")
	for _, p := range plans {
		best := p.Best()
		maxCol, failCol := "none", "—"
		if p.MaxRPS > 0 {
			maxCol = fmt.Sprintf("%.0f/s", p.MaxRPS)
		}
		if p.FailRPS > 0 {
			failCol = fmt.Sprintf("%.0f/s", p.FailRPS)
		}
		fmt.Fprintf(&b, "%14s %10s %10s %7.2fms %7.2fms %7.1f/s %6d\n",
			p.Scenario, maxCol, failCol, best.Latency.P50, best.Latency.P99, best.GoodputRPS, len(p.Evals))
	}
	return b.String()
}

// fixedTable renders the fixed-rate comparison.
func fixedTable(rate float64, fixed []desim.ScenarioResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenarios at %.0f req/s (shared arrival schedule):\n", rate)
	fmt.Fprintf(&b, "%14s %9s %9s %9s %8s %9s %9s %9s\n",
		"scenario", "goodput", "p50", "p99", "hits", "coalesced", "degraded", "rejected")
	for _, f := range fixed {
		fmt.Fprintf(&b, "%14s %7.1f/s %7.2fms %7.2fms %8d %9d %9d %9d\n",
			f.Scenario, f.Step.GoodputRPS, f.Step.Latency.P50, f.Step.Latency.P99,
			f.Stats.CacheHits, f.Stats.Coalesced, f.Stats.Degraded,
			f.Stats.AdmissionRejected+f.Stats.QueueRejected)
	}
	return b.String()
}
