package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"zerotune/internal/desim"
	"zerotune/internal/gateway"
	"zerotune/internal/loadgen"
	"zerotune/internal/serve"
)

// planCommand is the capacity planner: it answers "what is the maximum RPS
// this serve-tier configuration sustains inside a p99 SLO?" and "how do
// candidate configurations compare on identical load?" by running the seeded
// bench workload through the serve-tier discrete-event simulator instead of a
// live cluster. A full multi-scenario plan costs seconds of CPU; the same
// spec can then be replayed against real replicas with `zerotune bench` to
// check the simulator's answer.
func planCommand(fs *flag.FlagSet) func() error {
	var (
		gen    specFlags
		tier   desim.ServeConfig // every scenario's configuration but its replica count
		target desim.SLOTarget
		search desim.SearchOptions
	)
	model := fs.String("model", "", "model to read service times from: the spec's own bodies are served once, one request at a time, by an in-process gateway and replica, and the stage histograms they fill are the cost table (without it, -service must name every stage that should cost anything)")
	service := fs.String("service", "", "pin per-stage service times, e.g. gateway=2µs,encode=25µs,base=150µs,peritem=6µs,hit=3µs,fallback=10µs; an unnamed stage keeps what -model read, or costs nothing without -model (pinning makes runs byte-reproducible)")

	bindSpec(fs, &gen, "schedule and trace", "step duration")

	replicaList := fs.String("replicas", "1,3", "replica counts to compare, comma-separated (each is one scenario)")
	fs.StringVar((*string)(&tier.Route), "route", "", "routing policy: affinity | round-robin | least-loaded (default affinity)")
	slo := bindSLO(fs, "admission classes", "")
	fs.DurationVar(&tier.BatchWindow, "batch-window", 0, "longest a micro-batch is held for requests on their way to it (default: the serve tier's; negative: never hold)")
	fs.IntVar(&tier.MaxBatch, "max-batch", 0, "micro-batch size cap (default: the serve tier's)")
	fs.IntVar(&tier.QueueDepth, "queue-depth", 0, "per-replica queue bound (default: the serve tier's)")
	fs.IntVar(&tier.CacheEntries, "cache", 0, "per-replica cache entries (default: the serve tier's; negative disables)")
	fs.Float64Var(&tier.FailureProb, "failure-prob", 0, "per-flush forward failure probability (exercises breaker dynamics)")
	fs.IntVar(&tier.CircuitThreshold, "circuit-threshold", 0, "consecutive failures tripping the breaker (default: the serve tier's; negative disables)")

	fs.DurationVar(&target.P99, "p99", desim.DefaultP99, "SLO target: corrected p99 must stay inside this")
	fs.Float64Var(&target.GoodputFraction, "goodput-fraction", desim.DefaultGoodputFraction, "SLO target: goodput must cover this fraction of offered load")
	fs.Float64Var(&search.MinRPS, "min-rate", desim.DefaultMinRPS, "search floor (req/s)")
	fs.Float64Var(&search.MaxRPS, "max-rate", desim.DefaultMaxRPS, "search ceiling (req/s)")
	fs.IntVar(&search.Iterations, "iterations", desim.DefaultIterations, "bisection budget per scenario")
	fs.DurationVar(&search.StepDuration, "step-duration", desim.DefaultStepDuration, "virtual horizon per evaluated rate")
	rate := fs.Float64("rate", 0, "skip the search: compare scenarios at this fixed offered rate")

	tracePath := fs.String("trace", "", "write the decision trace (every routing/queueing/caching decision) here")
	reportPath := bindReport(fs)
	return func() error {
		counts, err := parseReplicaList(*replicaList)
		if err != nil {
			return err
		}
		if tier.Classes, err = parseSLOClasses(*slo); err != nil {
			return err
		}
		spec, err := gen.build()
		if err != nil {
			return err
		}
		tier.Seed = spec.Seed
		if *model == "" && *service == "" {
			return errors.New("plan: no service times: give -model to read them from a live replica, or -service to pin them")
		}
		if *model != "" {
			if tier.Service, err = calibrate(*model, spec); err != nil {
				return fmt.Errorf("plan: calibrate from %s: %w", *model, err)
			}
		}
		if err := applyServicePins(&tier.Service, *service); err != nil {
			return err
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
			cfg := tier
			cfg.Replicas = n
			scenarios = append(scenarios, desim.Scenario{Name: fmt.Sprintf("replicas=%d", n), Config: cfg})
		}

		rep := &planReport{
			Mode:    "plan",
			Target:  "desim",
			Trace:   loadgen.HeaderFromSpec(spec),
			Service: tier.Service,
		}
		if *rate > 0 {
			// Fixed-rate what-if: every scenario sees the same schedule.
			spec.Rate = *rate
			spec.Duration = search.StepDuration
			rep.Mode = "plan-fixed"
			rep.Fixed, err = desim.Compare(spec, scenarios, trace)
			if err != nil {
				return err
			}
			fmt.Print(fixedTable(*rate, rep.Fixed))
		} else {
			search.Spec, search.Trace = spec, trace
			for _, sc := range scenarios {
				res, err := desim.SearchMaxRPS(sc.Name, sc.Config, target, search)
				if err != nil {
					return err
				}
				rep.Plans = append(rep.Plans, res)
			}
			fmt.Print(planTable(target.P99, rep.Plans))
		}
		rep.buildBenchmarks()

		if err := writeReport("plan", *reportPath, rep); err != nil {
			return err
		}
		if trace != nil {
			fmt.Fprintf(os.Stderr, "plan: decision trace written to %s\n", *tracePath)
		}
		return nil
	}
}

// A calibration run offers calibrationRate requests a second, evenly spaced:
// slow enough that every request finds the replica quiet and is timed alone,
// as the simulator's per-request terms are meant. It sends four requests per
// corpus body, so nearly every body is both missed and hit.
const calibrationRate = 500

// calibrate reads the simulator's cost table off a live tier: it serves the
// model from an in-process gateway and replica, drives the spec's own corpus
// and class mix through them once, and hands the stage histograms that run
// filled to desim.ServiceModelFromStages; the forward line is fitted on the
// engine the replica runs. Each term is printed with the stages it sums.
func calibrate(model string, spec loadgen.Spec) (svc desim.ServiceModel, err error) {
	ctx := context.Background()
	tgt, err := benchTarget("plan", "", model, 1, "", 0)
	if err != nil {
		return svc, err
	}
	defer tgt.close()
	spec.Arrival, spec.Rate, spec.DiurnalAmplitude = loadgen.ArrivalUniform, calibrationRate, 0
	spec.MaxRequests = 4 * len(spec.Bodies)
	spec.Duration = time.Duration(spec.MaxRequests+1) * time.Second / calibrationRate
	sched, err := spec.Schedule()
	if err != nil {
		return svc, err
	}
	results, err := loadgen.Run(ctx, sched, loadgen.RunOptions{Target: tgt})
	if err != nil {
		return svc, err
	}
	if step := loadgen.BuildStep(spec.Rate, spec.Duration, results); step.OK != step.Requests {
		return svc, fmt.Errorf("%d of %d calibration requests failed", step.Requests-step.OK, step.Requests)
	}
	pages, err := tgt.pages(ctx)
	if err != nil {
		return svc, err
	}
	samples := append(pages[0].samples, pages[1].samples...) // the gateway's page, the replica's
	if svc, err = desim.ServiceModelFromStages(samples); err != nil {
		return svc, err
	}
	plans, clusters, err := benchPlans(spec.Seed, 4)
	if err != nil {
		return svc, err
	}
	zt := tgt.replicas[0].Server().Registry().Current().ZT
	if svc.ForwardBaseNs, svc.ForwardPerItemNs, err = desim.FitForward(ctx, zt, plans, clusters[0]); err != nil {
		return svc, err
	}

	stages := serve.ReadStages(samples)
	var encode []string
	for _, st := range desim.EncodeStages() {
		encode = append(encode, fmt.Sprintf("%s %.1fµs", st, stages[st].Mean()*1e6))
	}
	fmt.Fprintf(os.Stderr, "plan: calibrated from %d requests served one at a time, %d of them body hits:\n"+
		"plan:   hit     %10s = %s\nplan:   encode  %10s = %s\nplan:   gateway %10s = %s\n"+
		"plan:   base    %10s, peritem %s: the engine's forward pass at batches of 1 and %d\n",
		len(results), stages[serve.StageBodyHit].Count,
		time.Duration(svc.CacheHitNs), serve.StageBodyHit, time.Duration(svc.EncodeNs), strings.Join(encode, " + "),
		time.Duration(svc.GatewayNs), gateway.SelfMetric,
		time.Duration(svc.ForwardBaseNs), time.Duration(svc.ForwardPerItemNs), serve.DefaultMaxBatch)
	return svc, nil
}

// applyServicePins parses "stage=duration,..." overrides onto the model.
func applyServicePins(svc *desim.ServiceModel, pin string) error {
	stages := map[string]*int64{
		"gateway": &svc.GatewayNs, "encode": &svc.EncodeNs, "base": &svc.ForwardBaseNs,
		"peritem": &svc.ForwardPerItemNs, "hit": &svc.CacheHitNs, "fallback": &svc.FallbackNs,
	}
	return eachEntry("-service", pin, func(stage, val string) error {
		ns, ok := stages[stage]
		if !ok {
			return errors.New("unknown stage (want gateway|encode|base|peritem|hit|fallback)")
		}
		d, err := time.ParseDuration(val)
		*ns = d.Nanoseconds()
		return err
	})
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
