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
		search loadgen.SearchOptions
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

	bindSearch(fs, &search)
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

		spec.Duration = search.StepDuration
		rep := &planReport{
			Report:  loadgen.Report{Mode: "plan", Target: "desim", Trace: loadgen.HeaderFromSpec(spec)},
			Service: tier.Service,
		}
		if *rate > 0 {
			// Fixed-rate what-if: every scenario sees the same schedule.
			spec.Rate = *rate
			rep.Mode = "plan-fixed"
			if rep.Fixed, err = desim.Compare(spec, scenarios, trace); err != nil {
				return err
			}
			fmt.Print(fixedTable(*rate, rep.Fixed))
		} else {
			rep.Search = &search
			for _, sc := range scenarios {
				c, err := loadgen.Search(search, desim.Oracle(spec, sc, trace))
				if err != nil {
					return err
				}
				c.Scenario = sc.Name
				rep.Capacity = append(rep.Capacity, c)
			}
			fmt.Print(rep.Table())
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

// calibrate reads the simulator's cost table off a live tier: it serves the
// model from an in-process gateway and replica, drives the spec's
// desim.CalibrationSpec through them once, and hands the stage histograms
// that run filled to desim.ServiceModelFromStages; the forward line is fitted
// on the engine the replica runs. Each term is printed with the stages it sums.
func calibrate(model string, spec loadgen.Spec) (svc desim.ServiceModel, err error) {
	ctx := context.Background()
	tgt, err := benchTarget("plan", "", model, 1, "", 0)
	if err != nil {
		return svc, err
	}
	defer tgt.close()
	spec = desim.CalibrationSpec(spec)
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

// planReport is bench's report plus what only a plan has: the cost table it
// simulated and the fixed-rate comparison.
type planReport struct {
	loadgen.Report
	Service desim.ServiceModel     `json:"service"`
	Fixed   []desim.ScenarioResult `json:"fixed,omitempty"`
}

func (r *planReport) buildBenchmarks() {
	r.BuildBenchmarks("plan")
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
