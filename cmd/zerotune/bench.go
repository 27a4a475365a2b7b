package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"zerotune/internal/gateway"
	"zerotune/internal/loadgen"
	"zerotune/internal/queryplan"
	"zerotune/internal/serve"
	"zerotune/internal/workload"
)

// parseClassMix parses the -classes flag: name=weight,... entries defining
// the SLO-class mix of generated load.
func parseClassMix(spec string) ([]loadgen.ClassShare, error) {
	if spec == "" {
		return nil, nil
	}
	var classes []loadgen.ClassShare
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, val, ok := strings.Cut(entry, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bench: -classes entry %q: want name=weight", entry)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("bench: -classes entry %q: weight: %w", entry, err)
		}
		classes = append(classes, loadgen.ClassShare{Name: name, Weight: w})
	}
	return classes, nil
}

// benchBodies builds n distinct /v1/predict payloads from the seeded
// workload generator, cycling the seen query structures. The corpus is a
// pure function of the seed, like everything else in a bench run.
func benchBodies(seed uint64, n int) ([][]byte, error) {
	if n < 1 {
		n = 1
	}
	gen := workload.NewSeenGenerator(seed)
	structures := workload.SeenRanges().Structures
	bodies := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		q, c, err := gen.SampleQuery(structures[i%len(structures)], uint64(i+1))
		if err != nil {
			return nil, fmt.Errorf("bench: sample body %d: %w", i, err)
		}
		req := serve.PredictRequest{
			Plan:    queryplan.NewPQP(q),
			Cluster: serve.ClusterSpec{Workers: len(c.Nodes)},
		}
		b, err := json.Marshal(req)
		if err != nil {
			return nil, fmt.Errorf("bench: encode body %d: %w", i, err)
		}
		bodies = append(bodies, b)
	}
	return bodies, nil
}

// benchTarget resolves what the harness drives: a remote URL, an in-process
// gateway fronting N replicas, or a single in-process serve instance. The
// returned closer tears down whatever was started.
func benchTarget(targetURL, model string, replicas int, slo string, timeout time.Duration) (loadgen.Target, string, func(), error) {
	if targetURL != "" {
		t, err := loadgen.NewHTTPTarget(strings.TrimRight(targetURL, "/"), nil)
		if err != nil {
			return nil, "", nil, err
		}
		return t, targetURL, func() {}, nil
	}
	if replicas > 0 {
		classes, err := parseSLOClasses(slo)
		if err != nil {
			return nil, "", nil, err
		}
		pool, closeReplicas, err := inProcessReplicas("bench", model, replicas, timeout)
		if err != nil {
			return nil, "", nil, err
		}
		g, err := gateway.New(asBackends(pool), gateway.Options{Classes: classes, RequestTimeout: timeout})
		if err != nil {
			closeReplicas()
			return nil, "", nil, err
		}
		g.Start()
		return loadgen.HandlerTarget{Handler: g}, "gateway", func() { g.Close(); closeReplicas() }, nil
	}
	pool, closeReplicas, err := inProcessReplicas("bench", model, 1, timeout)
	if err != nil {
		return nil, "", nil, err
	}
	return loadgen.HandlerTarget{Handler: pool[0].Server()}, "serve", closeReplicas, nil
}

// runBench is the open-loop load harness: fixed-rate runs, saturation
// sweeps, and deterministic trace record/replay, all reporting
// coordinated-omission-corrected percentiles over the full per-request
// record.
func runBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	target := fs.String("target", "", "remote base URL (http://host:port); default: in-process serve")
	model := fs.String("model", "model.json", "model path for in-process targets")
	replicas := fs.Int("replicas", 0, "front this many in-process replicas with the gateway")
	slo := fs.String("slo", "", "gateway SLO classes for -replicas: name=rate[:burst[:priority]],...")
	seed := fs.Uint64("seed", 1, "seed for the arrival/class/body draws (same seed = byte-identical schedule)")
	rate := fs.Float64("rate", 200, "mean offered load (req/s)")
	duration := fs.Duration("duration", 10*time.Second, "intended-send horizon")
	arrival := fs.String("arrival", "poisson", "interarrival process: poisson | gamma | weibull | uniform")
	cv := fs.Float64("cv", 1, "interarrival coefficient of variation (gamma/weibull)")
	diurnal := fs.Float64("diurnal", 0, "diurnal rate-envelope amplitude in [0,1)")
	diurnalPeriod := fs.Duration("diurnal-period", 0, "diurnal period (default: the duration)")
	classMix := fs.String("classes", "", "SLO class mix of generated load: name=weight,...")
	corpus := fs.Int("corpus", 8, "number of distinct request bodies in the generated corpus")
	maxRequests := fs.Int("max-requests", 0, "additionally cap the schedule length (0 = unlimited)")
	record := fs.String("record", "", "write the schedule (bodies, intended send times, classes) as a trace file")
	replay := fs.String("replay", "", "replay a recorded trace byte-exactly instead of generating a schedule")
	dry := fs.Bool("dry", false, "build (and -record) the schedule without sending any load")
	sweepMode := fs.Bool("sweep", false, "walk offered load upward to locate the saturation knee")
	sweepStart := fs.Float64("sweep-start", 0, "first sweep step's rate (default: -rate)")
	sweepFactor := fs.Float64("sweep-factor", 2, "rate multiplier between sweep steps")
	sweepSteps := fs.Int("sweep-steps", 5, "number of sweep steps")
	stepDuration := fs.Duration("step-duration", 5*time.Second, "per-step horizon in sweep mode")
	goodput := fs.Float64("goodput-fraction", 0.9, "a step whose goodput falls below this fraction of offered load is saturated")
	reportPath := fs.String("report", "", "write the machine-readable JSON report (benchjson-compatible) here")
	maxInFlight := fs.Int("max-in-flight", 1024, "cap on concurrently outstanding requests")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request deadline (negative: unbounded)")
	_ = fs.Parse(args)

	if *sweepMode && (*record != "" || *replay != "") {
		return errors.New("bench: -sweep varies the rate per step; it cannot be combined with -record/-replay")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Build the workload: a replayed trace or a seeded schedule.
	var (
		header loadgen.TraceHeader
		reqs   []loadgen.Request
		spec   loadgen.Spec
		mode   = "fixed"
	)
	if *replay != "" {
		var err error
		header, reqs, err = loadgen.ReadTraceFile(*replay)
		if err != nil {
			return err
		}
		mode = "replay"
		fmt.Fprintf(os.Stderr, "bench: replaying %d requests from %s (seed %d, %s @ %g rps)\n",
			len(reqs), *replay, header.Seed, header.Arrival, header.RateRPS)
	} else {
		classes, err := parseClassMix(*classMix)
		if err != nil {
			return err
		}
		bodies, err := benchBodies(*seed, *corpus)
		if err != nil {
			return err
		}
		spec = loadgen.Spec{
			Seed:             *seed,
			Arrival:          loadgen.ArrivalKind(*arrival),
			Rate:             *rate,
			CV:               *cv,
			Duration:         *duration,
			MaxRequests:      *maxRequests,
			DiurnalAmplitude: *diurnal,
			DiurnalPeriod:    *diurnalPeriod,
			Classes:          classes,
			Bodies:           bodies,
		}
		if !*sweepMode {
			if reqs, err = spec.Schedule(); err != nil {
				return err
			}
			header = loadgen.HeaderFromSpec(spec)
		}
	}

	if *record != "" {
		if err := loadgen.WriteTraceFile(*record, header, reqs); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bench: recorded %d requests to %s\n", len(reqs), *record)
	}
	if *dry {
		fmt.Printf("bench: dry run, schedule of %d requests over %s not sent\n", len(reqs), *duration)
		return nil
	}

	tgt, name, closeTarget, err := benchTarget(*target, *model, *replicas, *slo, *timeout)
	if err != nil {
		return err
	}
	defer closeTarget()

	runOpts := loadgen.RunOptions{Target: tgt, MaxInFlight: *maxInFlight, Timeout: *timeout}
	var rep *loadgen.Report
	switch {
	case *sweepMode:
		start := *sweepStart
		if start == 0 {
			start = *rate
		}
		rep, err = loadgen.Sweep(ctx, spec, loadgen.SweepOptions{
			Start:           start,
			Factor:          *sweepFactor,
			Steps:           *sweepSteps,
			StepDuration:    *stepDuration,
			GoodputFraction: *goodput,
			Run:             runOpts,
		})
		if err != nil {
			return err
		}
		rep.Target = name
	default:
		offered := spec.Rate
		wall := spec.Duration
		if mode == "replay" {
			offered = header.RateRPS
			wall = time.Duration(header.DurationNs)
		}
		results, err := loadgen.Run(ctx, reqs, runOpts)
		if err != nil {
			return err
		}
		rep = loadgen.SingleStep(mode, name, header, offered, wall, results)
	}
	rep.BuildBenchmarks("bench/" + name)

	fmt.Print(rep.Table())
	if *reportPath != "" {
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*reportPath, append(out, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bench: report written to %s\n", *reportPath)
	}
	return nil
}
