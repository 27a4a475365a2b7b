package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"zerotune/internal/fault"
	"zerotune/internal/serve"
)

// parseFaultSpec parses the -faults flag into error-mode schedules:
// point=everyN (deterministic, every Nth hit) or point=pP (seeded
// probability P per hit), comma-separated. Used by CI to force the
// feedback.promote rollback path without touching code.
func parseFaultSpec(spec string, seed uint64) (*fault.Registry, error) {
	reg := fault.New(seed)
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, val, ok := strings.Cut(entry, "=")
		if !ok || name == "" || val == "" {
			return nil, fmt.Errorf("serve: -faults entry %q: want point=everyN or point=pP", entry)
		}
		s := fault.Schedule{Point: name, Mode: fault.ModeError}
		switch {
		case strings.HasPrefix(val, "every"):
			n, err := strconv.ParseUint(val[len("every"):], 10, 64)
			if err != nil || n == 0 {
				return nil, fmt.Errorf("serve: -faults entry %q: bad period", entry)
			}
			s.Every = n
		case strings.HasPrefix(val, "p"):
			p, err := strconv.ParseFloat(val[1:], 64)
			if err != nil || p <= 0 || p > 1 {
				return nil, fmt.Errorf("serve: -faults entry %q: bad probability", entry)
			}
			s.Prob = p
		default:
			return nil, fmt.Errorf("serve: -faults entry %q: want point=everyN or point=pP", entry)
		}
		reg.Install(s)
	}
	return reg, nil
}

// runServe starts the online prediction/tuning service: load + validate the
// model, serve the HTTP API, and on SIGINT/SIGTERM drain in-flight requests
// within the deadline before logging the final serving statistics.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	model := fs.String("model", "model.json", "model path")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address host:port")
	window := fs.Duration("batch-window", 2*time.Millisecond, "micro-batch coalescing window (negative: flush immediately)")
	maxBatch := fs.Int("batch-max", 64, "flush a micro-batch at this many plans")
	cacheSize := fs.Int("cache-size", 4096, "plan-fingerprint cache entries")
	drain := fs.Duration("drain-timeout", 10*time.Second, "graceful shutdown deadline")
	reqTimeout := fs.Duration("request-timeout", 30*time.Second, "per-predict deadline before 503 (negative: unbounded)")
	debug := fs.Bool("debug", false, "enable /debug/traces and /debug/pprof endpoints")
	circuitThreshold := fs.Int("circuit-threshold", 5, "consecutive forward failures that trip the circuit breaker (negative: disabled)")
	circuitCooldown := fs.Duration("circuit-cooldown", 5*time.Second, "open-circuit wait before probing the learned path again")
	learn := fs.Bool("learn", false, "enable the closed continual-learning loop (/v1/feedback, drift-triggered fine-tune, auto-promote)")
	learnStore := fs.Int("learn-store", 2048, "feedback reservoir capacity")
	learnSeed := fs.Uint64("learn-seed", 1, "seed for reservoir eviction, holdout split and fine-tune schedule")
	learnDir := fs.String("learn-dir", "", "candidate artifact directory (default: the model's directory)")
	learnMin := fs.Int("learn-min-samples", 32, "feedback samples required before a fine-tune run")
	learnEpochs := fs.Int("learn-epochs", 0, "fine-tune epochs (0: the few-shot schedule's default)")
	learnMaxRegress := fs.Float64("learn-max-regress", 0, "relative holdout-MAPE margin a candidate may regress by and still promote")
	learnInterval := fs.Duration("learn-interval", 0, "additionally run the learner periodically (0: drift-trip only)")
	driftWindow := fs.Int("drift-window", 256, "drift detector sliding-window size")
	driftMin := fs.Int("drift-min-samples", 32, "window fill required before the detector may trip")
	driftMAPE := fs.Float64("drift-mape", 0.5, "MAPE threshold that trips a fine-tune run")
	driftPearson := fs.Float64("drift-pearson", 0, "Pearson-r floor that trips a fine-tune run (0: disabled)")
	faults := fs.String("faults", "", "activate fault injection: point=everyN|pP,... (error mode; e.g. feedback.promote=every1)")
	faultSeed := fs.Uint64("fault-seed", 1, "seed for probabilistic -faults schedules")
	_ = fs.Parse(args)

	if *faults != "" {
		reg, err := parseFaultSpec(*faults, *faultSeed)
		if err != nil {
			return err
		}
		fault.Activate(reg)
		defer fault.Deactivate()
		fmt.Fprintf(os.Stderr, "fault injection active: %s (seed %d)\n", *faults, *faultSeed)
	}

	opts := serve.Options{
		BatchWindow:      *window,
		MaxBatch:         *maxBatch,
		CacheSize:        *cacheSize,
		RequestTimeout:   *reqTimeout,
		Debug:            *debug,
		CircuitThreshold: *circuitThreshold,
		CircuitCooldown:  *circuitCooldown,
	}
	if *learn {
		dir := *learnDir
		if dir == "" {
			dir = filepath.Dir(*model)
		}
		opts.Learn = &serve.LearnOptions{
			StoreSize:        *learnStore,
			Seed:             *learnSeed,
			Dir:              dir,
			MinSamples:       *learnMin,
			Epochs:           *learnEpochs,
			MaxShadowRegress: *learnMaxRegress,
			Interval:         *learnInterval,
			DriftWindow:      *driftWindow,
			DriftMinSamples:  *driftMin,
			DriftMAPE:        *driftMAPE,
			DriftPearson:     *driftPearson,
		}
	}
	s := serve.New(opts)
	entry, err := s.ServeModelFile(*model)
	if err != nil {
		return err
	}
	if *learn {
		learnCtx, stopLearn := context.WithCancel(context.Background())
		defer stopLearn()
		s.StartLearning(learnCtx)
		fmt.Fprintf(os.Stderr, "continual learning enabled (store %d, drift mape %.2f, artifacts in %s)\n",
			*learnStore, *driftMAPE, opts.Learn.Dir)
	}
	return listenAndDrain("serve", *addr, *drain, s, func(bound string) {
		fmt.Fprintf(os.Stderr, "serving model %s (%s) on http://%s\n", entry.ID, *model, bound)
		if *debug {
			fmt.Fprintf(os.Stderr, "debug endpoints enabled: /debug/traces, /debug/pprof/\n")
		}
	})
}
