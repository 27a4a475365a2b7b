package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"zerotune/internal/gateway"
	"zerotune/internal/serve"
)

// parseSLOClasses parses the -slo flag: a comma-separated list of
// name=rate[:burst[:priority]] entries. rate 0 means unlimited; burst
// defaults to max(rate, 1); priority defaults to 0.
func parseSLOClasses(spec string) ([]gateway.ClassConfig, error) {
	if spec == "" {
		return nil, nil
	}
	var classes []gateway.ClassConfig
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, val, ok := strings.Cut(entry, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("gateway: -slo entry %q: want name=rate[:burst[:priority]]", entry)
		}
		parts := strings.Split(val, ":")
		if len(parts) > 3 {
			return nil, fmt.Errorf("gateway: -slo entry %q: too many fields", entry)
		}
		cfg := gateway.ClassConfig{Name: name}
		var err error
		if cfg.Rate, err = strconv.ParseFloat(parts[0], 64); err != nil {
			return nil, fmt.Errorf("gateway: -slo entry %q: rate: %w", entry, err)
		}
		if len(parts) > 1 {
			if cfg.Burst, err = strconv.ParseFloat(parts[1], 64); err != nil {
				return nil, fmt.Errorf("gateway: -slo entry %q: burst: %w", entry, err)
			}
		}
		if len(parts) > 2 {
			if cfg.Priority, err = strconv.Atoi(parts[2]); err != nil {
				return nil, fmt.Errorf("gateway: -slo entry %q: priority: %w", entry, err)
			}
		}
		classes = append(classes, cfg)
	}
	return classes, nil
}

// runGateway starts the scale-out front tier. Backends come from one of two
// sources: -backends URLs dial already-running `zerotune serve` replicas
// over HTTP, while -replicas N spins up N in-process replicas sharing one
// model file — a single-binary deployment that still exercises the full
// routing/admission/health stack.
func runGateway(args []string) error {
	fs := flag.NewFlagSet("gateway", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8090", "listen address host:port (use :0 for an ephemeral port)")
	backends := fs.String("backends", "", "comma-separated replica base URLs (http://host:port)")
	replicas := fs.Int("replicas", 0, "spin up this many in-process replicas instead of -backends")
	model := fs.String("model", "model.json", "model path for -replicas mode")
	route := fs.String("route", "affinity", "routing policy: round-robin | least-loaded | affinity")
	queuePolicy := fs.String("queue-policy", "fcfs", "dispatch-queue ordering: fcfs | priority | sjf")
	queueDepth := fs.Int("queue-depth", 256, "max requests parked waiting for a dispatch slot")
	maxConcurrent := fs.Int("max-concurrent", 0, "max forwards in flight (0: 8 per replica)")
	slo := fs.String("slo", "", "SLO classes: name=rate[:burst[:priority]],... (rate 0 = unlimited)")
	probeInterval := fs.Duration("probe-interval", time.Second, "health-probe period (negative: disabled)")
	failThreshold := fs.Int("fail-threshold", 3, "consecutive failures before a replica is ejected")
	seed := fs.Uint64("seed", 1, "seed for deterministic rejoin-backoff jitter")
	reqTimeout := fs.Duration("request-timeout", 30*time.Second, "per-forward deadline (negative: unbounded)")
	drain := fs.Duration("drain-timeout", 10*time.Second, "graceful shutdown deadline")
	_ = fs.Parse(args)

	classes, err := parseSLOClasses(*slo)
	if err != nil {
		return err
	}

	var pool []serve.Backend
	switch {
	case *backends != "" && *replicas > 0:
		return errors.New("gateway: -backends and -replicas are mutually exclusive")
	case *backends != "":
		for i, u := range strings.Split(*backends, ",") {
			u = strings.TrimSpace(u)
			if u == "" {
				continue
			}
			b, err := gateway.NewHTTPBackend(fmt.Sprintf("replica-%d", i), u, 0)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "gateway: backend %s -> %s\n", b.Name(), u)
			pool = append(pool, b)
		}
		if len(pool) == 0 {
			return errors.New("gateway: -backends parsed to an empty list")
		}
	case *replicas > 0:
		local, closeReplicas, err := inProcessReplicas("gateway", *model, *replicas, *reqTimeout)
		if err != nil {
			return err
		}
		defer closeReplicas()
		pool = asBackends(local)
	default:
		return errors.New("gateway: need -backends URLs or -replicas N")
	}

	g, err := gateway.New(pool, gateway.Options{
		Route:          gateway.RoutePolicy(*route),
		Queue:          gateway.QueuePolicy(*queuePolicy),
		QueueDepth:     *queueDepth,
		MaxConcurrent:  *maxConcurrent,
		Classes:        classes,
		FailThreshold:  *failThreshold,
		ProbeInterval:  *probeInterval,
		RequestTimeout: *reqTimeout,
		Seed:           *seed,
	})
	if err != nil {
		return err
	}

	g.Start()
	defer g.Close()
	return listenAndDrain("gateway", *addr, *drain, g, func(bound string) {
		fmt.Fprintf(os.Stderr, "gateway: %d replicas, route=%s queue=%s on http://%s\n",
			len(pool), *route, *queuePolicy, bound)
	})
}
