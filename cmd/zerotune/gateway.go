package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"zerotune/internal/client"
	"zerotune/internal/gateway"
	"zerotune/internal/serve"
)

// parseSLOClasses parses the -slo flag: a comma-separated list of
// name=rate[:burst[:priority]] entries. rate 0 means unlimited; burst
// defaults to max(rate, 1); priority defaults to 0 and orders the dispatch
// queue. A rate or burst that is not a finite number is refused here, where
// the error can name the flag.
func parseSLOClasses(spec string) (classes []gateway.ClassConfig, err error) {
	err = eachEntry("-slo", spec, func(name, val string) error {
		parts := strings.Split(val, ":")
		if len(parts) > 3 {
			return errors.New("too many fields")
		}
		cfg := gateway.ClassConfig{Name: name}
		var err error
		if cfg.Rate, err = parseFinite(parts[0]); err != nil {
			return fmt.Errorf("rate: %w", err)
		}
		if len(parts) > 1 {
			if cfg.Burst, err = parseFinite(parts[1]); err != nil {
				return fmt.Errorf("burst: %w", err)
			}
		}
		if len(parts) > 2 {
			if cfg.Priority, err = strconv.Atoi(parts[2]); err != nil {
				return fmt.Errorf("priority: %w", err)
			}
		}
		classes = append(classes, cfg)
		return nil
	})
	return classes, err
}

// parseFinite parses a float and refuses NaN and ±Inf, which strconv accepts.
func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = fmt.Errorf("%q is not a finite number", s)
	}
	return v, err
}

// gatewayCommand starts the scale-out front tier. Backends come from one of
// two sources: -backends URLs dial already-running `zerotune serve` replicas
// over HTTP, while -replicas N spins up N in-process replicas sharing one
// model file — a single-binary deployment that still exercises the full
// routing/admission/health stack.
func gatewayCommand(fs *flag.FlagSet) func() error {
	var opts gateway.Options
	addr, drain := bindListen(fs, "127.0.0.1:8090", " (use :0 for an ephemeral port)")
	backends := fs.String("backends", "", "comma-separated replica base URLs (http://host:port)")
	replicas := fs.Int("replicas", 0, "spin up this many in-process replicas instead of -backends")
	model := bindModel(fs, "model path for -replicas mode")
	bindGatewayOptions(fs, &opts)
	slo := bindSLO(fs, "SLO classes", " (rate 0 = unlimited)")
	return func() error {
		var err error
		if opts.Classes, err = parseSLOClasses(*slo); err != nil {
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
				c, err := client.New(u)
				if err != nil {
					return err
				}
				b := c.Named(fmt.Sprintf("replica-%d", i))
				fmt.Fprintf(os.Stderr, "gateway: backend %s -> %s\n", b.Name(), u)
				pool = append(pool, b)
			}
			if len(pool) == 0 {
				return errors.New("gateway: -backends parsed to an empty list")
			}
		case *replicas > 0:
			local, closeReplicas, err := inProcessReplicas("gateway", *model, *replicas, opts.RequestTimeout)
			if err != nil {
				return err
			}
			defer closeReplicas()
			pool = asBackends(local)
		default:
			return errors.New("gateway: need -backends URLs or -replicas N")
		}

		g, err := gateway.New(pool, opts)
		if err != nil {
			return err
		}

		g.Start()
		defer g.Close()
		return listenAndDrain("gateway", *addr, *drain, g, func(bound string) {
			fmt.Fprintf(os.Stderr, "gateway: %d replicas on http://%s\n", len(pool), bound)
		})
	}
}
