package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"zerotune/internal/fault"
	"zerotune/internal/serve"
)

// parseFaultSpec parses the -faults flag into error-mode schedules:
// point=everyN (deterministic, every Nth hit) or point=pP (seeded
// probability P per hit), comma-separated. A point must be one of
// fault.Points: a schedule on any other name would never fire.
func parseFaultSpec(spec string, seed uint64) (*fault.Registry, error) {
	reg := fault.New(seed)
	err := eachEntry("-faults", spec, func(point, val string) error {
		if !slices.Contains(fault.Points, point) {
			return fmt.Errorf("unknown injection point (want one of %s)", strings.Join(fault.Points, ", "))
		}
		s := fault.Schedule{Point: point, Mode: fault.ModeError}
		var err error
		switch {
		case strings.HasPrefix(val, "every"):
			if s.Every, err = strconv.ParseUint(val[len("every"):], 10, 64); err != nil || s.Every == 0 {
				return errors.New("bad period")
			}
		case strings.HasPrefix(val, "p"):
			if s.Prob, err = strconv.ParseFloat(val[1:], 64); err != nil || s.Prob <= 0 || s.Prob > 1 {
				return errors.New("bad probability")
			}
		default:
			return errors.New("want point=everyN or point=pP")
		}
		reg.Install(s)
		return nil
	})
	return reg, err
}

// serveCommand starts the online prediction/tuning service: load + validate
// the model, serve the HTTP API, and on SIGINT/SIGTERM drain in-flight
// requests within the deadline before logging the final serving statistics.
func serveCommand(fs *flag.FlagSet) func() error {
	var opts serve.Options
	model := bindModel(fs, "model path")
	addr, drain := bindListen(fs, "127.0.0.1:8080", "")
	bindServeOptions(fs, &opts)
	faults := fs.String("faults", "", "activate fault injection: point=everyN|pP,... (error mode; e.g. gnn.forward=every2)")
	faultSeed := fs.Uint64("fault-seed", 1, "seed for probabilistic -faults schedules")
	return func() error {
		if *faults != "" {
			reg, err := parseFaultSpec(*faults, *faultSeed)
			if err != nil {
				return err
			}
			fault.Activate(reg)
			defer fault.Deactivate()
			fmt.Fprintf(os.Stderr, "fault injection active: %s (seed %d)\n", *faults, *faultSeed)
		}

		s := serve.New(opts)
		entry, err := s.ServeModelFile(*model)
		if err != nil {
			return err
		}
		return listenAndDrain("serve", *addr, *drain, s, func(bound string) {
			fmt.Fprintf(os.Stderr, "serving model %s (%s) on http://%s\n", entry.ID, *model, bound)
			if opts.Debug {
				fmt.Fprintf(os.Stderr, "debug endpoints enabled: /debug/traces, /debug/pprof/\n")
			}
		})
	}
}
