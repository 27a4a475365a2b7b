package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"syscall"
	"time"

	"zerotune/internal/client"
	"zerotune/internal/gateway"
	"zerotune/internal/loadgen"
	"zerotune/internal/obs"
	"zerotune/internal/queryplan"
	"zerotune/internal/serve"
	"zerotune/internal/workload"
)

// parseClassMix parses the -classes flag: name=weight,... entries defining
// the SLO-class mix of generated load.
func parseClassMix(spec string) (classes []loadgen.ClassShare, err error) {
	err = eachEntry("-classes", spec, func(name, val string) error {
		w, err := strconv.ParseFloat(val, 64)
		classes = append(classes, loadgen.ClassShare{Name: name, Weight: w})
		return err
	})
	return classes, err
}

// benchBodies builds n distinct /v1/predict payloads from plans sampled by
// the seeded workload generator, cycling the seen query structures, each on
// the cluster it was drawn for. The corpus is a pure function of the seed,
// like everything else in a bench run.
func benchBodies(seed uint64, n int) ([][]byte, error) {
	gen := workload.NewSeenGenerator(seed)
	structures := workload.SeenRanges().Structures
	bodies := make([][]byte, max(n, 1))
	for i := range bodies {
		q, c, err := gen.SampleQuery(structures[i%len(structures)], uint64(i+1))
		if err != nil {
			return nil, fmt.Errorf("sample plan %d: %w", i, err)
		}
		req := serve.PredictRequest{Plan: queryplan.NewPQP(q), Cluster: serve.ClusterSpec{Workers: len(c.Nodes)}}
		if bodies[i], err = json.Marshal(req); err != nil {
			return nil, fmt.Errorf("bench: encode body %d: %w", i, err)
		}
	}
	return bodies, nil
}

// liveTarget is a serving tier under load: what the harness drives, and
// where that tier keeps the stage histograms it fills while driven — the
// /metrics of a remote target, the registries of an in-process one.
type liveTarget struct {
	serve.Backend
	name     string
	close    func()
	remote   *client.Client            // a URL target: the Backend itself
	gateway  *gateway.Gateway          // in process; nil when the one replica is driven directly
	replicas []*serve.InProcessBackend // in process
}

// metricsPage is one parsed /metrics page; source names it when its target
// has several (each replica behind an in-process gateway).
type metricsPage struct {
	source  string
	samples []obs.Sample
}

// pages reads the target's /metrics now.
func (t *liveTarget) pages(ctx context.Context) ([]metricsPage, error) {
	if t.remote != nil {
		status, body, err := t.remote.Call(ctx, "/metrics", nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		if err != nil {
			return nil, fmt.Errorf("scrape %s/metrics: %w", t.remote.Base(), err)
		}
		samples, err := obs.ParseText(bytes.NewReader(body))
		return []metricsPage{{samples: samples}}, err
	}
	if t.gateway == nil {
		samples, err := t.replicas[0].Server().Metrics().Samples()
		return []metricsPage{{samples: samples}}, err
	}
	samples, err := t.gateway.Metrics().Samples()
	pages := []metricsPage{{samples: samples}}
	for _, b := range t.replicas {
		if err != nil {
			break
		}
		samples, err = b.Server().Metrics().Samples()
		pages = append(pages, metricsPage{b.Name(), samples})
	}
	return pages, err
}

// stageRows is the per-stage table of a target's pages: on each, the predict
// stages that ran and, where the page is a gateway's, what a request cost the
// gateway itself.
func stageRows(pages []metricsPage) []loadgen.StageRow {
	var rows []loadgen.StageRow
	for _, p := range pages {
		if self, _ := obs.FindHistogram(p.samples, gateway.SelfMetric); self.Count > 0 {
			rows = append(rows, loadgen.NewStageRow(p.source, "gateway self", self))
		}
		rows = append(rows, loadgen.StageRows(p.source, p.samples)...)
	}
	return rows
}

// benchTarget resolves what the harness drives: a remote URL, an in-process
// gateway fronting N replicas, or a single in-process serve instance.
func benchTarget(targetURL, model string, replicas int, classes []gateway.ClassConfig, timeout time.Duration) (*liveTarget, error) {
	if targetURL != "" {
		c, err := client.New(targetURL)
		if err != nil {
			return nil, err
		}
		return &liveTarget{Backend: c, name: targetURL, close: func() {}, remote: c}, nil
	}
	pool, closeReplicas, err := inProcessReplicas("bench", model, max(replicas, 1), timeout)
	if err != nil {
		return nil, err
	}
	if replicas < 1 {
		return &liveTarget{Backend: loadgen.HandlerTarget{Handler: pool[0].Server()}, name: "serve",
			close: closeReplicas, replicas: pool}, nil
	}
	g, err := gateway.New(asBackends(pool), gateway.Options{Classes: classes, RequestTimeout: timeout})
	if err != nil {
		closeReplicas()
		return nil, err
	}
	g.Start()
	return &liveTarget{Backend: loadgen.HandlerTarget{Handler: g}, name: fmt.Sprintf("replicas=%d", replicas),
		close: func() { g.Close(); closeReplicas() }, gateway: g, replicas: pool}, nil
}

// refuseUnusedScheduleFlags refuses, naming it, a schedule flag set
// explicitly that the mode draws nothing from.
func refuseUnusedScheduleFlags(fs *flag.FlagSet, replay, sweep bool) (err error) {
	var unused []string
	why := ""
	switch {
	case replay:
		unused, why = []string{"seed", "rate", "duration", "classes", "corpus"}, "-replay sends the recording's schedule"
	case sweep:
		unused, why = []string{"rate", "duration"}, "-sweep offers each probe's own rate over -step-duration"
	}
	fs.Visit(func(f *flag.Flag) {
		if err == nil && slices.Contains(unused, f.Name) {
			err = fmt.Errorf("bench: -%s has no effect: %s", f.Name, why)
		}
	})
	return err
}

// benchCommand is the open-loop load harness: fixed-rate runs, capacity
// searches, and deterministic trace record/replay, all reporting
// coordinated-omission-corrected percentiles of the whole run, read from the
// same obs.Histogram that backs /metrics, and under them the target's own
// per-stage histograms.
func benchCommand(fs *flag.FlagSet) func() error {
	var (
		gen    specFlags
		run    loadgen.RunOptions
		search loadgen.SearchOptions
	)
	target := fs.String("target", "", "remote base URL (http://host:port); default: in-process serve")
	model := bindModel(fs, "model path for in-process targets")
	replicas := fs.Int("replicas", 0, "front this many in-process replicas with the gateway")
	slo := bindSLO(fs, "gateway SLO classes for -replicas", "")
	bindSpec(fs, &gen)
	fs.Float64Var(&gen.Rate, "rate", 200, "mean offered load (req/s)")
	fs.DurationVar(&gen.Duration, "duration", 10*time.Second, "intended-send horizon")
	record := fs.String("record", "", "write the schedule (bodies, intended send times, classes) as a trace file")
	replay := fs.String("replay", "", "replay a recorded trace byte-exactly instead of generating a schedule")
	dry := fs.Bool("dry", false, "build (and -record) the schedule without sending any load")
	sweep := fs.Bool("sweep", false, "search for the highest rate the target sustains, from -min-rate up to -max-rate")
	bindSearch(fs, &search)
	reportPath := bindReport(fs)
	bindRunOptions(fs, &run)
	return func() error {
		switch {
		case *sweep && (*record != "" || *replay != ""):
			return errors.New("bench: -sweep varies the rate per probe; it cannot be combined with -record/-replay")
		case *replicas < 0:
			return fmt.Errorf("bench: -replicas %d: want a replica count, or 0 for one bare serve", *replicas)
		case *target != "" && (*replicas != 0 || *slo != ""):
			return errors.New("bench: -replicas and -slo build an in-process tier; -target drives a remote one")
		case *slo != "" && *replicas == 0:
			return errors.New("bench: -slo configures the gateway's admission classes; it needs -replicas N")
		}
		if err := refuseUnusedScheduleFlags(fs, *replay != "", *sweep); err != nil {
			return err
		}
		classes, err := parseSLOClasses(*slo)
		if err != nil {
			return err
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
			fmt.Fprintf(os.Stderr, "bench: replaying %d requests from %s (seed %d @ %g rps)\n",
				len(reqs), *replay, header.Seed, header.RateRPS)
		} else {
			var err error
			if spec, err = gen.build(); err != nil {
				return err
			}
			if *sweep { // each probe draws its own rate
				spec.Rate, spec.Duration = 0, search.StepDuration
			} else if reqs, err = spec.Schedule(); err != nil {
				return err
			}
			header = loadgen.HeaderFromSpec(spec)
		}
		// What the schedule offers and spans: the header's word for it, which
		// for a replayed trace is the recording's, not this run's flags.
		offered, wall := header.RateRPS, time.Duration(header.DurationNs)

		if *record != "" {
			if err := loadgen.WriteTraceFile(*record, header, reqs); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "bench: recorded %d requests to %s\n", len(reqs), *record)
		}
		if *dry {
			fmt.Printf("bench: dry run, schedule of %d requests over %s not sent\n", len(reqs), wall)
			return nil
		}

		tgt, err := benchTarget(*target, *model, *replicas, classes, run.Timeout)
		if err != nil {
			return err
		}
		defer tgt.close()
		run.Target = tgt

		var rep *loadgen.Report
		if *sweep {
			c, err := loadgen.Search(search, loadgen.Oracle(ctx, spec, run))
			if err != nil {
				return err
			}
			c.Scenario = tgt.name
			rep = &loadgen.Report{Mode: "sweep", Target: tgt.name, Trace: header, Search: &search, Capacity: []loadgen.Capacity{c}}
		} else {
			results, err := loadgen.Run(ctx, reqs, run)
			if err != nil {
				return err
			}
			rep = loadgen.SingleStep(mode, tgt.name, header, offered, wall, results)
		}
		pages, err := tgt.pages(ctx)
		if err != nil {
			return err
		}
		rep.Stages = stageRows(pages)

		fmt.Print(rep.Table())
		return writeReport("bench", *reportPath, rep)
	}
}
