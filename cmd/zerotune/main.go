// Command zerotune is the CLI front-end of the library: generate labelled
// workloads, train and persist cost models, predict what-if costs, tune
// parallelism degrees, and regenerate every experiment of the paper.
//
// Usage (one line per row of the command table; `zerotune <command> -h`
// prints every flag with its default):
//
//	zerotune datagen    -n 500 [-seed 1] [-structures linear,2-way-join]
//	zerotune train      -n 3000 [-epochs 60] [-hidden 48] -out model.json [-checkpoint ckpt.zt] [-checkpoint-every 5] [-resume ckpt.zt]
//	zerotune predict    -model model.json -query spike-detection -rate 10000 [-workers 4] [-degree 4]
//	zerotune tune       -model model.json -query 3-way-join -rate 100000 [-workers 6] [-weight 0.5]
//	zerotune serve      -model model.json -addr 127.0.0.1:8080 [-batch-window 2ms] [-batch-max 64] [-cache-size 4096] [-request-timeout 30s] [-faults gnn.forward=every2]
//	zerotune gateway    -addr 127.0.0.1:8090 {-backends http://h1:p1,http://h2:p2 | -replicas 3 -model model.json} [-slo gold=200:400:10,bronze=50]
//	zerotune bench      -model model.json [-seed 1] [-rate 200] [-duration 10s] [-sweep [-p99 50ms] [-min-rate 50] [-max-rate 50000]] [-record trace.ztrc | -replay trace.ztrc] [-report report.json]
//	zerotune simulate   -query linear -rate 100000 [-workers 4] [-degrees 1,4,4,1 | -plan plan.json]
//	zerotune validate   -query linear -rate 5000 [-workers 2] [-duration 5000]
//	zerotune experiment <id> [-scale quick|default|paper] [-seed 1] [-csv dir]
//
// Experiment ids: fig3, tab4-seen, tab4-unseen, tab4-bench, fig5, fig6,
// fig7, fig8, fig9, fig10, fig10a, fig10b, fig11, readout-ablation, all.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"zerotune/internal/core"
	"zerotune/internal/experiments"
	"zerotune/internal/optimizer"
	"zerotune/internal/queryplan"
	"zerotune/internal/workload"
)

// command is one row of the subcommand table: main dispatches on it, usage
// prints it, and the tests walk it (help goldens, the usage comment above).
type command struct {
	name    string
	summary string
	// bind registers the command's flags on fs and returns what to run once
	// they are parsed.
	bind func(fs *flag.FlagSet) func() error
}

var commands = []command{
	{"datagen", "generate a labelled workload and print it as JSON lines", datagenCommand},
	{"train", "train a zero-shot cost model and write it to a file", trainCommand},
	{"predict", "predict latency/throughput for a benchmark query", predictCommand},
	{"tune", "recommend parallelism degrees for a query", tuneCommand},
	{"serve", "expose predict/tune over HTTP with micro-batching and caching", serveCommand},
	{"gateway", "front N serve replicas with routing, SLO admission and health probing", gatewayCommand},
	{"bench", "open-loop load harness: seeded arrivals, capacity searches, trace record/replay", benchCommand},
	{"simulate", "run the ground-truth engine on one plan and print its costs", simulateCommand},
	{"validate", "cross-check the analytical engine against the event simulator", validateCommand},
	{"experiment", `regenerate a table or figure of the paper (id or "all")`, experimentCommand},
}

func lookup(name string) *command {
	for i := range commands {
		if commands[i].name == name {
			return &commands[i]
		}
	}
	return nil
}

func (c *command) run(args []string) error {
	fs := flag.NewFlagSet(c.name, flag.ExitOnError)
	run := c.bind(fs)
	_ = fs.Parse(args)
	return run()
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	name := os.Args[1]
	if name == "help" || name == "-h" || name == "--help" {
		usage()
		return
	}
	c := lookup(name)
	if c == nil {
		fmt.Fprintf(os.Stderr, "zerotune: unknown command %q\n", name)
		usage()
		os.Exit(2)
	}
	if err := c.run(os.Args[2:]); err != nil {
		fmt.Fprintln(os.Stderr, "zerotune:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, "usage: zerotune <command> [flags]\n\ncommands:\n")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %-12s%s\n", c.name, c.summary)
	}
}

func datagenCommand(fs *flag.FlagSet) func() error {
	n := fs.Int("n", 100, "number of queries")
	seed := fs.Uint64("seed", 1, "random seed")
	structs := fs.String("structures", "", "comma-separated structure list (default: seen structures)")
	return func() error {
		structures := workload.SeenRanges().Structures
		if *structs != "" {
			structures = strings.Split(*structs, ",")
		}
		gen := workload.NewSeenGenerator(*seed)
		items, err := gen.Generate(structures, *n)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(os.Stdout)
		for _, it := range items {
			row := map[string]any{
				"template":       it.Plan.Query.Template,
				"degrees":        it.Plan.DegreesVector(),
				"workers":        len(it.Cluster.Nodes),
				"latency_ms":     it.LatencyMs,
				"throughput_eps": it.ThroughputEPS,
			}
			if err := enc.Encode(row); err != nil {
				return err
			}
		}
		return nil
	}
}

// buildQuery instantiates one of the benchmark query templates by name.
func buildQuery(name string, rate float64) (*queryplan.Query, error) {
	switch name {
	case "spike-detection":
		return queryplan.SpikeDetection(rate), nil
	case "smart-grid-local":
		return queryplan.SmartGridLocal(rate), nil
	case "smart-grid-global":
		return queryplan.SmartGridGlobal(rate), nil
	default:
		gen := workload.NewSeenGenerator(42)
		q, _, err := gen.SampleQuery(name, 1)
		if err != nil {
			return nil, err
		}
		for _, o := range q.Sources() {
			o.EventRate = rate
		}
		return q, nil
	}
}

func predictCommand(fs *flag.FlagSet) func() error {
	qf := queryFlags{query: "spike-detection", rate: 10_000, workers: 4}
	model := bindModel(fs, "model path")
	bindQuery(fs, &qf, "", "")
	degree := fs.Int("degree", 0, "uniform parallelism degree (0 = 1 per operator)")
	return func() error {
		zt, err := core.LoadFile(*model)
		if err != nil {
			return err
		}
		q, c, err := qf.build()
		if err != nil {
			return err
		}
		p := queryplan.NewPQP(q)
		if *degree > 0 {
			for _, o := range q.Ops {
				p.SetDegree(o.ID, *degree)
			}
		}
		pred, err := zt.Predict(context.Background(), p, c)
		if err != nil {
			return err
		}
		fmt.Printf("query=%s rate=%.0f workers=%d degrees=%v\n", qf.query, qf.rate, qf.workers, p.DegreesVector())
		fmt.Printf("predicted latency:    %.2f ms\n", pred.LatencyMs)
		fmt.Printf("predicted throughput: %.0f ev/s\n", pred.ThroughputEPS)
		return nil
	}
}

func tuneCommand(fs *flag.FlagSet) func() error {
	qf := queryFlags{query: "3-way-join", rate: 100_000, workers: 6}
	opts := optimizer.DefaultTuneOptions()
	model := bindModel(fs, "model path")
	bindQuery(fs, &qf, "", "")
	fs.Float64Var(&opts.Weight, "weight", opts.Weight, "Eq. 1 latency weight wt in [0,1]")
	return func() error {
		zt, err := core.LoadFile(*model)
		if err != nil {
			return err
		}
		q, c, err := qf.build()
		if err != nil {
			return err
		}
		res, err := zt.Tune(context.Background(), q, c, opts)
		if err != nil {
			return err
		}
		fmt.Printf("query=%s rate=%.0f workers=%d candidates=%d\n", qf.query, qf.rate, qf.workers, res.Candidates)
		fmt.Printf("recommended degrees: %v\n", res.Plan.DegreesVector())
		fmt.Printf("predicted latency:    %.2f ms\n", res.Estimate.LatencyMs)
		fmt.Printf("predicted throughput: %.0f ev/s\n", res.Estimate.ThroughputEPS)
		return nil
	}
}

// experimentCommand takes its id ahead of the flags (`experiment all -scale
// quick`), where flag parsing stops, so it parses what follows the id itself.
func experimentCommand(fs *flag.FlagSet) func() error {
	scale := fs.String("scale", "default", "quick | default | paper")
	csvDir := fs.String("csv", "", "also write each artifact's raw series as CSV into this directory")
	seed := fs.Uint64("seed", experiments.DefaultConfig().Seed, "seed for every corpus draw, split and training run of the experiments")
	return func() error {
		if fs.NArg() < 1 {
			return fmt.Errorf("experiment: missing id (%s)", strings.Join(experiments.IDs(), ", "))
		}
		id := fs.Arg(0)
		_ = fs.Parse(fs.Args()[1:])
		cfg, err := experiments.ScaleConfig(*scale)
		if err != nil {
			return err
		}
		cfg.Seed = *seed
		return experiments.Run(os.Stdout, experiments.NewLab(cfg), id, *csvDir)
	}
}
