// Command zerotune is the CLI front-end of the library: generate labelled
// workloads, train and persist cost models, predict what-if costs, tune
// parallelism degrees, and regenerate every experiment of the paper.
//
// Usage:
//
//	zerotune datagen    -n 500 [-seed 1] [-structures linear,2-way-join]
//	zerotune train      -n 3000 [-epochs 60] [-hidden 48] -out model.json [-checkpoint ckpt.zt] [-checkpoint-every 5] [-resume ckpt.zt]
//	zerotune predict    -model model.json -query spike-detection -rate 10000 [-workers 4] [-degree 4]
//	zerotune tune       -model model.json -query 3-way-join -rate 100000 [-workers 6] [-weight 0.5]
//	zerotune serve      -model model.json -addr 127.0.0.1:8080 [-batch-window 2ms] [-batch-max 64] [-cache-size 4096] [-request-timeout 30s] [-learn] [-learn-min-samples 32] [-drift-mape 0.5] [-faults feedback.promote=every1]
//	zerotune gateway    -addr 127.0.0.1:8090 {-backends http://h1:p1,http://h2:p2 | -replicas 3 -model model.json} [-route affinity] [-queue-policy fcfs] [-slo gold=200:400:10,bronze=50]
//	zerotune chaos      -model model.json [-seed 1] [-requests 120] [-log events.log] [-circuit-threshold 3] [-probe-every 4]
//	zerotune bench      -model model.json [-seed 1] [-rate 200] [-duration 10s] [-arrival poisson] [-sweep] [-record trace.ztrc | -replay trace.ztrc] [-report report.json]
//	zerotune plan       [-model model.json | -service encode=25µs,...] [-replicas 1,3] [-p99 50ms] [-rate 0] [-trace plan.trace] [-report plan.json]
//	zerotune simulate   -query linear -rate 100000 [-workers 4] [-degrees 1,4,4,1 | -plan plan.json]
//	zerotune validate   -query linear -rate 5000 [-workers 2] [-duration 5000]
//	zerotune experiment <id> [-scale quick|default|paper] [-csv dir]
//
// Experiment ids: fig3, tab4-seen, tab4-unseen, tab4-bench, fig5, fig6,
// fig7, fig8, fig9, fig10, fig10a, fig10b, fig11, readout-ablation, all.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"zerotune/internal/cluster"
	"zerotune/internal/core"
	"zerotune/internal/experiments"
	"zerotune/internal/optimizer"
	"zerotune/internal/queryplan"
	"zerotune/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "datagen":
		err = runDatagen(os.Args[2:])
	case "train":
		err = runTrain(os.Args[2:])
	case "predict":
		err = runPredict(os.Args[2:])
	case "tune":
		err = runTune(os.Args[2:])
	case "serve":
		err = runServe(os.Args[2:])
	case "gateway":
		err = runGateway(os.Args[2:])
	case "chaos":
		err = runChaos(os.Args[2:])
	case "bench":
		err = runBench(os.Args[2:])
	case "plan":
		err = runPlan(os.Args[2:])
	case "simulate":
		err = runSimulate(os.Args[2:])
	case "validate":
		err = runValidate(os.Args[2:])
	case "experiment":
		err = runExperiment(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "zerotune: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "zerotune:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: zerotune <command> [flags]

commands:
  datagen     generate a labelled workload and print it as JSON lines
  train       train a zero-shot cost model and write it to a file
  predict     predict latency/throughput for a benchmark query
  tune        recommend parallelism degrees for a query
  serve       expose predict/tune over HTTP with micro-batching, caching, and optional continual learning (-learn)
  gateway     front N serve replicas with routing, SLO admission and health probing
  chaos       replay a seeded fault schedule against an in-process server
  bench       open-loop load harness: seeded arrivals, RPS sweeps, trace record/replay
  plan        capacity planner: simulate the serve tier, binary-search max RPS under a p99 SLO
  simulate    run the ground-truth engine on one plan and print its costs
  validate    cross-check the analytical engine against the event simulator
  experiment  regenerate a table or figure of the paper (id or "all")`)
}

func runDatagen(args []string) error {
	fs := flag.NewFlagSet("datagen", flag.ExitOnError)
	n := fs.Int("n", 100, "number of queries")
	seed := fs.Uint64("seed", 1, "random seed")
	structs := fs.String("structures", "", "comma-separated structure list (default: seen structures)")
	_ = fs.Parse(args)

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

func runPredict(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	model := fs.String("model", "model.json", "model path")
	query := fs.String("query", "spike-detection", "query template")
	rate := fs.Float64("rate", 10_000, "source event rate (ev/s)")
	workers := fs.Int("workers", 4, "cluster size")
	degree := fs.Int("degree", 0, "uniform parallelism degree (0 = 1 per operator)")
	_ = fs.Parse(args)

	zt, err := core.LoadFile(*model)
	if err != nil {
		return err
	}
	q, err := buildQuery(*query, *rate)
	if err != nil {
		return err
	}
	c, err := cluster.New(*workers, cluster.SeenTypes(), 10)
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
	fmt.Printf("query=%s rate=%.0f workers=%d degrees=%v\n", *query, *rate, *workers, p.DegreesVector())
	fmt.Printf("predicted latency:    %.2f ms\n", pred.LatencyMs)
	fmt.Printf("predicted throughput: %.0f ev/s\n", pred.ThroughputEPS)
	return nil
}

func runTune(args []string) error {
	fs := flag.NewFlagSet("tune", flag.ExitOnError)
	model := fs.String("model", "model.json", "model path")
	query := fs.String("query", "3-way-join", "query template")
	rate := fs.Float64("rate", 100_000, "source event rate (ev/s)")
	workers := fs.Int("workers", 6, "cluster size")
	weight := fs.Float64("weight", 0.5, "Eq. 1 latency weight wt in [0,1]")
	_ = fs.Parse(args)

	zt, err := core.LoadFile(*model)
	if err != nil {
		return err
	}
	q, err := buildQuery(*query, *rate)
	if err != nil {
		return err
	}
	c, err := cluster.New(*workers, cluster.SeenTypes(), 10)
	if err != nil {
		return err
	}
	opts := optimizer.DefaultTuneOptions()
	opts.Weight = *weight
	res, err := zt.Tune(context.Background(), q, c, opts)
	if err != nil {
		return err
	}
	fmt.Printf("query=%s rate=%.0f workers=%d candidates=%d\n", *query, *rate, *workers, res.Candidates)
	fmt.Printf("recommended degrees: %v\n", res.Plan.DegreesVector())
	fmt.Printf("predicted latency:    %.2f ms\n", res.Estimate.LatencyMs)
	fmt.Printf("predicted throughput: %.0f ev/s\n", res.Estimate.ThroughputEPS)
	return nil
}

func runExperiment(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("experiment: missing id (fig3, tab4-seen, ..., all)")
	}
	id := args[0]
	fs := flag.NewFlagSet("experiment", flag.ExitOnError)
	scale := fs.String("scale", "default", "quick | default | paper")
	csvDir := fs.String("csv", "", "also write each artifact's raw series as CSV into this directory")
	plot := fs.Bool("plot", false, "also render figure-type results as ASCII charts")
	_ = fs.Parse(args[1:])

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}

	var cfg experiments.Config
	switch *scale {
	case "quick":
		cfg = experiments.Config{TrainQueries: 400, TestPerType: 30, Epochs: 12, Hidden: 24,
			FewShotQueries: 60, TuneQueriesPerType: 3, Seed: 1}
	case "default":
		cfg = experiments.DefaultConfig()
	case "paper":
		cfg = experiments.PaperScaleConfig()
	default:
		return fmt.Errorf("experiment: unknown scale %q", *scale)
	}
	l := experiments.NewLab(cfg)

	writeCSV := func(name string, res any) error {
		if *csvDir == "" {
			return nil
		}
		cw, ok := res.(interface{ WriteCSV(w io.Writer) error })
		if !ok {
			return nil
		}
		path := filepath.Join(*csvDir, name+".csv")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		// Close errors matter here: a full disk surfaces at Close, and a
		// deferred unchecked Close would report a truncated CSV as success.
		if err := cw.WriteCSV(f); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("close %s: %w", path, err)
		}
		return nil
	}

	run := func(name string, fn func() (fmt.Stringer, error)) error {
		fmt.Printf("== %s ==\n", name)
		res, err := fn()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Println(res.String())
		if *plot {
			if p, ok := res.(interface{ Plot() string }); ok {
				fmt.Println(p.Plot())
			}
		}
		return writeCSV(name, res)
	}

	table := map[string]func() (fmt.Stringer, error){
		"fig3":             func() (fmt.Stringer, error) { return experiments.RunFig3(32) },
		"tab4-seen":        func() (fmt.Stringer, error) { return l.RunTable4Seen() },
		"tab4-unseen":      func() (fmt.Stringer, error) { return l.RunTable4Unseen() },
		"tab4-bench":       func() (fmt.Stringer, error) { return l.RunTable4Benchmarks() },
		"fig5":             func() (fmt.Stringer, error) { return l.RunFig5ModelComparison() },
		"fig6":             func() (fmt.Stringer, error) { return l.RunFig6FewShot() },
		"fig9":             func() (fmt.Stringer, error) { return l.RunFig9DataEfficiency(nil) },
		"fig10a":           func() (fmt.Stringer, error) { return l.RunFig10aSpeedup() },
		"fig10b":           func() (fmt.Stringer, error) { return l.RunFig10bDhalion() },
		"fig11":            func() (fmt.Stringer, error) { return l.RunFig11Ablation() },
		"readout-ablation": func() (fmt.Stringer, error) { return l.RunReadoutAblation() },
	}

	runFig7 := func() error {
		a, err := l.RunFig7a()
		if err != nil {
			return err
		}
		fmt.Println(a.String())
		if err := writeCSV("fig7a", a); err != nil {
			return err
		}
		b, err := l.RunFig7b()
		if err != nil {
			return err
		}
		fmt.Println(b.String())
		if err := writeCSV("fig7b", b); err != nil {
			return err
		}
		c, panels, err := l.RunFig7c()
		if err != nil {
			return err
		}
		fmt.Println(c.String())
		for _, p := range panels {
			fmt.Println(p.String())
		}
		if err := writeCSV("fig7c", c); err != nil {
			return err
		}
		zero, few, err := l.RunFig7d()
		if err != nil {
			return err
		}
		fmt.Println(zero.String())
		fmt.Println(few.String())
		if err := writeCSV("fig7d-zeroshot", zero); err != nil {
			return err
		}
		return writeCSV("fig7d-fewshot", few)
	}
	runFig8 := func() error {
		names := []string{"fig8a-width", "fig8b-rate", "fig8c-duration", "fig8d-length", "fig8e-workers"}
		for i, fn := range []func() (*experiments.Fig8Result, error){
			l.RunFig8TupleWidth, l.RunFig8EventRate, l.RunFig8WindowDuration,
			l.RunFig8WindowLength, l.RunFig8Workers,
		} {
			res, err := fn()
			if err != nil {
				return err
			}
			fmt.Println(res.String())
			if *plot {
				fmt.Println(res.Plot())
			}
			if err := writeCSV(names[i], res); err != nil {
				return err
			}
		}
		return nil
	}

	switch id {
	case "fig7":
		return runFig7()
	case "fig8":
		return runFig8()
	case "fig10":
		if err := run("fig10a", table["fig10a"]); err != nil {
			return err
		}
		return run("fig10b", table["fig10b"])
	case "all":
		order := []string{"fig3", "tab4-seen", "tab4-unseen", "tab4-bench", "fig5", "fig6"}
		for _, name := range order {
			if err := run(name, table[name]); err != nil {
				return err
			}
		}
		fmt.Println("== fig7 ==")
		if err := runFig7(); err != nil {
			return err
		}
		fmt.Println("== fig8 ==")
		if err := runFig8(); err != nil {
			return err
		}
		for _, name := range []string{"fig9", "fig10a", "fig10b", "fig11", "readout-ablation"} {
			if err := run(name, table[name]); err != nil {
				return err
			}
		}
		return nil
	default:
		fn, ok := table[id]
		if !ok {
			return fmt.Errorf("experiment: unknown id %q", id)
		}
		return run(id, fn)
	}
}
