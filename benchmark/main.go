// Command benchmark is the repository's benchmark: four closed-loop
// workloads driven through the public handlers of serve and gateway, five
// end-to-end metrics per workload, every answer checked, and a separate
// traced pass that times the calls into each layer's public functions.
//
//	go run -C benchmark . -workload predict_cold -seed 1 -seconds 15 -trace 0
//	go run -C benchmark . -seed 1 -out out/run1.json        # all workloads, both passes
//	go run -C benchmark . -compare out/run1.json out/run2.json   # files, or directories of runs
//
// With -workload the last line of standard output is the one-object result
// BENCHMARK.json's contract asks for. See README.md for the catalogue.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metric is one reported number. Windows holds the per-window (or per
// repetition) values a median was taken over, so -compare can tell a
// regression from spread.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples int       `json:"samples,omitempty"`
	Windows []float64 `json:"windows,omitempty"`
}

// The metric names are fixed: later issues cite them verbatim, and
// BENCHMARK.json lists the same names with direction and bound (the package
// test holds the two lists together).
var endToEndNames = []string{"setup_s", "throughput_rps", "latency_p50_us", "latency_p90_us", "heap_mb"}

var perLayerNames = []string{
	"workload.generate_s", "workload.bodies_s", "core.train_s", "core.compile_s",
	"core.qerr_lat_p50", "core.qerr_tpt_p50",
	"serve.decode_us", "serve.cluster_build_us", "cluster.place_us", "features.encode_us",
	"serve.fingerprint_us", "serve.cache_hit_us", "serve.cache_miss_us",
	"serve.batcher_solo_us", "serve.batcher_full_us_per_graph",
	"gnn.forward1_us", "gnn.forward16_us_per_graph", "gnn.forward64_us_per_graph",
	"serve.marshal_us",
	"serve.handler_bodyhit_us", "serve.handler_planhit_us", "serve.handler_miss_us",
	"serve.unattributed_miss_us", "serve.inprocess_call_us",
	"gateway.self_us", "gateway.handler_bodyhit_us",
	"client.inprocess_call_us", "client.http_call_us",
	"optimizer.tune_us", "optimizer.self_us", "optimizer.estimate_us", "optimizer.candidates",
	"loadgen.schedule_ms", "loadgen.send_lag_p50_us", "loadgen.send_lag_p99_us",
	"serve.bodycache_hit_share", "serve.plancache_hit_share", "serve.cache_evictions_per_op",
	"serve.batch_size_mean", "serve.degraded", "serve.errors",
	"gateway.route_share_max", "gateway.retries", "gateway.spillovers", "gateway.queue_wait_p99_us",
	"runtime.allocs_per_op", "runtime.bytes_per_op", "runtime.gc_pause_ms", "runtime.gc_cycles",
	"runtime.cpu_us_per_op",
	"bench.driver_us", "bench.driver_allocs_per_op", "bench.trace_overhead_pct", "bench.host_steal_pct",
	"bench.wall_throughput_rps", "bench.latency_p99_us",
}

// workloadResult is one pass of one workload.
type workloadResult struct {
	Clients        int               `json:"clients"`
	SequenceSHA256 string            `json:"sequence_sha256"`
	Correct        bool              `json:"correct"`
	Attempted      uint64            `json:"attempted"`
	Failed         uint64            `json:"failed"`
	EndToEnd       map[string]metric `json:"end_to_end,omitempty"`
	// Reported holds what an untraced run measures beside its end-to-end
	// metrics (the traced run lists the same names under PerLayer).
	Reported  map[string]metric `json:"reported,omitempty"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	TraceFile string            `json:"trace_file,omitempty"`
	// HostStealPct is the share of CPU time the hypervisor took away during
	// the timed region (the worse pass of the two): a run that reads high here
	// was measured on a disturbed machine.
	HostStealPct float64 `json:"host_steal_pct"`

	err error // first wrong answer, for the exit message
}

// runWorkload sets the workload up, checks answers, runs the timed region and
// checks answers again. Untraced it reports the end-to-end metrics; traced it
// alternates plain and traced windows and adds the staged replay.
func runWorkload(def *workloadDef, seed uint64, seconds float64, traced bool, sc scale, outDir string) (*workloadResult, error) {
	repeats := sc.setups
	if traced {
		repeats = 1
	}
	var r *rig
	var setups []float64
	for i := 0; i < repeats; i++ {
		if r != nil {
			r.close()
		}
		var err error
		if r, err = newRig(def, seed, sc); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		setups = append(setups, r.setupS())
	}
	defer r.close()
	res := &workloadResult{Clients: len(r.sess.clients), SequenceSHA256: r.sess.seq.digest(), Correct: true}
	check := func() {
		attempted, failed, err := r.checkNext()
		res.Attempted += uint64(attempted)
		res.Failed += uint64(failed)
		if err != nil && res.err == nil {
			res.err = err
		}
	}
	check()

	nWindows := sc.windows
	if traced {
		nWindows *= 2 // as many plain windows as traced ones
		for c, cl := range r.sess.clients {
			cl.spans = newSpanRing(c, max(1, rootSpanBudget/len(r.sess.clients)))
		}
	}
	window := time.Duration(seconds / float64(nWindows) * float64(time.Second))
	before, err := r.tgt.counters()
	if err != nil {
		return nil, err
	}
	windows := r.sess.runTimed(nWindows, window, traced)
	after, err := r.tgt.counters()
	if err != nil {
		return nil, err
	}
	// Two collections: the first only moves sync.Pool contents to the victim
	// cache, and pooled scratch is reclaimable, not state the target holds.
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	check()

	var ops float64
	for i := range windows {
		res.Attempted += windows[i].ok + windows[i].failed
		res.Failed += windows[i].failed
		ops += float64(windows[i].ok + windows[i].failed)
	}
	if after.degraded > 0 && res.err == nil {
		res.err = fmt.Errorf("%d degraded answers", after.degraded)
	}
	res.Correct = res.err == nil && res.Failed == 0
	res.HostStealPct = stealPct(before, after)

	if !traced {
		res.EndToEnd, res.Reported = endToEnd(windows, false)
		res.EndToEnd["setup_s"] = metric{Value: median(setups), Unit: "s", Samples: len(setups), Windows: setups}
		res.EndToEnd["heap_mb"] = metric{Value: float64(ms.HeapAlloc) / (1 << 20), Unit: "MiB", Samples: 1}
		return res, nil
	}

	plain, reported := endToEnd(windows, false)
	withSpans, _ := endToEnd(windows, true)
	drv := measureDriver(def.path)
	res.PerLayer = counterMetrics(before, after, ops, drv)
	res.PerLayer["bench.driver_us"] = metric{Value: drv.us, Unit: "us", Samples: driverCalls}
	res.PerLayer["bench.driver_allocs_per_op"] = metric{Value: drv.allocs, Unit: "count", Samples: driverCalls}
	res.PerLayer["bench.host_steal_pct"] = metric{Value: res.HostStealPct, Unit: "%", Samples: int(ops)}
	for name, m := range reported {
		res.PerLayer[name] = m
	}
	res.PerLayer["bench.trace_overhead_pct"] = metric{
		Value: 100 * (1 - ratio(withSpans["throughput_rps"].Value, plain["throughput_rps"].Value)),
		Unit:  "%", Samples: withSpans["throughput_rps"].Samples,
	}
	res.PerLayer["workload.generate_s"] = metric{Value: r.fix.generateS, Unit: "s", Samples: 1}
	res.PerLayer["workload.bodies_s"] = metric{Value: r.bodiesS, Unit: "s", Samples: 1}
	res.PerLayer["core.train_s"] = metric{Value: r.fix.trainS, Unit: "s", Samples: 1}
	res.PerLayer["core.compile_s"] = metric{Value: r.fix.compileS, Unit: "s", Samples: 1}
	stages, replay, err := r.fix.replayStages(sc)
	if err != nil {
		return nil, fmt.Errorf("%s: staged replay: %w", def.name, err)
	}
	for name, m := range stages {
		res.PerLayer[name] = m
	}
	spans := replay
	for _, cl := range r.sess.clients {
		spans = append(spans, cl.spans.spans()...)
	}
	if res.TraceFile, err = writeTrace(outDir, def.name, spans); err != nil {
		return nil, err
	}
	return res, nil
}

// endToEnd reduces the windows with the given traced flag to the timing
// metrics: each is computed per window and the median window is reported, so
// a noisy-neighbour burst on a shared box spoils a few windows, not the run.
// Beside the three end-to-end metrics it returns the two that are reported
// without a bound: throughput by the wall clock, stolen time included, and
// the p99, which on this box the neighbours set more than the program does.
func endToEnd(windows []windowStats, traced bool) (bounded, reported map[string]metric) {
	var tput, wall, p50, p90, p99 []float64
	var n int
	for i := range windows {
		w := &windows[i]
		if w.traced != traced {
			continue
		}
		tput = append(tput, w.throughput())
		wall = append(wall, w.wallThroughput())
		p50 = append(p50, w.p50/1e3)
		p90 = append(p90, w.p90/1e3)
		p99 = append(p99, w.p99/1e3)
		n += int(w.ok)
	}
	bounded = map[string]metric{
		"throughput_rps": {Value: median(tput), Unit: "req/s", Samples: n, Windows: tput},
		"latency_p50_us": {Value: median(p50), Unit: "us", Samples: n, Windows: p50},
		"latency_p90_us": {Value: median(p90), Unit: "us", Samples: n, Windows: p90},
	}
	reported = map[string]metric{
		"bench.wall_throughput_rps": {Value: median(wall), Unit: "req/s", Samples: n, Windows: wall},
		"bench.latency_p99_us":      {Value: median(p99), Unit: "us", Samples: n, Windows: p99},
	}
	return bounded, reported
}

const driverCalls = 200000

// measureDriver runs the driver's per-request path against a handler that
// does nothing.
func measureDriver(path string) driverCost {
	c := newCaller(noopHandler{}, path)
	body := []byte(`{}`)
	for i := 0; i < 1000; i++ {
		c.call(body)
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	for i := 0; i < driverCalls; i++ {
		c.call(body)
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&b)
	return driverCost{
		us:     float64(d) / 1e3 / driverCalls,
		allocs: float64(b.Mallocs-a.Mallocs) / driverCalls,
		bytes:  float64(b.TotalAlloc-a.TotalAlloc) / driverCalls,
	}
}

// machine is the header of a result file: enough to tell whether two files
// are comparable.
type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"GOMAXPROCS"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
}

// resultFile is what -out writes and -compare reads. Claim is always null:
// this benchmark measures, it does not claim a gain.
type resultFile struct {
	Machine   machine                    `json:"machine"`
	Seconds   float64                    `json:"seconds"`
	Claim     *string                    `json:"claim"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commitID reads the checkout's HEAD without running git; the benchmark also
// runs from exported trees, where it reports "unknown".
func commitID() string {
	for _, root := range []string{"..", "."} {
		head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
		if err != nil {
			continue
		}
		ref := strings.TrimSpace(string(head))
		if !strings.HasPrefix(ref, "ref: ") {
			return ref
		}
		if id, err := os.ReadFile(filepath.Join(root, ".git", strings.TrimPrefix(ref, "ref: "))); err == nil {
			return strings.TrimSpace(string(id))
		}
	}
	return "unknown"
}

func printMetrics(title string, names []string, m map[string]metric) {
	fmt.Printf("  %s\n", title)
	for _, name := range names {
		v, ok := m[name]
		if !ok {
			continue
		}
		fmt.Printf("    %-34s %14.4f %-6s n=%d\n", name, v.Value, v.Unit, v.Samples)
	}
}

// printStageTable lists each replayed stage of the cold path with its share
// of the whole handler call, and what the replay leaves unexplained.
func printStageTable(m map[string]metric) {
	miss := m["serve.handler_miss_us"].Value
	if miss == 0 {
		return
	}
	fmt.Printf("  stage budget of one cold /v1/predict (p50, share of serve.handler_miss_us = %.1f us)\n", miss)
	for _, name := range append(append([]string(nil), missStages...), "serve.unattributed_miss_us") {
		fmt.Printf("    %-34s %10.2f us %6.1f %%\n", name, m[name].Value, 100*m[name].Value/miss)
	}
}

func printResult(name string, res *workloadResult) {
	fmt.Printf("%s: clients=%d attempted=%d failed=%d failed_share=%g correct=%v host_steal=%.1f%% sequence=%s\n",
		name, res.Clients, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)),
		res.Correct, res.HostStealPct, res.SequenceSHA256[:16])
	if res.EndToEnd != nil {
		printMetrics("end to end (tracing off)", endToEndNames, res.EndToEnd)
		printMetrics("reported without a bound", perLayerNames, res.Reported)
	}
	if res.PerLayer != nil {
		printMetrics("per layer (traced pass)", perLayerNames, res.PerLayer)
		printStageTable(res.PerLayer)
		fmt.Printf("  trace: %s\n", res.TraceFile)
	}
}

func writeResultFile(path string, rf *resultFile) error {
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// driverLine is the contract's last line of standard output.
func driverLine(res *workloadResult, names []string, from map[string]metric) (string, error) {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted uint64               `json:"attempted"`
		Failed    uint64               `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]valueUnit, len(names))}
	for _, name := range names {
		m, ok := from[name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", name)
		}
		line.Metrics[name] = valueUnit{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	return string(data), err
}

func run() error {
	workload := flag.String("workload", "", "run one workload and end with the one-line JSON result; default: all workloads, both passes")
	seed := flag.Uint64("seed", 1, "seed of the corpus, the model and every request")
	seconds := flag.Float64("seconds", 15, "length of the timed region of one pass")
	trace := flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, tracing off; 1 = per-layer metrics, traced pass")
	out := flag.String("out", "", "write the full result (machine header, windows, sample counts) to this file")
	compare := flag.Bool("compare", false, "compare two result files, or two directories of them (one file per run), given as arguments; exit 1 on a regression")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return errors.New("-compare needs two result files or directories")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("-seconds must be positive and -trace 0 or 1")
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	rf := &resultFile{
		Machine: machine{CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Go: runtime.Version(), Commit: commitID(), Seed: *seed},
		Seconds:   *seconds,
		Workloads: make(map[string]*workloadResult),
	}
	fmt.Printf("machine: %s, nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%g\n", rf.Machine.CPU,
		rf.Machine.NProc, rf.Machine.GOMAXPROCS, rf.Machine.Go, rf.Machine.Commit, *seed, *seconds)

	// One workload and one pass when the driver asks; otherwise every workload,
	// plain pass then traced pass, merged into one entry per workload.
	defs, passes := workloads, []bool{false, true}
	if *workload != "" {
		def := findWorkload(*workload)
		if def == nil {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		defs, passes = []workloadDef{*def}, []bool{*trace == 1}
	}
	var wrong error
	var last *workloadResult
	for i := range defs {
		def := &defs[i]
		var res *workloadResult
		for _, traced := range passes {
			pass, err := runWorkload(def, *seed, *seconds, traced, fullScale, "out")
			if err != nil {
				return err
			}
			res = res.merge(pass)
		}
		printResult(def.name, res)
		if res.err != nil && wrong == nil {
			wrong = fmt.Errorf("%s: wrong answer: %w", def.name, res.err)
		}
		rf.Workloads[def.name], last = res, res
	}
	if *out != "" {
		if err := writeResultFile(*out, rf); err != nil {
			return err
		}
	}
	if wrong != nil || *workload == "" {
		return wrong
	}
	names, from := endToEndNames, last.EndToEnd
	if *trace == 1 {
		names, from = perLayerNames, last.PerLayer
	}
	line, err := driverLine(last, names, from)
	if err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}

// merge folds a later pass of the same workload into r (nil: the first pass).
func (r *workloadResult) merge(pass *workloadResult) *workloadResult {
	if r == nil {
		return pass
	}
	r.Attempted += pass.Attempted
	r.Failed += pass.Failed
	r.Correct = r.Correct && pass.Correct
	if r.err == nil {
		r.err = pass.err
	}
	if pass.EndToEnd != nil {
		r.EndToEnd, r.Reported = pass.EndToEnd, pass.Reported
	}
	if pass.PerLayer != nil {
		r.PerLayer, r.TraceFile = pass.PerLayer, pass.TraceFile
	}
	r.HostStealPct = max(r.HostStealPct, pass.HostStealPct)
	return r
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
