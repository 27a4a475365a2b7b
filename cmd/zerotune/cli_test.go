package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"zerotune/internal/core"
	"zerotune/internal/experiments"
	"zerotune/internal/gateway"
	"zerotune/internal/loadgen"
	"zerotune/internal/serve"
)

// TestHelpGolden pins every subcommand's flag set — names, defaults, usage
// strings — to the bytes `zerotune <cmd> -h` printed at the parent of the
// change that moved flag defaults into the libraries. A golden moves only
// when a flag is meant to.
func TestHelpGolden(t *testing.T) {
	for _, c := range commands {
		want, err := os.ReadFile(filepath.Join("testdata", "help", c.name+".txt"))
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		var got bytes.Buffer
		fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
		c.bind(fs)
		fs.SetOutput(&got)
		fs.Usage()
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("`%s -h` moved:\n--- got\n%s--- want\n%s", c.name, got.Bytes(), want)
		}
	}
	goldens, err := filepath.Glob(filepath.Join("testdata", "help", "*.txt"))
	if err != nil || len(goldens) != len(commands) {
		t.Errorf("testdata/help holds %d goldens (%v) for %d commands", len(goldens), err, len(commands))
	}
}

// TestUsageCommentMatchesTables keeps main.go's package comment — the only
// hand-written copy of the command and experiment-id lists — in step with the
// tables the program reads.
func TestUsageCommentMatchesTables(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "\npackage main")
	var names []string
	for _, m := range regexp.MustCompile(`(?m)^//\tzerotune (\S+)`).FindAllStringSubmatch(doc, -1) {
		names = append(names, m[1])
	}
	var want []string
	for _, c := range commands {
		want = append(want, c.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("usage comment lists commands %v, the table %v", names, want)
	}
	_, ids, _ := strings.Cut(doc, "Experiment ids: ")
	ids = strings.Join(strings.Fields(strings.ReplaceAll(ids, "//", "")), " ")
	if wantIDs := strings.Join(experiments.IDs(), ", ") + "."; ids != wantIDs {
		t.Errorf("usage comment lists experiment ids %q, the table %q", ids, wantIDs)
	}
}

// TestFlagDefaultsAreLibraryDefaults: a binder run with no arguments leaves
// an options struct that defaults to what the zero struct defaults to, so the
// server `zerotune serve` builds is the server serve.New(serve.Options{})
// builds. The LearnOptions case is `serve -learn` with no other flag against
// serve.LearnOptions{}: same learner and same detector configuration (the
// artifact directory aside, which the CLI points next to the model file at
// run time).
func TestFlagDefaultsAreLibraryDefaults(t *testing.T) {
	parsed := func(bind func(*flag.FlagSet)) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		bind(fs)
		if err := fs.Parse(nil); err != nil {
			t.Fatal(err)
		}
	}
	// Registries and clocks are per instance; they are not defaults a flag
	// could restate.
	learn := func(lo serve.LearnOptions) serve.LearnOptions {
		lo = lo.WithDefaults()
		lo.Learner, lo.Drift = lo.Learner.WithDefaults(), lo.Drift.WithDefaults()
		lo.Learner.Registry, lo.Drift.Registry = nil, nil
		return lo
	}
	gw := func(o gateway.Options) gateway.Options {
		o = o.WithDefaults(3)
		o.Now = nil
		return o
	}

	var (
		so serve.Options
		lo serve.LearnOptions
		g  gateway.Options
		ro loadgen.RunOptions
	)
	parsed(func(fs *flag.FlagSet) { bindServeOptions(fs, &so) })
	parsed(func(fs *flag.FlagSet) { bindLearnOptions(fs, &lo) })
	parsed(func(fs *flag.FlagSet) { bindGatewayOptions(fs, &g) })
	parsed(func(fs *flag.FlagSet) { bindRunOptions(fs, &ro) })
	for _, tc := range []struct {
		name      string
		got, want any
	}{
		{"serve.Options", so.WithDefaults(), serve.Options{}.WithDefaults()},
		{"serve.LearnOptions", learn(lo), learn(serve.LearnOptions{})},
		{"gateway.Options", gw(g), gw(gateway.Options{})},
		{"loadgen.RunOptions", ro.WithDefaults(), loadgen.RunOptions{}.WithDefaults()},
	} {
		if !reflect.DeepEqual(tc.got, tc.want) {
			t.Errorf("%s: flags default to\n%+v\nthe library to\n%+v", tc.name, tc.got, tc.want)
		}
	}
	if d := learn(lo); d.Learner.MinSamples != 32 || d.Drift.MinSamples != 32 || d.StoreSize != 2048 {
		t.Errorf("learning loop defaults moved: min samples %d, drift min samples %d, store %d",
			d.Learner.MinSamples, d.Drift.MinSamples, d.StoreSize)
	}
}

// stdout runs f and returns what it printed to os.Stdout.
func stdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	f()
	os.Stdout = saved
	w.Close()
	return <-out
}

func runCLI(t *testing.T, name string, args ...string) {
	t.Helper()
	if err := lookup(name).run(args); err != nil {
		t.Fatalf("zerotune %s %s: %v", name, strings.Join(args, " "), err)
	}
}

func readJSON(t *testing.T, path string, into any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, into); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func monotone(p loadgen.Percentiles) bool {
	return sort.Float64sAreSorted([]float64{p.P50, p.P90, p.P95, p.P99, p.P999})
}

// TestBenchDryRunReportsTheScheduleItBuilt: a dry run names the horizon of
// the schedule in hand — for a replayed trace the recording's, not the
// -duration flag's default.
func TestBenchDryRunReportsTheScheduleItBuilt(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t.ztrc")
	recorded := stdout(t, func() {
		runCLI(t, "bench", "-seed", "11", "-rate", "50", "-duration", "2s", "-record", trace, "-dry")
	})
	replayed := stdout(t, func() { runCLI(t, "bench", "-replay", trace, "-dry") })
	if !strings.Contains(recorded, "over 2s not sent") || replayed != recorded {
		t.Errorf("dry runs disagree on one schedule:\nrecorded: %sreplayed: %s", recorded, replayed)
	}
}

// TestBenchReplayRejectsAModelFile: the wrong artifact handed to -replay is
// named for what it is before any target is built, not replayed as load.
func TestBenchReplayRejectsAModelFile(t *testing.T) {
	err := lookup("bench").run([]string{"-replay", tinyModel(t), "-dry"})
	if err == nil || !strings.Contains(err.Error(), core.ModelArtifactKind) || !strings.Contains(err.Error(), loadgen.TraceArtifactKind) {
		t.Errorf("bench -replay <model file>: err = %v, want one naming both artifact kinds", err)
	}
}

// stageHeader is the stage table's header line as a reader greps for it.
var stageHeader = regexp.MustCompile(`(?m)^stage +count +p50 +p99 +p99/p50$`)

// TestBenchSweepReport holds `bench -sweep -report` to what a reader of the
// report relies on: the mode, a capacity answer for the target, a positive
// goodput and positive monotone percentiles at every probe, and one
// benchmarks entry for the search.
func TestBenchSweepReport(t *testing.T) {
	report := filepath.Join(t.TempDir(), "bench.json")
	table := stdout(t, func() {
		runCLI(t, "bench", "-model", tinyModel(t), "-seed", "11", "-sweep", "-min-rate", "100",
			"-max-rate", "400", "-step-duration", "300ms", "-classes", "gold=1,best-effort=3", "-report", report)
	})
	var rep loadgen.Report
	readJSON(t, report, &rep)
	if rep.Mode != "sweep" || len(rep.Capacity) != 1 || len(rep.Capacity[0].Probes) == 0 {
		t.Fatalf("mode %q with capacity %+v", rep.Mode, rep.Capacity)
	}
	if c := rep.Capacity[0]; c.Scenario != rep.Target || c.MaxRPS <= 0 {
		t.Errorf("capacity of %q for target %q: max %g rps", c.Scenario, rep.Target, c.MaxRPS)
	}
	requests := 0
	for _, p := range rep.Capacity[0].Probes {
		st := p.Step
		requests += st.Requests
		if st.GoodputRPS <= 0 {
			t.Errorf("probe at %g rps: zero goodput", p.RPS)
		}
		if !monotone(st.Latency) || st.Latency.P50 <= 0 {
			t.Errorf("probe at %g rps: percentiles not positive and monotone: %+v", p.RPS, st.Latency)
		}
	}
	if len(rep.Benchmarks) != 1 || rep.Benchmarks[0].Name != "bench/"+rep.Target {
		t.Errorf("benchmarks %+v, want one bench/%s entry", rep.Benchmarks, rep.Target)
	}
	if !strings.Contains(table, "capacity under p99 ≤ 50ms:") {
		t.Errorf("bench printed no capacity table:\n%s", table)
	}
	// Under the capacity, where inside the target the time went: the
	// replica's own stage histograms, every request in exactly one of the two
	// first stages (a corpus of 8 bodies: hits, and at least one full miss).
	if !strings.Contains(table, loadgen.StageTableHeader) || !stageHeader.MatchString(table) {
		t.Errorf("bench printed no stage table:\n%s", table)
	}
	counts := map[string]uint64{}
	for _, row := range rep.Stages {
		counts[row.Stage] = row.Count
		if row.Count == 0 || row.P50Us <= 0 || row.P99Us < row.P50Us || row.P99OverP50 < 1 {
			t.Errorf("stage row %+v: want observations and p50 ≤ p99", row)
		}
	}
	hit, front, forward := counts[serve.StageBodyHit.String()], counts[serve.StageFront.String()], counts[serve.StageForward.String()]
	if hit == 0 || forward == 0 || hit+front != uint64(requests) {
		t.Errorf("stages count %d body hits, %d misses of the body cache and %d forward passes over %d requests", hit, front, forward, requests)
	}
}

// TestPlanReport holds `plan -report` to the 1-vs-3 replica capacity question
// it exists to answer, under pinned service times and the flags README and CI
// run it with, at several seeds: both scenarios present with a sustained rate
// below the knee's upper end, monotone percentiles at every probed rate, and
// three replicas sustaining at least what one does. Seeds 2 and 5 are there
// because a goodput judged against the nominal rate, not the requests the
// schedule drew, once found no sustained rate at all for either.
func TestPlanReport(t *testing.T) {
	for _, seed := range []string{"2", "5", "11"} {
		report := filepath.Join(t.TempDir(), "plan.json")
		stdout(t, func() {
			runCLI(t, "plan", "-service", "encode=25µs,base=150µs,peritem=6µs,hit=3µs,gateway=2µs",
				"-replicas", "1,3", "-cache=-1", "-max-batch", "1", "-route", "round-robin", "-p99", "10ms",
				"-min-rate", "200", "-max-rate", "20000", "-step-duration", "500ms",
				"-seed", seed, "-report", report)
		})
		var rep planReport
		readJSON(t, report, &rep)
		maxRPS := map[string]float64{}
		for _, c := range rep.Capacity {
			maxRPS[c.Scenario] = c.MaxRPS
			if c.MaxRPS <= 0 {
				t.Errorf("seed %s, %s: no sustained rate found", seed, c.Scenario)
			}
			if c.FailRPS != 0 && c.MaxRPS >= c.FailRPS {
				t.Errorf("seed %s, %s: knee interval inverted: max %g, fail %g", seed, c.Scenario, c.MaxRPS, c.FailRPS)
			}
			for _, p := range c.Probes {
				if !monotone(p.Step.Latency) {
					t.Errorf("seed %s, %s at %g rps: percentiles not monotone: %+v", seed, c.Scenario, p.RPS, p.Step.Latency)
				}
			}
		}
		one, ok1 := maxRPS["replicas=1"]
		three, ok3 := maxRPS["replicas=3"]
		if len(maxRPS) != 2 || !ok1 || !ok3 {
			t.Fatalf("seed %s: scenarios %v, want replicas=1 and replicas=3", seed, maxRPS)
		}
		if three < one {
			t.Errorf("seed %s: 3 replicas sustain %g rps, fewer than 1 replica's %g", seed, three, one)
		}
	}
}
