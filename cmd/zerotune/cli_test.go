package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

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
// builds.
func TestFlagDefaultsAreLibraryDefaults(t *testing.T) {
	parsed := func(bind func(*flag.FlagSet)) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		bind(fs)
		if err := fs.Parse(nil); err != nil {
			t.Fatal(err)
		}
	}
	gw := func(o gateway.Options) gateway.Options { return o.WithDefaults(3) }

	var (
		so serve.Options
		g  gateway.Options
		ro loadgen.RunOptions
	)
	parsed(func(fs *flag.FlagSet) { bindServeOptions(fs, &so) })
	parsed(func(fs *flag.FlagSet) { bindGatewayOptions(fs, &g) })
	parsed(func(fs *flag.FlagSet) { bindRunOptions(fs, &ro) })
	for _, tc := range []struct {
		name      string
		got, want any
	}{
		{"serve.Options", so.WithDefaults(), serve.Options{}.WithDefaults()},
		{"gateway.Options", gw(g), gw(gateway.Options{})},
		{"loadgen.RunOptions", ro.WithDefaults(), loadgen.RunOptions{}.WithDefaults()},
	} {
		if !reflect.DeepEqual(tc.got, tc.want) {
			t.Errorf("%s: flags default to\n%+v\nthe library to\n%+v", tc.name, tc.got, tc.want)
		}
	}
}

// TestEveryOptionIsBound: every exported field of serve.Options and
// gateway.Options is moved by one of the flags their binders register, or is
// named in unbound with the reason no flag moves it. An option that neither
// a flag nor a listed caller sets is code without a user.
func TestEveryOptionIsBound(t *testing.T) {
	unbound := map[string]string{
		"serve.Options.Compiled":  "set by benchmark/fixture.go until ROADMAP 3(b)",
		"gateway.Options.Classes": "parsed from -slo",
	}
	for _, tc := range []struct {
		name string
		bind func(*flag.FlagSet) any // registers the flags; returns the options they write
	}{
		{"serve.Options", func(fs *flag.FlagSet) any { o := new(serve.Options); bindServeOptions(fs, o); return o }},
		{"gateway.Options", func(fs *flag.FlagSet) any { o := new(gateway.Options); bindGatewayOptions(fs, o); return o }},
	} {
		moved := map[string]string{} // field → a flag that moves it
		var names []string
		probe := flag.NewFlagSet(tc.name, flag.ContinueOnError)
		tc.bind(probe)
		probe.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
		for _, name := range names {
			// A fresh set per flag: the options at their flag defaults, then
			// this one flag set to a value other than its default.
			fs := flag.NewFlagSet(tc.name, flag.ContinueOnError)
			opts := reflect.ValueOf(tc.bind(fs)).Elem()
			before := reflect.New(opts.Type()).Elem()
			before.Set(opts)
			f := fs.Lookup(name)
			var next any
			switch v := f.Value.(flag.Getter).Get().(type) {
			case bool:
				next = !v
			case int:
				next = v + 1
			case uint64:
				next = v + 1
			case time.Duration:
				next = v + time.Second
			default:
				t.Fatalf("%s: -%s has a %T value this test cannot move", tc.name, name, v)
			}
			if err := fs.Set(name, fmt.Sprint(next)); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < opts.NumField(); i++ {
				if !reflect.DeepEqual(opts.Field(i).Interface(), before.Field(i).Interface()) {
					moved[opts.Type().Field(i).Name] = name
				}
			}
		}
		typ := reflect.TypeOf(tc.bind(flag.NewFlagSet(tc.name, flag.ContinueOnError))).Elem()
		for i := 0; i < typ.NumField(); i++ {
			field := typ.Field(i).Name
			qualified := tc.name + "." + field
			_, listed := unbound[qualified]
			delete(unbound, qualified)
			switch flagName, ok := moved[field]; {
			case ok && listed:
				t.Errorf("%s is moved by -%s but listed as unbound", qualified, flagName)
			case !ok && !listed:
				t.Errorf("%s is moved by no flag: bind it, list it with its reason, or delete it", qualified)
			}
		}
	}
	for stale := range unbound {
		t.Errorf("%s is listed as unbound but is no field", stale)
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

// TestBenchRefusesFlagsItCannotUse: a tier flag the chosen target has no use
// for, a schedule flag the mode draws nothing from (a replay's schedule is the
// recording's; a sweep's probes pick their own rate and horizon), or an -slo
// whose budget is not a number, is refused, naming the flag, before any
// replica starts — not dropped, and not left for -dry to skip.
func TestBenchRefusesFlagsItCannotUse(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-replicas", "-2"}, "-replicas"},
		{[]string{"-target", "http://127.0.0.1:1", "-replicas", "2"}, "-replicas"},
		{[]string{"-target", "http://127.0.0.1:1", "-slo", "gold=100"}, "-slo"},
		{[]string{"-slo", "gold=100"}, "-slo"},
		{[]string{"-replicas", "2", "-slo", "gold=x"}, "-slo"},
		{[]string{"-replicas", "2", "-slo", "gold=10:NaN"}, "-slo"},
		{[]string{"-replay", "t.ztrc", "-rate", "999"}, "-rate"},
		{[]string{"-replay", "t.ztrc", "-duration", "1h"}, "-duration"},
		{[]string{"-replay", "t.ztrc", "-classes", "gold=1"}, "-classes"},
		{[]string{"-replay", "t.ztrc", "-corpus", "64"}, "-corpus"},
		{[]string{"-replay", "t.ztrc", "-seed", "3"}, "-seed"},
		{[]string{"-sweep", "-rate", "500"}, "-rate"},
		{[]string{"-sweep", "-duration", "1m"}, "-duration"},
	} {
		err := lookup("bench").run(append(tc.args, "-dry"))
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("bench %s: err = %v, want a refusal naming %s", strings.Join(tc.args, " "), err, tc.flag)
		}
	}
}

// stageHeader is the stage table's header line as a reader greps for it.
var stageHeader = regexp.MustCompile(`(?m)^stage +count +p50 +p99 +p99/p50$`)

// TestBenchSweepReport holds `bench -sweep -report` to what a reader of the
// report relies on: the mode, a capacity answer for the target, a positive
// goodput and positive monotone percentiles at every probe, and the target's
// stage table.
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
