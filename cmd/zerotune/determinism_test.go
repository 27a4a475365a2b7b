package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// sameFiles fails the test unless the files at a and b hold the same bytes.
func sameFiles(t *testing.T, a, b string) {
	t.Helper()
	da, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(da) == 0 || !bytes.Equal(da, db) {
		t.Errorf("%s (%d bytes) and %s (%d bytes) differ or are empty", filepath.Base(a), len(da), filepath.Base(b), len(db))
	}
}

// TestSameSeedSameBytes: a corpus and the CSVs of every artifact are
// functions of the seed alone — nothing wall-clock is written to either — so
// two runs must not differ by a byte. -scale quick is
// experiments.QuickConfig; every CSV the artifact table names is written.
func TestSameSeedSameBytes(t *testing.T) {
	corpus := func() string { return stdout(t, func() { runCLI(t, "datagen", "-n", "200", "-seed", "1") }) }
	if a, b := corpus(), corpus(); a == "" || a != b {
		t.Errorf("datagen -n 200 -seed 1 printed %d bytes, then %d different ones", len(a), len(b))
	}

	dir := t.TempDir()
	for _, run := range []string{"a", "b"} {
		stdout(t, func() { runCLI(t, "experiment", "all", "-scale", "quick", "-csv", filepath.Join(dir, run)) })
	}
	entries, err := os.ReadDir(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, strings.TrimSuffix(e.Name(), ".csv"))
		sameFiles(t, filepath.Join(dir, "a", e.Name()), filepath.Join(dir, "b", e.Name()))
	}
	want := []string{"fig10a", "fig10b", "fig11", "fig3", "fig5", "fig6", "fig7a", "fig7b", "fig7c",
		"fig7d-fewshot", "fig7d-zeroshot", "fig8a-width", "fig8b-rate", "fig8c-duration", "fig8d-length",
		"fig8e-workers", "fig9", "readout-ablation", "tab4-bench", "tab4-seen", "tab4-unseen"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("experiment all -csv wrote %v, want %v", names, want)
	}
}

// TestChaosEventLogIsAFunctionOfTheSeed replays three seeded fault storms
// twice each: the event logs are byte-identical, every invariant holds, and
// the degradation and circuit-breaker series are reported.
func TestChaosEventLogIsAFunctionOfTheSeed(t *testing.T) {
	model := tinyModel(t)
	dir := t.TempDir()
	for _, seed := range []string{"7", "42", "1337"} {
		a, b := filepath.Join(dir, seed+"-a.log"), filepath.Join(dir, seed+"-b.log")
		out := stdout(t, func() { runCLI(t, "chaos", "-model", model, "-seed", seed, "-log", a) })
		stdout(t, func() { runCLI(t, "chaos", "-model", model, "-seed", seed, "-log", b) })
		sameFiles(t, a, b)
		for _, want := range []string{"chaos: all invariants held", "zerotune_serve_degraded_total", "zerotune_circuit_open_total"} {
			if !strings.Contains(out, want) {
				t.Errorf("seed %s: output lacks %q:\n%s", seed, want, out)
			}
		}
	}
}

// TestBenchTraceRecordReplay holds the contract the load harness is built on:
// the same seed records the same trace bytes, and replaying a trace while
// re-recording it reproduces the original file exactly.
func TestBenchTraceRecordReplay(t *testing.T) {
	model := tinyModel(t)
	dir := t.TempDir()
	trace := func(name string) string { return filepath.Join(dir, name) }
	for _, name := range []string{"t1.ztrc", "t2.ztrc"} {
		stdout(t, func() {
			runCLI(t, "bench", "-model", model, "-seed", "11", "-rate", "200", "-duration", "2s",
				"-classes", "gold=1,best-effort=3", "-record", trace(name), "-dry")
		})
	}
	sameFiles(t, trace("t1.ztrc"), trace("t2.ztrc"))
	stdout(t, func() { runCLI(t, "bench", "-model", model, "-replay", trace("t1.ztrc"), "-record", trace("t3.ztrc")) })
	sameFiles(t, trace("t1.ztrc"), trace("t3.ztrc"))
}

// TestPlanIsDeterministic: two planning runs with pinned service times agree
// byte for byte on the decision trace and on the JSON report. What the report
// must say is TestPlanReport's.
func TestPlanIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	for _, run := range []string{"1", "2"} {
		stdout(t, func() {
			runCLI(t, "plan", "-service", "encode=25µs,base=150µs,peritem=6µs,hit=3µs,gateway=2µs",
				"-replicas", "1,3", "-cache=-1", "-max-batch", "1", "-route", "round-robin", "-p99", "10ms",
				"-min-rate", "200", "-max-rate", "20000", "-step-duration", "500ms", "-seed", "11",
				"-trace", filepath.Join(dir, "plan"+run+".trace"), "-report", filepath.Join(dir, "plan"+run+".json"))
		})
	}
	sameFiles(t, filepath.Join(dir, "plan1.trace"), filepath.Join(dir, "plan2.trace"))
	sameFiles(t, filepath.Join(dir, "plan1.json"), filepath.Join(dir, "plan2.json"))
}
