package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"zerotune/internal/tensor"
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

// TestSameSeedSameBytes: a corpus is a function of the seed alone — nothing
// wall-clock is written to it — so two runs must not differ by a byte. The
// experiments' CSVs are held to the same rule, and to results/quick, by
// TestQuickResultsGolden.
func TestSameSeedSameBytes(t *testing.T) {
	corpus := func() string { return stdout(t, func() { runCLI(t, "datagen", "-n", "200", "-seed", "1") }) }
	if a, b := corpus(), corpus(); a == "" || a != b {
		t.Errorf("datagen -n 200 -seed 1 printed %d bytes, then %d different ones", len(a), len(b))
	}
}

// quickDir holds what `experiment all -scale quick -csv` writes at seed 1,
// plus its printed tables in quickTables.
const (
	quickDir    = "../../results/quick"
	quickTables = "tables.txt"
)

var updateQuick = flag.Bool("update", false, "rewrite results/quick from the code under test")

// TestQuickResultsGolden pins every number the paper's artifacts print at
// quick scale (experiments.QuickConfig, seed 1): each CSV of the artifact
// table and the printed tables, minus Fig. 9's wall-clock time column, must
// equal results/quick byte for byte. A change that moves a trained or
// simulated number shows the move in its own diff of results/quick (rewrite
// it with -update).
//
// Training is float64 and bit-identical under every kernel, but evaluation
// runs the f32 engine, whose portable GEMM rounds each product on its own
// where the two vector kernels fuse it (tensor.Kernel): under the portable
// kernel the CSVs differ from the golden in their last digits, so there the
// test only holds two runs to the same bytes.
func TestQuickResultsGolden(t *testing.T) {
	run := func(dir string) {
		tables := stdout(t, func() { runCLI(t, "experiment", "all", "-scale", "quick", "-csv", dir) })
		if err := os.WriteFile(filepath.Join(dir, quickTables), []byte(dropFig9Time(tables)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if *updateQuick {
		if err := os.RemoveAll(quickDir); err != nil {
			t.Fatal(err)
		}
		run(quickDir)
		return
	}
	got, want := t.TempDir(), quickDir
	run(got)
	if k := tensor.Kernel(); k == "portable" {
		t.Logf("%s kernel: evaluation differs from results/quick in the last float32 bits; comparing two runs instead", k)
		want = t.TempDir()
		run(want)
	}
	entries, err := os.ReadDir(got)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
		sameFiles(t, filepath.Join(want, e.Name()), filepath.Join(got, e.Name()))
	}
	wantNames := []string{"fig10a.csv", "fig10b.csv", "fig11.csv", "fig3.csv", "fig5.csv", "fig6.csv",
		"fig7a.csv", "fig7b.csv", "fig7c.csv", "fig7d-fewshot.csv", "fig7d-zeroshot.csv",
		"fig8a-width.csv", "fig8b-rate.csv", "fig8c-duration.csv", "fig8d-length.csv",
		"fig8e-workers.csv", "fig9.csv", "readout-ablation.csv", "tab4-bench.csv", "tab4-seen.csv",
		"tab4-unseen.csv", quickTables}
	if !reflect.DeepEqual(names, wantNames) {
		t.Errorf("experiment all -csv wrote %v, want %v", names, wantNames)
	}
	if stale, _ := os.ReadDir(want); len(stale) != len(entries) {
		t.Errorf("%s holds %d files, the run wrote %d", want, len(stale), len(entries))
	}
}

// dropFig9Time deletes the last column — the wall-clock training time — from
// Fig. 9's printed table, its header included.
func dropFig9Time(tables string) string {
	lines := strings.SplitAfter(tables, "\n")
	in := false
	for i, line := range lines {
		switch {
		case strings.HasPrefix(line, "== "):
			in = line == "== fig9 ==\n"
		case in && strings.TrimSpace(line) != "" && !strings.HasPrefix(line, "Fig. 9"):
			body := strings.TrimRight(line, " \n")
			body = strings.TrimRight(body[:strings.LastIndexAny(body, " ")+1], " ")
			lines[i] = body + "\n"
		}
	}
	return strings.Join(lines, "")
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
