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
