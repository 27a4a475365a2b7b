package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestArtifactTable pins what the table promises its readers: the ids in the
// order "all" runs and the CLI documents them, a group listed once ahead of
// its members, and CSV file names that cannot collide in one directory.
func TestArtifactTable(t *testing.T) {
	want := []string{"fig3", "tab4-seen", "tab4-unseen", "tab4-bench", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig10a", "fig10b", "fig11", "readout-ablation", "all"}
	if got := IDs(); !reflect.DeepEqual(got, want) {
		t.Errorf("IDs() = %v, want %v", got, want)
	}
	seen := map[string]string{}
	for _, a := range artifacts {
		names := a.csv
		if names == nil {
			names = []string{a.id}
		}
		for _, name := range names {
			if other, dup := seen[name]; dup && name != "" {
				t.Errorf("%s and %s both write %s.csv", other, a.id, name)
			}
			seen[name] = a.id
		}
	}
}

// TestRunWritesWhatTheTableNames drives the loop end to end on the one
// artifact that needs no trained model.
func TestRunWritesWhatTheTableNames(t *testing.T) {
	cfg, err := ScaleConfig("quick")
	if err != nil || cfg != QuickConfig() {
		t.Fatalf("ScaleConfig(quick) = %+v, %v", cfg, err)
	}
	if _, err := ScaleConfig("huge"); err == nil {
		t.Error("ScaleConfig accepted an unknown scale")
	}

	dir := filepath.Join(t.TempDir(), "csv")
	var out bytes.Buffer
	if err := Run(&out, NewLab(cfg), "fig3", dir); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "== fig3 ==\n") {
		t.Errorf("output does not announce the artifact:\n%s", out.String())
	}
	files, _ := os.ReadDir(dir)
	if len(files) != 1 || files[0].Name() != "fig3.csv" {
		t.Errorf("csv dir holds %v, want fig3.csv alone", files)
	}

	err = Run(&out, NewLab(cfg), "fig12", "")
	if err == nil || !strings.Contains(err.Error(), strings.Join(IDs(), ", ")) {
		t.Errorf("unknown id error does not list the valid ids: %v", err)
	}
}

// TestRunWritesEveryCSVOfAMultiResultRow: the rows with several results
// (fig7, fig8) leave exactly the files the table names — each returned as
// many results as it has names for, in the order of the names.
func TestRunWritesEveryCSVOfAMultiResultRow(t *testing.T) {
	for _, a := range artifacts {
		if a.csv == nil {
			continue
		}
		dir := t.TempDir()
		if err := Run(&bytes.Buffer{}, lab(t), a.id, dir); err != nil {
			t.Fatal(err)
		}
		var want, got []string
		for _, name := range a.csv {
			if name != "" {
				want = append(want, name+".csv")
			}
		}
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			got = append(got, f.Name())
		}
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: csv dir holds %v, want %v", a.id, got, want)
		}
	}
}
