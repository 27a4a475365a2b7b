package experiments

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"
	"time"

	"zerotune/internal/metrics"
)

func parseCSV(t *testing.T, data string) [][]string {
	t.Helper()
	rows, err := csv.NewReader(strings.NewReader(data)).ReadAll()
	if err != nil {
		t.Fatalf("emitted CSV does not parse: %v\n%s", err, data)
	}
	return rows
}

func TestTable4CSV(t *testing.T) {
	r := &Table4Result{Title: "t", Rows: []Table4Row{
		{Group: "seen", Structure: "linear",
			Lat: metrics.QErrorSummary{N: 10, Median: 1.2, P95: 3.4},
			Tpt: metrics.QErrorSummary{N: 10, Median: 1.5, P95: 6.7}},
	}}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.String())
	if len(rows) != 2 || rows[1][1] != "linear" || rows[1][2] != "1.2" {
		t.Fatalf("rows: %v", rows)
	}
}

func TestFig3CSV(t *testing.T) {
	r := &Fig3Result{Points: []Fig3Point{{Parallelism: 4, Chained: true, LatencyMs: 9.5, ThroughputEPS: 1e6}}}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.String())
	if rows[1][0] != "4" || rows[1][3] != "true" {
		t.Fatalf("rows: %v", rows)
	}
}

func TestFig5CSV(t *testing.T) {
	r := &Fig5Result{Rows: []Fig5Row{{Model: "zerotune", Scope: "seen"}}}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if len(parseCSV(t, buf.String())) != 2 {
		t.Fatal("row count")
	}
}

func TestFig6CSV(t *testing.T) {
	r := &Fig6Result{
		Structures: []string{"4-way-join"},
		Before:     map[string]Table4Row{"4-way-join": {Tpt: metrics.QErrorSummary{Median: 6}}},
		After:      map[string]Table4Row{"4-way-join": {Tpt: metrics.QErrorSummary{Median: 1.5}}},
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.String())
	if len(rows) != 3 || rows[1][1] != "zero-shot" || rows[2][1] != "few-shot" {
		t.Fatalf("rows: %v", rows)
	}
}

func TestFig7And8CSV(t *testing.T) {
	r7 := &Fig7Result{Buckets: []Fig7Bucket{{Category: "XS"}}}
	var buf bytes.Buffer
	if err := r7.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if parseCSV(t, buf.String())[1][0] != "XS" {
		t.Fatal("fig7 category")
	}
	r8 := &Fig8Result{Param: "width", Points: []Fig8Point{{Value: 7, Seen: false, LatMed: 2.5, N: 30}}}
	buf.Reset()
	if err := r8.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.String())
	if rows[0][0] != "width" || rows[1][1] != "unseen" {
		t.Fatalf("fig8 rows: %v", rows)
	}
}

func TestFig9CSV(t *testing.T) {
	r := &Fig9Result{Points: []Fig9Point{{Strategy: "optisample", Queries: 500, TrainTime: 3 * time.Second}}}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.String())
	if rows[1][0] != "optisample" || rows[1][1] != "500" {
		t.Fatalf("rows: %v", rows)
	}
	// Wall-clock time is not a function of the seed and stays out of the CSV.
	if len(rows[0]) != 6 || strings.Contains(buf.String(), "train_ms") || strings.Contains(buf.String(), "3000") {
		t.Fatalf("fig9 CSV carries the training time: %v", rows)
	}
}

func TestFig10CSV(t *testing.T) {
	a := &Fig10aResult{Rows: []Fig10aRow{{Structure: "linear", LatSpeedup: 5.5}}}
	var buf bytes.Buffer
	if err := a.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if parseCSV(t, buf.String())[1][2] != "5.5" {
		t.Fatal("fig10a speedup")
	}
	b := &Fig10bResult{Rows: []Fig10bRow{{Structure: "linear", Unseen: true, ZeroTune: 0.1, Dhalion: 0.4}}}
	buf.Reset()
	if err := b.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.String())
	if rows[1][1] != "unseen" || rows[1][3] != "0.4" {
		t.Fatalf("fig10b rows: %v", rows)
	}
}

func TestFig11AndReadoutCSV(t *testing.T) {
	r := &Fig11Result{Rows: []Fig11Row{{Features: "all", SeenLatMed: 1.3}}}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if parseCSV(t, buf.String())[1][0] != "all" {
		t.Fatal("fig11 features")
	}
	ra := &ReadoutAblationResult{Rows: []ReadoutAblationRow{{Readout: "structured"}}}
	buf.Reset()
	if err := ra.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if parseCSV(t, buf.String())[1][0] != "structured" {
		t.Fatal("readout ablation")
	}
}
