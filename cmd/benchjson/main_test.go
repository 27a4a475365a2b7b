package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestParse reads one `go test -bench` transcript: names lose their
// -GOMAXPROCS suffix, B/op and allocs/op land in their fields, any other unit
// in Metrics, the cpu: and go: lines are captured, and the PASS and ok lines
// are not benchmarks.
func TestParse(t *testing.T) {
	const out = `goos: linux
goarch: amd64
pkg: zerotune
cpu: Intel(R) Xeon(R) CPU @ 2.20GHz
go: go1.24.0
BenchmarkTune-8   	    9000	    123456 ns/op	   24576 B/op	     150 allocs/op
BenchmarkGatewayPredict/replicas=3-8 	     500	     98765.5 ns/op	 10125 req/sec
PASS
ok  	zerotune	3.210s
`
	snap, err := Parse(strings.NewReader(out), false)
	if err != nil {
		t.Fatal(err)
	}
	want := &Snapshot{
		CPU:       "Intel(R) Xeon(R) CPU @ 2.20GHz",
		GoVersion: "go1.24.0",
		Benchmarks: []BenchmarkEntry{
			{Name: "BenchmarkGatewayPredict/replicas=3", Iterations: 500, NsPerOp: 98765.5,
				Metrics: map[string]float64{"req/sec": 10125}},
			{Name: "BenchmarkTune", Iterations: 9000, NsPerOp: 123456, BytesPerOp: 24576, AllocsPerOp: 150},
		},
	}
	if !reflect.DeepEqual(snap, want) {
		t.Errorf("Parse =\n%+v\nwant\n%+v", snap, want)
	}
}

// snapshot is a run of the given ns/op rows.
func snapshot(nsPerOp map[string]float64) *Snapshot {
	var snap Snapshot
	for name, ns := range nsPerOp {
		snap.Benchmarks = append(snap.Benchmarks, BenchmarkEntry{Name: name, Iterations: 1, NsPerOp: ns})
	}
	return &snap
}

// baseline commits a snapshot of the given ns/op rows to a file.
func baseline(t *testing.T, nsPerOp map[string]float64) string {
	t.Helper()
	data, err := json.Marshal(snapshot(nsPerOp))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareGatesCheckedRows: a checked row 11 % slower than the baseline
// fails a 10 % budget and one 9 % slower passes. Each row is gated by the
// first -check prefix it matches, so listing BenchmarkServePredictMiss before
// BenchmarkServePredict gates the Miss row once, under its own prefix.
func TestCompareGatesCheckedRows(t *testing.T) {
	base := baseline(t, map[string]float64{"BenchmarkServePredict": 1000, "BenchmarkServePredictMiss": 1000})
	checks := []string{"BenchmarkServePredictMiss", "BenchmarkServePredict"}

	if err := compare(base, snapshot(map[string]float64{"BenchmarkServePredict": 1090, "BenchmarkServePredictMiss": 1090}), checks, 10); err != nil {
		t.Errorf("rows 9%% slower failed a 10%% budget: %v", err)
	}
	err := compare(base, snapshot(map[string]float64{"BenchmarkServePredict": 1090, "BenchmarkServePredictMiss": 1110}), checks, 10)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkServePredictMiss regressed 11.0%") {
		t.Fatalf("a row 11%% slower passed a 10%% budget: err = %v", err)
	}
	if n := strings.Count(err.Error(), "regressed"); n != 1 {
		t.Errorf("one slow row reported %d times: %v", n, err)
	}
}

// TestCompareRefusesEmptyGate: a -check prefix that matches no benchmark
// present in both snapshots is an error, not a pass.
func TestCompareRefusesEmptyGate(t *testing.T) {
	base := baseline(t, map[string]float64{"BenchmarkTune": 1000})
	err := compare(base, snapshot(map[string]float64{"BenchmarkTune": 1000}), []string{"BenchmarkTune", "BenchmarkMissing"}, 10)
	if err == nil || !strings.Contains(err.Error(), "-check BenchmarkMissing matches no benchmark") {
		t.Errorf("a gate over nothing passed: err = %v", err)
	}
}
