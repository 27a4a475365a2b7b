// Command benchjson converts `go test -bench` output into a stable JSON
// snapshot and, given a previous snapshot, enforces a regression budget.
// It is the machinery behind the committed BENCH_*.json perf trajectory:
//
//	go test -run '^$' -bench . -benchtime 2s ./... | benchjson -out BENCH_6.json
//	benchjson -in bench.txt -baseline BENCH_16.json \
//	    -check BenchmarkServePredict,BenchmarkTune -max-regress-pct 10
//
// The parser understands the standard benchmark line shape — iterations,
// ns/op, B/op, allocs/op — plus any custom b.ReportMetric units (req/sec,
// gflops, graphs/sec), which land in the per-benchmark "metrics" map.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Snapshot is the committed BENCH_*.json shape.
type Snapshot struct {
	CPU        string           `json:"cpu,omitempty"`
	GoVersion  string           `json:"go,omitempty"`
	Benchmarks []BenchmarkEntry `json:"benchmarks"`
}

// BenchmarkEntry is one benchmark line of a snapshot.
type BenchmarkEntry struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	in := flag.String("in", "", "benchmark output file (default: stdin)")
	out := flag.String("out", "", "write the JSON snapshot to this file (default: stdout)")
	baseline := flag.String("baseline", "", "previous snapshot to compare against")
	check := flag.String("check", "", "comma-separated benchmark name prefixes the regression budget applies to")
	maxRegress := flag.Float64("max-regress-pct", 10, "fail when ns/op or allocs/op of -check regresses more than this percent")
	tee := flag.Bool("tee", false, "copy the raw benchmark output to stderr while parsing")
	flag.Parse()

	r := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	snap, err := Parse(r, *tee)
	if err != nil {
		fatal(err)
	}
	if len(snap.Benchmarks) == 0 {
		fatal(fmt.Errorf("benchjson: no benchmark lines found in input"))
	}

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fatal(err)
		}
	} else {
		os.Stdout.Write(data)
	}

	if *baseline != "" {
		var checks []string
		if *check != "" {
			checks = strings.Split(*check, ",")
		}
		if err := compare(*baseline, snap, checks, *maxRegress); err != nil {
			fatal(err)
		}
	}
}

// Parse reads `go test -bench` output. Benchmark names are normalized by
// stripping the -GOMAXPROCS suffix so snapshots compare across machines.
func Parse(r io.Reader, tee bool) (*Snapshot, error) {
	snap := &Snapshot{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if tee {
			fmt.Fprintln(os.Stderr, line)
		}
		switch {
		case strings.HasPrefix(line, "cpu:"):
			snap.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case strings.HasPrefix(line, "go: "):
			snap.GoVersion = strings.TrimSpace(strings.TrimPrefix(line, "go: "))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		b, ok := parseLine(line)
		if ok {
			snap.Benchmarks = append(snap.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Slice(snap.Benchmarks, func(i, j int) bool {
		return snap.Benchmarks[i].Name < snap.Benchmarks[j].Name
	})
	return snap, nil
}

// parseLine parses one "BenchmarkX-8  N  v unit  v unit ..." line.
func parseLine(line string) (BenchmarkEntry, bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return BenchmarkEntry{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return BenchmarkEntry{}, false
	}
	b := BenchmarkEntry{Name: name, Iterations: iters}
	// The remainder alternates value, unit.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return BenchmarkEntry{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return b, b.NsPerOp > 0
}

// compare enforces the regression budget of the -check prefixes against the
// baseline snapshot and prints the delta for every benchmark present in both.
// A checked row fails when its ns/op or its allocs/op exceeds the baseline's
// by more than maxRegressPct; a row the baseline records as allocation-free
// (no allocs_per_op) fails on any allocation. A checked prefix that matches
// no benchmark present in both snapshots is an error: a gate that compares
// nothing must not pass.
func compare(path string, cur *Snapshot, checks []string, maxRegressPct float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Snapshot
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("benchjson: parse baseline %s: %w", path, err)
	}
	baseBy := make(map[string]BenchmarkEntry, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseBy[b.Name] = b
	}
	var failures []string
	gated := make([]bool, len(checks))
	for _, b := range cur.Benchmarks {
		old, ok := baseBy[b.Name]
		if !ok || old.NsPerOp <= 0 {
			continue
		}
		speedup := old.NsPerOp / b.NsPerOp
		fmt.Fprintf(os.Stderr, "benchjson: %-40s %12.0f -> %12.0f ns/op (%.2fx) %8.0f -> %8.0f allocs/op\n",
			b.Name, old.NsPerOp, b.NsPerOp, speedup, old.AllocsPerOp, b.AllocsPerOp)
		for i, check := range checks {
			if !strings.HasPrefix(b.Name, check) {
				continue
			}
			gated[i] = true
			regressPct := (b.NsPerOp - old.NsPerOp) / old.NsPerOp * 100
			if regressPct > maxRegressPct {
				failures = append(failures, fmt.Sprintf(
					"%s regressed %.1f%% (%.0f -> %.0f ns/op, budget %.0f%%)",
					b.Name, regressPct, old.NsPerOp, b.NsPerOp, maxRegressPct))
			}
			if b.AllocsPerOp > old.AllocsPerOp*(1+maxRegressPct/100) {
				failures = append(failures, fmt.Sprintf(
					"%s allocates more (%.0f -> %.0f allocs/op, budget %.0f%%)",
					b.Name, old.AllocsPerOp, b.AllocsPerOp, maxRegressPct))
			}
			break
		}
	}
	for i, check := range checks {
		if !gated[i] {
			failures = append(failures, fmt.Sprintf("-check %s matches no benchmark present in both snapshots", check))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("benchjson: %s", strings.Join(failures, "; "))
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
