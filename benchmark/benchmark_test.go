package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"

	"zerotune/internal/workload"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func specNames(specs []metricSpec) []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// BENCHMARK.json and the program must name the same workloads and metrics:
// the driver refuses a run that omits or invents one.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []string) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d names, the program %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json says %q, the program %q", what, i, got[i], want[i])
			}
			if !nameRE.MatchString(got[i]) {
				t.Errorf("%s[%d]: name %q is outside the contract's alphabet", what, i, got[i])
			}
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var inSpec []string
	for _, w := range spec.Workloads {
		inSpec = append(inSpec, w.Name)
	}
	same("workloads", inSpec, names)
	same("end_to_end", specNames(spec.EndToEnd), endToEndNames)
	same("per_layer", specNames(spec.PerLayer), perLayerNames)
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// Same seed, same bytes; another seed, other bytes — for every workload.
func TestSequencesFollowTheSeed(t *testing.T) {
	digests := func(seed uint64) []string {
		gen := workload.NewSeenGenerator(seed)
		var out []string
		for i := range workloads {
			seq, err := buildSequence(gen, &workloads[i], testScale)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, seq.digest())
		}
		return out
	}
	a, again, b := digests(1), digests(1), digests(2)
	for i, w := range workloads {
		if a[i] != again[i] {
			t.Errorf("%s: seed 1 gave two different request sequences", w.name)
		}
		if a[i] == b[i] {
			t.Errorf("%s: seeds 1 and 2 gave the same request sequence", w.name)
		}
	}
}

// checkMetrics wants exactly the metrics BENCHMARK.json lists, each finite
// and in the unit listed there.
func checkMetrics(t *testing.T, want []metricSpec, got map[string]metric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics emitted, want %d", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("metric %s not emitted", w.Name)
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != w.Unit {
			t.Errorf("metric %s = %v %q, BENCHMARK.json says unit %q", w.Name, m.Value, m.Unit, w.Unit)
		}
	}
}

func checkTrace(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil || len(spans) == 0 {
		t.Fatalf("%s: %d spans, %v", path, len(spans), err)
	}
	ids := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		if s.SpanID == 0 || ids[s.SpanID] || s.EndNs < s.StartNs || s.Layer == "" || s.Name == "" {
			t.Fatalf("%s: bad span %+v", path, s)
		}
		ids[s.SpanID] = true
	}
	for _, s := range spans {
		if s.ParentID != 0 && !ids[s.ParentID] {
			t.Fatalf("%s: span %d names parent %d, which is not in the file", path, s.SpanID, s.ParentID)
		}
	}
	for id, self := range selfTimes(spans) {
		if self < 0 {
			t.Errorf("%s: span %d has self time %d ns", path, id, self)
		}
	}
}

// Every workload, both passes, at test scale: each metric BENCHMARK.json
// names comes out once with a finite value, every answer checks, the trace
// file is well formed, and the counts that are exact by construction are.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	for i := range workloads {
		def := &workloads[i]
		t.Run(def.name, func(t *testing.T) {
			t.Parallel()
			const seconds = 0.6 // two 300 ms windows
			res, err := runWorkload(def, 1, seconds, false, testScale, out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("untraced: correct=%v failed=%d attempted=%d: %v", res.Correct, res.Failed, res.Attempted, res.err)
			}
			checkMetrics(t, spec.EndToEnd, res.EndToEnd)
			if _, err := driverLine(res, endToEndNames, res.EndToEnd); err != nil {
				t.Error(err)
			}

			res, err = runWorkload(def, 1, seconds, true, testScale, out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced: correct=%v failed=%d: %v", res.Correct, res.Failed, res.err)
			}
			checkMetrics(t, spec.PerLayer, res.PerLayer)
			if res.TraceFile != filepath.Join(out, "trace-"+def.name+".jsonl") {
				t.Errorf("trace file %q", res.TraceFile)
			}
			checkTrace(t, res.TraceFile)

			near := func(name string, want float64) {
				t.Helper()
				if got := res.PerLayer[name].Value; math.Abs(got-want) > 0.01 {
					t.Errorf("%s = %.4f, want %.2f ± 0.01", name, got, want)
				}
			}
			switch def.name {
			case "predict_hot":
				near("serve.bodycache_hit_share", 1)
				near("serve.batch_size_mean", 0)
			case "predict_cold":
				near("serve.bodycache_hit_share", 0)
				near("serve.plancache_hit_share", 0)
			case "gateway_mix":
				near("serve.bodycache_hit_share", 0.60)
				near("serve.plancache_hit_share", 0.50)
				near("gateway.retries", 0)
				near("gateway.spillovers", 0)
			case "tune":
				near("serve.bodycache_hit_share", 0)
				near("serve.batch_size_mean", 0)
			}
			var staged float64
			for _, name := range missStages {
				staged += res.PerLayer[name].Value
			}
			if miss, rest := res.PerLayer["serve.handler_miss_us"].Value, res.PerLayer["serve.unattributed_miss_us"].Value; math.Abs(staged+rest-miss) > 1e-6*miss {
				t.Errorf("stages %.3f + unattributed %.3f != handler_miss %.3f", staged, rest, miss)
			}
		})
	}
}

func TestHistogramQuantileWithinOnePercent(t *testing.T) {
	var h hist
	var raw []float64
	for v := int64(900); v < 40_000_000; v += v/37 + 1 {
		h.record(v)
		raw = append(raw, float64(v))
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99} {
		want := quantileOf(raw, q)
		if got := h.quantile(q); math.Abs(got-want) > 0.03*want {
			// neighbours differ by 1/37 = 2.7 %, so allow one rank of slack
			t.Errorf("q%.2f = %.0f, raw samples say %.0f", q, got, want)
		}
	}
	var one hist
	one.record(123_456)
	if got := one.quantile(0.99); math.Abs(got-123_456) > 0.01*123_456 {
		t.Errorf("single sample 123456 read back as %.0f", got)
	}
}

// Throughput counts the time the VM was allowed to run; set-up time does too.
func TestStolenTimeIsNotCounted(t *testing.T) {
	w := windowStats{ok: 100, seconds: 1, stolen: stolenShare(hostTime{total: 1000, steal: 10}, hostTime{total: 1200, steal: 50})}
	if got := w.wallThroughput(); got != 100 {
		t.Errorf("wall throughput %g, want 100", got)
	}
	if got := w.throughput(); math.Abs(got-125) > 1e-9 {
		t.Errorf("throughput with a fifth of the window stolen = %g, want 125", got)
	}
	if got := stolenShare(hostTime{}, hostTime{}); got != 0 {
		t.Errorf("no /proc/stat: stolen share %g, want 0", got)
	}
	if got := stolenShare(hostTime{}, hostTime{total: 10, steal: 10}); got >= 1 {
		t.Errorf("stolen share %g must stay below 1", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, tput float64) string {
		rf := resultFile{Workloads: map[string]*workloadResult{"tune": {EndToEnd: map[string]metric{
			"throughput_rps": {Value: tput, Unit: "req/s", Windows: []float64{tput, tput, tput, tput}},
		}}}}
		path := filepath.Join(dir, name)
		if err := writeResultFile(path, &rf); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := write("a.json", 1000), write("b.json", 990), write("c.json", 500)
	if err := compareFiles(base, same); err != nil {
		t.Errorf("1 %% slower reported as %v", err)
	}
	if err := compareFiles(base, slow); err == nil {
		t.Error("half the throughput was not reported as a regression")
	}
	// A directory is a set of runs: medians 1000 and 700, run-to-run spread
	// far inside the bound, so the drop is a regression, not unresolved.
	for i, v := range []float64{980, 1000, 1010, 1020} {
		write(filepath.Join("fast", string(rune('a'+i))+".json"), v)
		write(filepath.Join("slow", string(rune('a'+i))+".json"), 0.7*v)
	}
	if err := compareFiles(filepath.Join(dir, "fast"), filepath.Join(dir, "slow")); err == nil {
		t.Error("a set of runs 30 % slower was not reported as a regression")
	}
	if err := compareFiles(filepath.Join(dir, "fast"), filepath.Join(dir, "fast")); err != nil {
		t.Errorf("a set compared with itself: %v", err)
	}
}
