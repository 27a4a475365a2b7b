package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json -compare needs: each end-to-end
// metric's direction and the share by which it may get worse.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec finds BENCHMARK.json from the benchmark's directory (where
// `go run -C benchmark .` runs) or from the repository root.
func loadSpec() (*benchmarkSpec, error) {
	var data []byte
	var err error
	for _, path := range []string{"../BENCHMARK.json", "BENCHMARK.json"} {
		if data, err = os.ReadFile(path); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// loadSide reads one side of a comparison: a result file, or a directory of
// them (one per run). With several runs each metric's value is the median
// over the runs, and those per-run values replace the per-window ones, so
// spread then means run-to-run spread — the one that decides what a
// comparison on a shared box can resolve.
func loadSide(path string) (map[string]*workloadResult, error) {
	paths := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if paths, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil || len(paths) == 0 {
			return nil, fmt.Errorf("%s: no result files (%v)", path, err)
		}
	}
	runs := make(map[string][]*workloadResult)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for name, res := range rf.Workloads {
			runs[name] = append(runs[name], res)
		}
	}
	side := make(map[string]*workloadResult, len(runs))
	for name, rs := range runs {
		if len(rs) == 1 {
			side[name] = rs[0]
			continue
		}
		merged := &workloadResult{EndToEnd: make(map[string]metric)}
		values := make(map[string][]float64)
		for _, r := range rs {
			merged.Failed += r.Failed
			for metricName, m := range r.EndToEnd {
				values[metricName] = append(values[metricName], m.Value)
				merged.EndToEnd[metricName] = m
			}
		}
		for metricName, v := range values {
			m := merged.EndToEnd[metricName]
			m.Value, m.Windows, m.Samples = median(v), v, len(v)
			merged.EndToEnd[metricName] = m
		}
		side[name] = merged
	}
	return side, nil
}

// spread is the distance between the first and third quartile of the values
// a median was taken over, as a share of that median; 0 for a single value.
func spread(m metric) float64 {
	if len(m.Windows) < 4 || m.Value == 0 {
		return 0
	}
	s := append([]float64(nil), m.Windows...)
	sort.Float64s(s)
	q := func(p float64) float64 { // linear interpolation between order statistics
		at := p * float64(len(s)-1)
		lo := int(at)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (at-float64(lo))*(s[lo+1]-s[lo])
	}
	return (q(0.75) - q(0.25)) / m.Value
}

// compareFiles prints one row per (workload, end-to-end metric): both values,
// how much worse the second is, the bound, and a verdict. A pair whose own
// spread exceeds the bound cannot resolve a change of that size and is
// reported unresolved, not ok. Any regressed row fails.
func compareFiles(pathA, pathB string) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	a, err := loadSide(pathA)
	if err != nil {
		return err
	}
	b, err := loadSide(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("%-13s %-16s %14s %14s %9s %7s %8s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "spread", "verdict")
	regressed := 0
	for _, w := range spec.Workloads {
		ra, rb := a[w.Name], b[w.Name]
		if ra == nil || rb == nil {
			continue
		}
		if rb.Failed > ra.Failed {
			fmt.Printf("%-13s %-16s %14d %14d %44s\n", w.Name, "failed", ra.Failed, rb.Failed, "regressed")
			regressed++
		}
		for _, ms := range spec.EndToEnd {
			ma, okA := ra.EndToEnd[ms.Name]
			mb, okB := rb.EndToEnd[ms.Name]
			if !okA || !okB || ma.Value == 0 {
				continue
			}
			worse := (mb.Value - ma.Value) / ma.Value
			if ms.Better == "higher" {
				worse = -worse
			}
			sp := max(spread(ma), spread(mb))
			verdict := "ok"
			switch {
			case sp > ms.Bound:
				verdict = "unresolved"
			case worse > ms.Bound:
				verdict = "regressed"
				regressed++
			}
			fmt.Printf("%-13s %-16s %14.4f %14.4f %+8.1f%% %6.0f%% %7.1f%%  %s\n",
				w.Name, ms.Name, ma.Value, mb.Value, 100*worse, 100*ms.Bound, 100*sp, verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d regressed", regressed)
	}
	return nil
}
