package loadgen

import (
	"fmt"
	"strings"
	"time"

	"zerotune/internal/obs"
	"zerotune/internal/serve"
)

// quantile labels rendered in tables and reports, in order.
var reportQuantiles = []struct {
	Q    float64
	Name string
}{
	{0.50, "p50"}, {0.90, "p90"}, {0.95, "p95"}, {0.99, "p99"}, {0.999, "p99.9"},
}

// Percentiles is one latency distribution summary in milliseconds, read from
// an obs.Histogram that recorded every request of the step — the estimator
// behind /metrics and the drain digest, whole-run like them — so each value
// is within obs.QuantileRelErr of the exact sorted quantile.
type Percentiles struct {
	P50  float64 `json:"p50_ms"`
	P90  float64 `json:"p90_ms"`
	P95  float64 `json:"p95_ms"`
	P99  float64 `json:"p99_ms"`
	P999 float64 `json:"p999_ms"`
}

// percentiles reads the summary off a histogram of seconds (all zero when
// nothing was recorded).
func percentiles(h *obs.Histogram) Percentiles {
	s := h.Snapshot()
	ms := func(q float64) float64 { return s.Quantile(q) * 1e3 }
	return Percentiles{P50: ms(0.50), P90: ms(0.90), P95: ms(0.95), P99: ms(0.99), P999: ms(0.999)}
}

// byName returns the named percentile.
func (p Percentiles) byName(name string) float64 {
	switch name {
	case "p50":
		return p.P50
	case "p90":
		return p.P90
	case "p95":
		return p.P95
	case "p99":
		return p.P99
	default:
		return p.P999
	}
}

// ClassReport is the per-SLO-class slice of a step.
type ClassReport struct {
	Requests int         `json:"requests"`
	OK       int         `json:"ok"`
	Latency  Percentiles `json:"latency"`
}

// StepReport summarizes one offered-load step: a whole fixed-rate run, or
// one probe of a capacity search.
type StepReport struct {
	// OfferedRPS is the intended mean arrival rate of the step.
	OfferedRPS float64 `json:"offered_rps"`
	// Requests actually scheduled; wall is the step's intended horizon.
	Requests   int     `json:"requests"`
	WallSec    float64 `json:"wall_sec"`
	OK         int     `json:"ok"` // 2xx responses
	TransportE int     `json:"transport_errors"`
	// StatusCounts maps non-2xx HTTP statuses to occurrence counts.
	StatusCounts map[string]int `json:"status_counts,omitempty"`
	// GoodputRPS is 2xx completions per second of intended horizon.
	GoodputRPS float64 `json:"goodput_rps"`
	// Latency is coordinated-omission-corrected (intended send → done).
	Latency Percentiles `json:"latency"`
	// Service is the closed-loop view (actual send → done), reported so the
	// size of the correction is visible.
	Service Percentiles `json:"service"`
	// MaxSendLagMs is the worst intended-vs-actual send skew — a sanity
	// check that the generator itself kept up.
	MaxSendLagMs float64 `json:"max_send_lag_ms"`
	// Fat-tail ratios; 0 when the base percentile is 0.
	P99OverP50  float64 `json:"p99_over_p50,omitempty"`
	P999OverP99 float64 `json:"p999_over_p99,omitempty"`
	// PerClass breaks the step down by SLO class when classes were mixed.
	PerClass map[string]ClassReport `json:"per_class,omitempty"`
}

// BuildStep aggregates one run's results into a step summary. Exported so
// the serve-tier simulator (internal/desim) reports its virtual runs through
// the same percentile machinery live bench runs use — a plan table and a
// bench table disagree only where the model does, never in the arithmetic.
func BuildStep(offered float64, wall time.Duration, results []Result) StepReport {
	st := StepReport{
		OfferedRPS: offered,
		Requests:   len(results),
		WallSec:    wall.Seconds(),
	}
	var lat, svc obs.Histogram
	type classAcc struct {
		ClassReport
		lat obs.Histogram
	}
	perClass := map[string]*classAcc{}
	for _, r := range results {
		lat.Observe(r.Latency.Seconds())
		svc.Observe(r.Service.Seconds())
		if ms := float64(r.SendLag) / float64(time.Millisecond); ms > st.MaxSendLagMs {
			st.MaxSendLagMs = ms
		}
		ok := !r.Err && r.Status >= 200 && r.Status < 300
		if ok {
			st.OK++
		} else if r.Err {
			st.TransportE++
		} else {
			if st.StatusCounts == nil {
				st.StatusCounts = map[string]int{}
			}
			st.StatusCounts[fmt.Sprint(r.Status)]++
		}
		if r.Class != "" {
			c := perClass[r.Class]
			if c == nil {
				c = &classAcc{}
				perClass[r.Class] = c
			}
			c.Requests++
			if ok {
				c.OK++
			}
			c.lat.Observe(r.Latency.Seconds())
		}
	}
	st.Latency = percentiles(&lat)
	st.Service = percentiles(&svc)
	if wall > 0 {
		st.GoodputRPS = float64(st.OK) / wall.Seconds()
	}
	if st.Latency.P50 > 0 {
		st.P99OverP50 = st.Latency.P99 / st.Latency.P50
	}
	if st.Latency.P99 > 0 {
		st.P999OverP99 = st.Latency.P999 / st.Latency.P99
	}
	if len(perClass) > 0 {
		st.PerClass = make(map[string]ClassReport, len(perClass))
		for name, c := range perClass {
			c.Latency = percentiles(&c.lat)
			st.PerClass[name] = c.ClassReport
		}
	}
	return st
}

// StageRow is one stage histogram of the target, as its /metrics page showed
// it once the run was over: where inside the target the end-to-end latency
// above it went. The histograms are the target's own and whole-run, so a search
// has one table, not one per probe.
type StageRow struct {
	// Source names the page when the target has several (each replica behind
	// an in-process gateway); empty otherwise.
	Source string  `json:"source,omitempty"`
	Stage  string  `json:"stage"`
	Count  uint64  `json:"count"`
	P50Us  float64 `json:"p50_us"`
	P99Us  float64 `json:"p99_us"`
	// P99OverP50 is the stage's fat-tail ratio; 0 when P50Us is 0.
	P99OverP50 float64 `json:"p99_over_p50,omitempty"`
}

// NewStageRow is the row of one parsed histogram series.
func NewStageRow(source, stage string, h obs.HistogramStat) StageRow {
	r := StageRow{Source: source, Stage: stage, Count: h.Count, P50Us: h.P50 * 1e6, P99Us: h.P99 * 1e6}
	if h.P50 > 0 {
		r.P99OverP50 = h.P99 / h.P50
	}
	return r
}

// StageRows reads the predict stages that happened at least once off a parsed
// /metrics page, in request order.
func StageRows(source string, samples []obs.Sample) []StageRow {
	var rows []StageRow
	for st, h := range serve.ReadStages(samples) {
		if h.Count > 0 {
			rows = append(rows, NewStageRow(source, serve.Stage(st).String(), h))
		}
	}
	return rows
}

// StageTableHeader opens the per-stage table Table prints.
const StageTableHeader = "stage                         count       p50       p99   p99/p50"

// stageTable renders rows under StageTableHeader ("" for no rows).
func stageTable(rows []StageRow) string {
	if len(rows) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString(StageTableHeader + "\n")
	for _, r := range rows {
		name := r.Stage
		if r.Source != "" {
			name = r.Source + " " + r.Stage
		}
		fmt.Fprintf(&b, "%-26s %8d %7.1fµs %7.1fµs %9.2f\n", name, r.Count, r.P50Us, r.P99Us, r.P99OverP50)
	}
	return b.String()
}

// BenchmarkEntry is one row of a BENCH_*.json snapshot: cmd/benchjson writes
// its rows with this type, so a bench report can be fed anywhere a snapshot
// is accepted (regression baselines, the perf-trajectory tooling).
type BenchmarkEntry struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the machine-readable output of bench and plan.
type Report struct {
	// Mode is "fixed", "replay" or "sweep" (bench), "plan" or "plan-fixed"
	// (plan).
	Mode string `json:"mode"`
	// Target names what was driven ("serve", "gateway", a URL, or "desim").
	Target string `json:"target"`
	// Trace echoes the workload provenance (seed, process, rates).
	Trace TraceHeader `json:"trace"`
	// Steps holds the one step of a fixed-rate or replayed run.
	Steps []StepReport `json:"steps,omitempty"`
	// Search is the question of a capacity search, Capacity its answer for
	// each scenario searched.
	Search   *SearchOptions `json:"search,omitempty"`
	Capacity []Capacity     `json:"capacity,omitempty"`
	// Stages is where the target spent the run, stage by stage; the caller
	// that owns the target fills it from the target's /metrics.
	Stages []StageRow `json:"stages,omitempty"`
	// Benchmarks is the benchjson-compatible projection of Steps and Capacity.
	Benchmarks []BenchmarkEntry `json:"benchmarks"`
}

// SingleStep assembles the one-step report of a fixed-rate or replay run.
func SingleStep(mode, target string, h TraceHeader, offered float64, wall time.Duration, results []Result) *Report {
	return &Report{
		Mode:   mode,
		Target: target,
		Trace:  h,
		Steps:  []StepReport{BuildStep(offered, wall, results)},
	}
}

// BuildBenchmarks projects the report into benchjson's schema under cmd: one
// cmd/target/rate=R entry per step, whose ns_per_op is the corrected p50 (a
// latency, like any ns/op), and one cmd/scenario entry per capacity, read at
// its highest sustained rate; everything else rides in the metrics map.
func (r *Report) BuildBenchmarks(cmd string) {
	r.Benchmarks = r.Benchmarks[:0]
	for _, st := range r.Steps {
		r.Benchmarks = append(r.Benchmarks, BenchmarkEntry{
			Name:       fmt.Sprintf("%s/%s/rate=%g", cmd, r.Target, st.OfferedRPS),
			Iterations: int64(st.Requests),
			NsPerOp:    st.Latency.P50 * 1e6,
			Metrics: map[string]float64{
				"req/sec":     st.GoodputRPS,
				"p99-ms":      st.Latency.P99,
				"p99.9-ms":    st.Latency.P999,
				"p99/p50":     st.P99OverP50,
				"p99.9/p99":   st.P999OverP99,
				"errors":      float64(st.Requests - st.OK),
				"offered-rps": st.OfferedRPS,
			},
		})
	}
	for _, c := range r.Capacity {
		best := c.Best()
		r.Benchmarks = append(r.Benchmarks, BenchmarkEntry{
			Name:       cmd + "/" + c.Scenario,
			Iterations: int64(best.Requests),
			NsPerOp:    best.Latency.P50 * 1e6,
			Metrics: map[string]float64{
				"max-rps":     c.MaxRPS,
				"fail-rps":    c.FailRPS,
				"p99-ms":      best.Latency.P99,
				"goodput-rps": best.GoodputRPS,
			},
		})
	}
}

// Table renders the human-readable report: the percentile table of the
// steps, the capacity table of a search, and the target's stage table, each
// when the report has one.
func (r *Report) Table() string {
	var b strings.Builder
	if len(r.Steps) > 0 {
		fmt.Fprintf(&b, "%10s %9s %8s %10s", "offered", "requests", "goodput", "errors")
		for _, q := range reportQuantiles {
			fmt.Fprintf(&b, " %9s", q.Name)
		}
		fmt.Fprintf(&b, " %9s %9s\n", "p99/p50", "p99.9/p99")
		for _, st := range r.Steps {
			fmt.Fprintf(&b, "%8.1f/s %9d %6.1f/s %10d", st.OfferedRPS, st.Requests, st.GoodputRPS, st.Requests-st.OK)
			for _, q := range reportQuantiles {
				fmt.Fprintf(&b, " %7.2fms", st.Latency.byName(q.Name))
			}
			fmt.Fprintf(&b, " %9.2f %9.2f\n", st.P99OverP50, st.P999OverP99)
		}
	}
	if r.Search != nil {
		fmt.Fprintf(&b, "capacity under p99 ≤ %s:\n", r.Search.P99)
		fmt.Fprintf(&b, "%14s %10s %10s %9s %9s %9s %6s\n",
			"scenario", "max rps", "knee <", "p50", "p99", "goodput", "evals")
		for _, c := range r.Capacity {
			best := c.Best()
			maxCol, failCol := "none", "—"
			if c.MaxRPS > 0 {
				maxCol = fmt.Sprintf("%.0f/s", c.MaxRPS)
			}
			if c.FailRPS > 0 {
				failCol = fmt.Sprintf("%.0f/s", c.FailRPS)
			}
			fmt.Fprintf(&b, "%14s %10s %10s %7.2fms %7.2fms %7.1f/s %6d\n",
				c.Scenario, maxCol, failCol, best.Latency.P50, best.Latency.P99, best.GoodputRPS, len(c.Probes))
		}
	}
	b.WriteString(stageTable(r.Stages))
	return b.String()
}
