package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"zerotune/internal/cluster"
	"zerotune/internal/gateway"
	"zerotune/internal/loadgen"
	"zerotune/internal/queryplan"
	"zerotune/internal/serve"
)

// The rule of this file: a default is declared in the package that reads it;
// the flag shows it. Each bindX registers the flags of one options struct
// straight onto its fields, with the library's exported default as the flag
// default, and every subcommand exposing that struct calls the same binder —
// so a flag has one name, one default and one usage string. List-valued
// flags (-slo, -classes) stay strings, parsed once the flag set is.

// defaultModel is where train writes and every model-reading command looks.
const defaultModel = "model.json"

func bindModel(fs *flag.FlagSet, usage string) *string {
	return fs.String("model", defaultModel, usage)
}

// queryFlags is the query/rate/workers triple predict, tune, simulate and
// validate share; each presets the example it defaults to.
type queryFlags struct {
	query   string
	rate    float64
	workers int
}

func bindQuery(fs *flag.FlagSet, q *queryFlags, queryNote, rateNote string) {
	fs.StringVar(&q.query, "query", q.query, "query template"+queryNote)
	fs.Float64Var(&q.rate, "rate", q.rate, "source event rate (ev/s)"+rateNote)
	fs.IntVar(&q.workers, "workers", q.workers, "cluster size")
}

// build instantiates the query on a cluster of the seen node types.
func (q *queryFlags) build() (*queryplan.Query, *cluster.Cluster, error) {
	query, err := buildQuery(q.query, q.rate)
	if err != nil {
		return nil, nil, err
	}
	c, err := cluster.New(q.workers, cluster.SeenTypes(), 10)
	return query, c, err
}

func bindServeOptions(fs *flag.FlagSet, o *serve.Options) {
	fs.DurationVar(&o.BatchWindow, "batch-window", serve.DefaultBatchWindow, "longest a micro-batch is held for requests already on their way to it; a lone request is never held (negative: never hold)")
	fs.IntVar(&o.MaxBatch, "batch-max", serve.DefaultMaxBatch, "flush a micro-batch at this many plans")
	fs.IntVar(&o.CacheSize, "cache-size", serve.DefaultCacheSize, "plan-fingerprint cache entries")
	fs.DurationVar(&o.RequestTimeout, "request-timeout", serve.DefaultRequestTimeout, "per-predict deadline before 503 (negative: unbounded)")
	fs.BoolVar(&o.Debug, "debug", false, "enable /debug/traces and /debug/pprof endpoints")
	fs.IntVar(&o.CircuitThreshold, "circuit-threshold", serve.DefaultCircuitThreshold, "consecutive forward failures that trip the circuit breaker (negative: disabled)")
	fs.DurationVar(&o.CircuitCooldown, "circuit-cooldown", serve.DefaultCircuitCooldown, "open-circuit wait before probing the learned path again")
}

func bindGatewayOptions(fs *flag.FlagSet, o *gateway.Options) {
	fs.IntVar(&o.QueueDepth, "queue-depth", gateway.DefaultQueueDepth, "max requests parked waiting for a dispatch slot")
	fs.IntVar(&o.MaxConcurrent, "max-concurrent", 0,
		fmt.Sprintf("max forwards in flight (0: %d per replica)", gateway.DefaultConcurrentPerReplica))
	fs.DurationVar(&o.ProbeInterval, "probe-interval", gateway.DefaultProbeInterval, "health-probe period (negative: disabled)")
	fs.IntVar(&o.FailThreshold, "fail-threshold", gateway.DefaultFailThreshold, "consecutive failures before a replica is ejected")
	fs.Uint64Var(&o.Seed, "seed", gateway.DefaultSeed, "seed for deterministic rejoin-backoff jitter")
	fs.DurationVar(&o.RequestTimeout, "request-timeout", serve.DefaultRequestTimeout, "per-forward deadline (negative: unbounded)")
}

// eachEntry calls set for every name=value entry of a comma-separated flag
// value, skipping blanks, and names the flag and the entry in any error.
func eachEntry(flagName, spec string, set func(name, val string) error) error {
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, val, ok := strings.Cut(entry, "=")
		if !ok || name == "" || val == "" {
			return fmt.Errorf("%s entry %q: want name=value", flagName, entry)
		}
		if err := set(name, val); err != nil {
			return fmt.Errorf("%s entry %q: %w", flagName, entry, err)
		}
	}
	return nil
}

// bindSLO registers -slo, the gateway's admission classes; parseSLOClasses
// reads it back.
func bindSLO(fs *flag.FlagSet, what, note string) *string {
	return fs.String("slo", "", what+": name=rate[:burst[:priority]],..."+note)
}

func bindRunOptions(fs *flag.FlagSet, o *loadgen.RunOptions) {
	fs.IntVar(&o.MaxInFlight, "max-in-flight", loadgen.DefaultMaxInFlight, "cap on concurrently outstanding requests")
	fs.DurationVar(&o.Timeout, "timeout", serve.DefaultRequestTimeout, "per-request deadline (negative: unbounded)")
}

// bindSearch registers the capacity search's question, which bench -sweep
// asks of its target.
func bindSearch(fs *flag.FlagSet, o *loadgen.SearchOptions) {
	fs.DurationVar(&o.P99, "p99", loadgen.DefaultP99, "a probed rate is sustained when its corrected p99 stays inside this and 95% of its requests succeed")
	fs.Float64Var(&o.MinRPS, "min-rate", loadgen.DefaultMinRPS, "search floor (req/s): the first rate probed")
	fs.Float64Var(&o.MaxRPS, "max-rate", loadgen.DefaultMaxRPS, "search ceiling (req/s)")
	fs.DurationVar(&o.StepDuration, "step-duration", loadgen.DefaultStepDuration, "load horizon of each evaluated rate")
}

// specFlags is the generated load bench drives: the loadgen.Spec fields a
// flag sets directly, plus the two list-valued ones build turns into
// Spec.Classes and Spec.Bodies.
type specFlags struct {
	loadgen.Spec
	classes string
	corpus  int
}

func bindSpec(fs *flag.FlagSet, s *specFlags) {
	fs.Uint64Var(&s.Seed, "seed", 1, "seed for the arrival/class/body draws (same seed = byte-identical schedule)")
	fs.StringVar(&s.classes, "classes", "", "SLO class mix of generated load: name=weight,...")
	fs.IntVar(&s.corpus, "corpus", 8, "number of distinct request bodies in the generated corpus")
}

// build parses the class mix and generates the body corpus; both are pure
// functions of the flags, like the schedule drawn from the result.
func (s *specFlags) build() (loadgen.Spec, error) {
	var err error
	if s.Classes, err = parseClassMix(s.classes); err != nil {
		return s.Spec, err
	}
	s.Bodies, err = benchBodies(s.Seed, s.corpus)
	return s.Spec, err
}

// bindListen registers where a listening command binds and how long it
// drains.
func bindListen(fs *flag.FlagSet, addr, addrNote string) (*string, *time.Duration) {
	return fs.String("addr", addr, "listen address host:port"+addrNote),
		fs.Duration("drain-timeout", 10*time.Second, "graceful shutdown deadline")
}

func bindReport(fs *flag.FlagSet) *string {
	return fs.String("report", "", "write the machine-readable JSON report here")
}

// writeReport writes v where -report said; no path, no report.
func writeReport(cmd, path string, v any) error {
	if path == "" {
		return nil
	}
	if err := writeJSON(path, v); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s: report written to %s\n", cmd, path)
	return nil
}

func writeJSON(path string, v any) error {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
