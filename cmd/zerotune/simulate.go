package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"zerotune/internal/cluster"
	"zerotune/internal/obs"
	"zerotune/internal/queryplan"
	"zerotune/internal/simulator"
)

// simulateCommand executes the ground-truth engine on one plan and prints the
// cost breakdown — useful for exploring the simulator's behaviour and for
// validating model predictions by hand.
func simulateCommand(fs *flag.FlagSet) func() error {
	qf := queryFlags{query: "linear", rate: 100_000, workers: 4}
	bindQuery(fs, &qf, " (ignored with -plan)", "")
	planPath := fs.String("plan", "", "JSON file holding a serialized parallel query plan")
	nodeType := fs.String("nodetype", "", "restrict the cluster to one Table II node type")
	link := fs.Float64("link", 10, "network link speed (Gbps)")
	degrees := fs.String("degrees", "", "comma-separated per-operator degrees in ID order")
	noise := fs.Bool("noise", false, "apply measurement noise")
	trace := fs.Bool("trace", false, "print simulation span timings to stderr")
	return func() error {
		var p *queryplan.PQP
		if *planPath != "" {
			data, err := os.ReadFile(*planPath)
			if err != nil {
				return err
			}
			p = &queryplan.PQP{}
			if err := json.Unmarshal(data, p); err != nil {
				return err
			}
			if err := p.Validate(); err != nil {
				return fmt.Errorf("simulate: %s: %w", *planPath, err)
			}
		} else {
			q, err := buildQuery(qf.query, qf.rate)
			if err != nil {
				return err
			}
			p = queryplan.NewPQP(q)
			if *degrees != "" {
				parts := strings.Split(*degrees, ",")
				ids := make([]int, 0, len(p.Query.Ops))
				for _, o := range p.Query.Ops {
					ids = append(ids, o.ID)
				}
				sort.Ints(ids)
				if len(parts) != len(ids) {
					return fmt.Errorf("simulate: %d degrees for %d operators", len(parts), len(ids))
				}
				for i, part := range parts {
					d, err := strconv.Atoi(strings.TrimSpace(part))
					if err != nil {
						return fmt.Errorf("simulate: bad degree %q", part)
					}
					p.SetDegree(ids[i], d)
				}
			}
		}

		types := cluster.SeenTypes()
		if *nodeType != "" {
			t, err := cluster.TypeByName(*nodeType)
			if err != nil {
				return err
			}
			types = []cluster.NodeType{t}
		}
		c, err := cluster.New(qf.workers, types, *link)
		if err != nil {
			return err
		}

		// With -trace, time the run through the obs span machinery so the CLI
		// exercises the same plumbing the server exports on /debug/traces.
		var tracer *obs.Tracer
		ctx := context.Background()
		if *trace {
			tracer = obs.NewTracer(1)
			ctx = obs.WithTracer(ctx, tracer)
		}
		_, span := obs.StartSpan(ctx, "simulate.run")
		span.SetAttr("query", p.Query.Template)
		span.SetAttr("workers", len(c.Nodes))
		res, err := simulator.Simulate(p, c, simulator.Options{DisableNoise: !*noise})
		span.End()
		if err != nil {
			return err
		}
		if tracer != nil {
			for _, t := range tracer.Traces() {
				for _, sp := range t.Spans {
					fmt.Fprintf(os.Stderr, "trace %s span %-12s %.3fms\n", t.TraceID, sp.Name, float64(sp.Duration)/1e6)
				}
			}
		}
		fmt.Printf("plan:       %s\n", p)
		fmt.Printf("cluster:    %d workers, %d cores, %.0f Gbps\n", len(c.Nodes), c.TotalCores(), c.LinkGbps)
		fmt.Printf("latency:    %.2f ms\n", res.LatencyMs)
		fmt.Printf("throughput: %.0f ev/s\n", res.ThroughputEPS)
		fmt.Printf("capacity:   %.0f ev/s\n", res.CapacityEPS)
		fmt.Printf("backpressured: %v\n\n", res.Backpressured)

		ids := make([]int, 0, len(res.OpStats))
		for id := range res.OpStats {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		fmt.Printf("%4s %-10s %8s %12s %12s %10s %6s\n", "op", "type", "degree", "in (ev/s)", "out (ev/s)", "util", "bneck")
		for _, id := range ids {
			st := res.OpStats[id]
			op := p.Query.Op(id)
			mark := ""
			if st.Bottleneck {
				mark = "*"
			}
			fmt.Printf("%4d %-10s %8d %12.0f %12.0f %9.1f%% %6s\n",
				id, op.Type.String(), p.Degree(id), st.InRate, st.OutRate, st.Utilization*100, mark)
		}
		return nil
	}
}
