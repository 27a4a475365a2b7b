package main

import (
	"errors"
	"flag"
	"fmt"

	"zerotune/internal/desim"
	"zerotune/internal/queryplan"
	"zerotune/internal/simulator"
)

// validateCommand cross-checks the analytical cost engine against the
// discrete-event simulator on one configuration: both implement the same
// engine semantics through entirely different code paths, so agreement is
// evidence the ground truth is self-consistent.
func validateCommand(fs *flag.FlagSet) func() error {
	qf := queryFlags{query: "linear", rate: 5000, workers: 2}
	bindQuery(fs, &qf, "", "; keep modest — desim simulates every tuple")
	duration := fs.Float64("duration", 5000, "simulated horizon (ms) after warm-up")
	maxEvents := fs.Int("max-events", 0, "event budget before the simulation aborts (0 = desim's default)")
	return func() error {
		q, c, err := qf.build()
		if err != nil {
			return err
		}
		// Align the models: desim has no output-buffer batching, coordination
		// overhead or noise.
		cm := simulator.DefaultCostModel()
		cm.NoiseSigma = 0
		cm.BufferFlushMs = 0
		cm.SyncPerInstanceMs = 0

		p := queryplan.NewPQP(q)
		ana, err := simulator.Simulate(p.Clone(), c, simulator.Options{Cost: &cm, DisableNoise: true})
		if err != nil {
			return err
		}
		dis, err := desim.Run(p.Clone(), c, desim.Options{
			Cost: &cm, DurationMs: *duration, WarmupMs: *duration / 5, MaxEvents: *maxEvents,
		})
		if errors.Is(err, desim.ErrEventBudget) {
			return fmt.Errorf("%w\nthe event budget bounds runaway simulations: the configuration is likely "+
				"past saturation (queues growing without bound). Lower -rate, shorten -duration, or raise "+
				"-max-events if the run is genuinely expected to be this large", err)
		}
		if err != nil {
			return err
		}

		fmt.Printf("configuration: %s at %.0f ev/s on %d workers\n\n", qf.query, qf.rate, qf.workers)
		fmt.Printf("%-22s %15s %15s %10s\n", "metric", "analytical", "discrete-event", "ratio")
		ratio := func(a, b float64) string {
			if b == 0 {
				return "-"
			}
			return fmt.Sprintf("%.2f", a/b)
		}
		fmt.Printf("%-22s %13.2fms %13.2fms %10s\n", "latency (avg)", ana.LatencyMs, dis.AvgLatencyMs,
			ratio(dis.AvgLatencyMs, ana.LatencyMs))
		fmt.Printf("%-22s %12.0f/s %12.0f/s %10s\n", "throughput", ana.ThroughputEPS, dis.IngestedEPS,
			ratio(dis.IngestedEPS, ana.ThroughputEPS))
		fmt.Printf("%-22s %15v %15v\n", "saturated", ana.Backpressured, dis.Saturated)
		fmt.Printf("%-22s %15s %15d\n", "sink deliveries", "-", dis.SinkDeliveries)
		fmt.Printf("%-22s %15s %15d\n", "max queue", "-", dis.MaxQueueLen)
		return nil
	}
}
