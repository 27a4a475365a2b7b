package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"zerotune/internal/cluster"
	"zerotune/internal/core"
	"zerotune/internal/metrics"
	"zerotune/internal/optisample"
	"zerotune/internal/workload"
)

// Exp. 4: data-efficient training (Fig. 9) — models trained on growing
// corpora enumerated with OptiSample vs Random, compared by accuracy and
// training time.

// Fig9Point is one (strategy, corpus size) training run.
type Fig9Point struct {
	Strategy     string
	Queries      int
	SeenLatMed   float64
	UnseenLatMed float64
	SeenTptMed   float64
	UnseenTptMed float64
	TrainTime    time.Duration
}

// Fig9Result is the data-efficiency comparison of Fig. 9.
type Fig9Result struct {
	Points []Fig9Point
}

// String renders both panels (accuracy vs data, time vs data).
func (r *Fig9Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 9: data efficiency — OptiSample vs Random enumeration\n")
	fmt.Fprintf(&b, "%-11s %8s %10s %12s %10s %12s %10s\n",
		"strategy", "queries", "seen lat", "unseen lat", "seen tpt", "unseen tpt", "time")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-11s %8d %10.2f %12.2f %10.2f %12.2f %10s\n",
			p.Strategy, p.Queries, p.SeenLatMed, p.UnseenLatMed, p.SeenTptMed, p.UnseenTptMed,
			p.TrainTime.Round(time.Millisecond))
	}
	return b.String()
}

// RunFig9DataEfficiency reproduces Fig. 9: for each corpus size, train one
// model on OptiSample-enumerated data and one on randomly enumerated data,
// then evaluate on a fixed seen test set and a fixed unseen-structure set.
// Sizes are fractions of the configured corpus so the suite stays scaled.
func (l *Lab) RunFig9DataEfficiency(sizes []int) (*Fig9Result, error) {
	if len(sizes) == 0 {
		n := l.Cfg.TrainQueries
		sizes = []int{n / 8, n / 4, n / 2, n}
	}
	// Fixed evaluation sets, shared across all runs.
	seenEval, err := (&workload.Generator{
		Ranges: workload.SeenRanges(), Strategy: optisample.Default(),
		Seed: l.Cfg.Seed + 2000, NodeTypes: cluster.SeenTypes(),
	}).Generate(workload.SeenRanges().Structures, l.Cfg.TestPerType*2)
	if err != nil {
		return nil, err
	}
	var unseenEval []*workload.Item
	for i, tpl := range []string{"3-chained-filters", "4-way-join", "5-way-join"} {
		items, err := l.UnseenStructures(tpl, l.Cfg.TestPerType, 2100+uint64(i))
		if err != nil {
			return nil, err
		}
		unseenEval = append(unseenEval, items...)
	}

	strategies := []struct {
		name  string
		strat optisample.Strategy
	}{
		{"optisample", optisample.Default()},
		{"random", &optisample.Random{}},
	}
	res := &Fig9Result{}
	for _, s := range strategies {
		// One large corpus per strategy; prefixes of it give the growing
		// training sets (mirrors collecting more data over time).
		maxN := sizes[len(sizes)-1]
		gen := &workload.Generator{
			Ranges: workload.SeenRanges(), Strategy: s.strat,
			Seed: l.Cfg.Seed + 2200, NodeTypes: cluster.SeenTypes(),
		}
		corpus, err := gen.Generate(workload.SeenRanges().Structures, maxN)
		if err != nil {
			return nil, err
		}
		for _, n := range sizes {
			if n < 1 || n > len(corpus) {
				return nil, fmt.Errorf("experiments: fig9 size %d out of range", n)
			}
			opts := l.trainOptions()
			zt, stats, err := core.Train(context.Background(), corpus[:n], opts)
			if err != nil {
				return nil, err
			}
			seenLat, seenTpt, err := zt.QErrors(seenEval)
			if err != nil {
				return nil, err
			}
			unLat, unTpt, err := zt.QErrors(unseenEval)
			if err != nil {
				return nil, err
			}
			res.Points = append(res.Points, Fig9Point{
				Strategy:     s.name,
				Queries:      n,
				SeenLatMed:   metrics.Median(seenLat),
				UnseenLatMed: metrics.Median(unLat),
				SeenTptMed:   metrics.Median(seenTpt),
				UnseenTptMed: metrics.Median(unTpt),
				TrainTime:    stats.Duration,
			})
		}
	}
	return res, nil
}
