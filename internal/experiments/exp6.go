package experiments

import (
	"context"
	"fmt"
	"strings"

	"zerotune/internal/cluster"
	"zerotune/internal/core"
	"zerotune/internal/features"
	"zerotune/internal/metrics"
	"zerotune/internal/optisample"
	"zerotune/internal/workload"
)

// Exp. 6: feature ablation (Fig. 11) — retrain the model with only (1)
// operator-related features, (2) parallelism- and resource-related
// features, and (3) all transferable features, then compare latency
// q-errors on seen and unseen workloads.

// Fig11Row is one ablation configuration.
type Fig11Row struct {
	Features     string
	SeenLatMed   float64
	SeenLatP95   float64
	UnseenLatMed float64
	UnseenLatP95 float64
}

// Fig11Result is Fig. 11.
type Fig11Result struct {
	Rows []Fig11Row
}

// String renders the ablation table.
func (r *Fig11Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 11: feature ablation, latency q-errors\n")
	fmt.Fprintf(&b, "%-24s %18s %18s\n", "features", "seen med(95)", "unseen med(95)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-24s %9.2f (%6.1f) %9.2f (%6.1f)\n",
			row.Features, row.SeenLatMed, row.SeenLatP95, row.UnseenLatMed, row.UnseenLatP95)
	}
	return b.String()
}

// RunFig11Ablation reproduces Fig. 11: one model per feature mask, all
// trained on the same corpus and evaluated on the same seen/unseen sets.
// The evaluation sets deliberately include plans whose parallelism degrees
// vary widely at fixed workload parameters — the regime where a model
// without parallelism/resource features cannot tell a saturated plan from
// an over-provisioned one.
func (l *Lab) RunFig11Ablation() (*Fig11Result, error) {
	ds, err := l.Dataset()
	if err != nil {
		return nil, err
	}
	// Loaded eval sets: high event rates with degrees spanning heavy
	// under- to over-provisioning — the regime where a model without
	// parallelism features cannot locate the backpressure cliff.
	loadedItems := func(structures []string, seed uint64) ([]*workload.Item, error) {
		gen := &workload.Generator{
			Ranges:    workload.SeenRanges(),
			Strategy:  &optisample.Random{MaxDegree: 32},
			Seed:      seed,
			NodeTypes: cluster.SeenTypes(),
		}
		gen.Ranges.EventRates = []float64{100_000, 250_000, 500_000, 1_000_000}
		return gen.Generate(structures, l.Cfg.TestPerType)
	}

	seen := append([]*workload.Item{}, ds.Test...)
	extraSeen, err := loadedItems(workload.SeenRanges().Structures, l.Cfg.Seed+5100)
	if err != nil {
		return nil, err
	}
	seen = append(seen, extraSeen...)

	var unseen []*workload.Item
	for i, tpl := range []string{"3-chained-filters", "4-way-join"} {
		items, err := l.UnseenStructures(tpl, l.Cfg.TestPerType, 5000+uint64(i))
		if err != nil {
			return nil, err
		}
		unseen = append(unseen, items...)
	}
	extraUnseen, err := loadedItems([]string{"3-chained-filters", "4-way-join"}, l.Cfg.Seed+5200)
	if err != nil {
		return nil, err
	}
	unseen = append(unseen, extraUnseen...)

	masks := []features.Mask{features.MaskOperatorOnly, features.MaskParallelismResource, features.MaskAll}
	res := &Fig11Result{}
	for _, mask := range masks {
		var zt *core.ZeroTune
		if mask == features.MaskAll {
			zt, err = l.ZeroTune() // reuse the shared full model
			if err != nil {
				return nil, err
			}
		} else {
			opts := l.trainOptions()
			opts.Mask = mask
			zt, _, err = core.Train(context.Background(), ds.Train, opts)
			if err != nil {
				return nil, err
			}
		}
		seenLat, _, err := zt.QErrors(seen)
		if err != nil {
			return nil, err
		}
		unLat, _, err := zt.QErrors(unseen)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Fig11Row{
			Features:     mask.String(),
			SeenLatMed:   metrics.Median(seenLat),
			SeenLatP95:   metrics.P95(seenLat),
			UnseenLatMed: metrics.Median(unLat),
			UnseenLatP95: metrics.P95(unLat),
		})
	}
	return res, nil
}
