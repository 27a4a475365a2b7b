package experiments

import (
	"context"
	"fmt"
	"strings"

	"zerotune/internal/core"
	"zerotune/internal/gnn"
	"zerotune/internal/metrics"
	"zerotune/internal/workload"
)

// Design-choice ablations beyond the paper's Fig. 11 — these quantify the
// decisions DESIGN.md calls out for this reproduction.

// ReadoutAblationRow compares one read-out architecture.
type ReadoutAblationRow struct {
	Readout      string
	SeenLatMed   float64
	UnseenLatMed float64
	SeenTptMed   float64
	UnseenTptMed float64
}

// ReadoutAblationResult compares the structured read-out (latency as a sum
// of per-operator contributions) with the paper's plain sink-state
// read-out.
type ReadoutAblationResult struct {
	Rows []ReadoutAblationRow
}

// String renders the comparison.
func (r *ReadoutAblationResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation: read-out architecture, median q-errors\n")
	fmt.Fprintf(&b, "%-12s %10s %12s %10s %12s\n", "readout", "seen lat", "unseen lat", "seen tpt", "unseen tpt")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %10.2f %12.2f %10.2f %12.2f\n",
			row.Readout, row.SeenLatMed, row.UnseenLatMed, row.SeenTptMed, row.UnseenTptMed)
	}
	return b.String()
}

// RunReadoutAblation trains one model per read-out mode on the shared
// corpus and evaluates both on seen and unseen-structure workloads. The
// structured read-out's advantage concentrates on unseen structures —
// especially windowless filter chains, whose latency lies outside the
// training label range.
func (l *Lab) RunReadoutAblation() (*ReadoutAblationResult, error) {
	ds, err := l.Dataset()
	if err != nil {
		return nil, err
	}
	var unseen []*workload.Item
	for i, tpl := range []string{"2-chained-filters", "4-way-join", "6-way-join"} {
		items, err := l.UnseenStructures(tpl, l.Cfg.TestPerType, 6000+uint64(i))
		if err != nil {
			return nil, err
		}
		unseen = append(unseen, items...)
	}

	res := &ReadoutAblationResult{}
	for _, mode := range []gnn.ReadoutMode{gnn.ReadoutStructured, gnn.ReadoutSink} {
		var zt *core.ZeroTune
		if mode == gnn.ReadoutStructured {
			zt, err = l.ZeroTune() // the shared model already uses it
			if err != nil {
				return nil, err
			}
		} else {
			opts := l.trainOptions()
			opts.Readout = mode
			zt, _, err = core.Train(context.Background(), ds.Train, opts)
			if err != nil {
				return nil, err
			}
		}
		seenLat, seenTpt, err := zt.QErrors(ds.Test)
		if err != nil {
			return nil, err
		}
		unLat, unTpt, err := zt.QErrors(unseen)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, ReadoutAblationRow{
			Readout:      mode.String(),
			SeenLatMed:   metrics.Median(seenLat),
			UnseenLatMed: metrics.Median(unLat),
			SeenTptMed:   metrics.Median(seenTpt),
			UnseenTptMed: metrics.Median(unTpt),
		})
	}
	return res, nil
}
