package experiments

import (
	"encoding/csv"
	"io"
	"strconv"
)

// CSV emitters: every result type can dump its rows as CSV so the figures
// can be re-plotted with external tooling (the paper's artifacts are
// plots; this repository prints tables and ships the raw series).

func writeCSV(w io.Writer, header []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func f(x float64) string { return strconv.FormatFloat(x, 'g', 6, 64) }

// WriteCSV emits the Table IV rows.
func (r *Table4Result) WriteCSV(w io.Writer) error {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Group, row.Structure,
			f(row.Lat.Median), f(row.Lat.P95), f(row.Tpt.Median), f(row.Tpt.P95),
			strconv.Itoa(row.Lat.N)})
	}
	return writeCSV(w, []string{"group", "structure", "lat_median", "lat_p95", "tpt_median", "tpt_p95", "n"}, rows)
}

// WriteCSV emits the Fig. 3 sweep.
func (r *Fig3Result) WriteCSV(w io.Writer) error {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{strconv.Itoa(p.Parallelism),
			f(p.LatencyMs), f(p.ThroughputEPS), strconv.FormatBool(p.Chained)})
	}
	return writeCSV(w, []string{"parallelism", "latency_ms", "throughput_eps", "grouped"}, rows)
}

// WriteCSV emits the Fig. 5 model comparison.
func (r *Fig5Result) WriteCSV(w io.Writer) error {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Model, row.Scope,
			f(row.Lat.Median), f(row.Lat.P95), f(row.Tpt.Median), f(row.Tpt.P95)})
	}
	return writeCSV(w, []string{"model", "scope", "lat_median", "lat_p95", "tpt_median", "tpt_p95"}, rows)
}

// WriteCSV emits the Fig. 6 before/after comparison.
func (r *Fig6Result) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, s := range r.Structures {
		rows = append(rows, []string{s, "zero-shot",
			f(r.Before[s].Lat.Median), f(r.Before[s].Tpt.Median), f(r.Before[s].Tpt.P95)})
		rows = append(rows, []string{s, "few-shot",
			f(r.After[s].Lat.Median), f(r.After[s].Tpt.Median), f(r.After[s].Tpt.P95)})
	}
	return writeCSV(w, []string{"structure", "mode", "lat_median", "tpt_median", "tpt_p95"}, rows)
}

// WriteCSV emits one Fig. 7 panel.
func (r *Fig7Result) WriteCSV(w io.Writer) error {
	rows := make([][]string, 0, len(r.Buckets))
	for _, b := range r.Buckets {
		rows = append(rows, []string{b.Category,
			f(b.Lat.Median), f(b.Lat.P95), f(b.Tpt.Median), f(b.Tpt.P95), strconv.Itoa(b.Lat.N)})
	}
	return writeCSV(w, []string{"category", "lat_median", "lat_p95", "tpt_median", "tpt_p95", "n"}, rows)
}

// WriteCSV emits one Fig. 8 sweep panel.
func (r *Fig8Result) WriteCSV(w io.Writer) error {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		scope := "unseen"
		if p.Seen {
			scope = "seen"
		}
		rows = append(rows, []string{f(p.Value), scope, f(p.LatMed), f(p.TptMed), strconv.Itoa(p.N)})
	}
	return writeCSV(w, []string{r.Param, "scope", "lat_median", "tpt_median", "n"}, rows)
}

// WriteCSV emits the Fig. 9 data-efficiency series. The wall-clock training
// time stays in the printed table only: a CSV holds what a seed decides, so
// that two runs of one seed can be compared byte for byte.
func (r *Fig9Result) WriteCSV(w io.Writer) error {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{p.Strategy, strconv.Itoa(p.Queries),
			f(p.SeenLatMed), f(p.UnseenLatMed), f(p.SeenTptMed), f(p.UnseenTptMed)})
	}
	return writeCSV(w, []string{"strategy", "queries", "seen_lat_median", "unseen_lat_median",
		"seen_tpt_median", "unseen_tpt_median"}, rows)
}

// WriteCSV emits the Fig. 10a speed-ups.
func (r *Fig10aResult) WriteCSV(w io.Writer) error {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Structure, scopeName(row.Unseen),
			f(row.LatSpeedup), f(row.TptSpeedup), strconv.Itoa(row.N)})
	}
	return writeCSV(w, []string{"structure", "scope", "lat_speedup", "tpt_speedup", "n"}, rows)
}

// WriteCSV emits the Fig. 10b weighted costs.
func (r *Fig10bResult) WriteCSV(w io.Writer) error {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Structure, scopeName(row.Unseen),
			f(row.ZeroTune), f(row.Dhalion), f(row.DhalionRnds), strconv.Itoa(row.N)})
	}
	return writeCSV(w, []string{"structure", "scope", "zerotune_cost", "dhalion_cost", "dhalion_rounds", "n"}, rows)
}

// WriteCSV emits the Fig. 11 ablation.
func (r *Fig11Result) WriteCSV(w io.Writer) error {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Features,
			f(row.SeenLatMed), f(row.SeenLatP95), f(row.UnseenLatMed), f(row.UnseenLatP95)})
	}
	return writeCSV(w, []string{"features", "seen_lat_median", "seen_lat_p95", "unseen_lat_median", "unseen_lat_p95"}, rows)
}

// WriteCSV emits the read-out ablation.
func (r *ReadoutAblationResult) WriteCSV(w io.Writer) error {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Readout,
			f(row.SeenLatMed), f(row.UnseenLatMed), f(row.SeenTptMed), f(row.UnseenTptMed)})
	}
	return writeCSV(w, []string{"readout", "seen_lat_median", "unseen_lat_median", "seen_tpt_median", "unseen_tpt_median"}, rows)
}

func scopeName(unseen bool) string {
	if unseen {
		return "unseen"
	}
	return "seen"
}
