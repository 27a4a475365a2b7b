package experiments

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// result is what every RunXxx returns: the rows the paper reports, printable
// and dumpable as CSV.
type result interface {
	fmt.Stringer
	WriteCSV(io.Writer) error
}

// artifacts is the one place an experiment id is spelled: Run dispatches on
// it and walks it in order for "all", IDs reads the CLI's usage text and the
// unknown-id error off it.
var artifacts = []struct {
	id    string
	group string   // an id that also selects this row: "fig10" runs fig10a and fig10b
	csv   []string // CSV base name of each result, in order ("" = printed only); nil = the id
	run   func(*Lab) ([]result, error)
}{
	{id: "fig3", run: each(func(*Lab) (*Fig3Result, error) { return RunFig3(32) })},
	{id: "tab4-seen", run: each((*Lab).RunTable4Seen)},
	{id: "tab4-unseen", run: each((*Lab).RunTable4Unseen)},
	{id: "tab4-bench", run: each((*Lab).RunTable4Benchmarks)},
	{id: "fig5", run: each((*Lab).RunFig5ModelComparison)},
	{id: "fig6", run: each((*Lab).RunFig6FewShot)},
	{id: "fig7", run: (*Lab).runFig7, // 7c's two per-hardware sub-panels have no CSV of their own
		csv: []string{"fig7a", "fig7b", "fig7c", "", "", "fig7d-zeroshot", "fig7d-fewshot"}},
	{id: "fig8", csv: []string{"fig8a-width", "fig8b-rate", "fig8c-duration", "fig8d-length", "fig8e-workers"},
		run: each((*Lab).RunFig8TupleWidth, (*Lab).RunFig8EventRate, (*Lab).RunFig8WindowDuration,
			(*Lab).RunFig8WindowLength, (*Lab).RunFig8Workers)},
	{id: "fig9", run: each(func(l *Lab) (*Fig9Result, error) { return l.RunFig9DataEfficiency(nil) })},
	{id: "fig10a", group: "fig10", run: each((*Lab).RunFig10aSpeedup)},
	{id: "fig10b", group: "fig10", run: each((*Lab).RunFig10bDhalion)},
	{id: "fig11", run: each((*Lab).RunFig11Ablation)},
	{id: "readout-ablation", run: each((*Lab).RunReadoutAblation)},
}

// each adapts RunXxx functions to a table row's run: their results, in order.
func each[T result](runs ...func(*Lab) (T, error)) func(*Lab) ([]result, error) {
	return func(l *Lab) ([]result, error) {
		var out []result
		for _, run := range runs {
			r, err := run(l)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		return out, nil
	}
}

func (l *Lab) runFig7() ([]result, error) {
	a, err := l.RunFig7a()
	if err != nil {
		return nil, err
	}
	b, err := l.RunFig7b()
	if err != nil {
		return nil, err
	}
	c, panels, err := l.RunFig7c()
	if err != nil {
		return nil, err
	}
	zero, few, err := l.RunFig7d()
	if err != nil {
		return nil, err
	}
	return []result{a, b, c, panels[0], panels[1], zero, few}, nil
}

// IDs lists what Run accepts, in table order: every artifact, a group ahead
// of its first member, and "all".
func IDs() []string {
	var ids []string
	for i, a := range artifacts {
		if a.group != "" && (i == 0 || artifacts[i-1].group != a.group) {
			ids = append(ids, a.group)
		}
		ids = append(ids, a.id)
	}
	return append(ids, "all")
}

// Run regenerates what id names — one artifact, a group or "all" — in table
// order. Each artifact is announced on w and its results printed; with csvDir
// set every result that has a series is also written there as <name>.csv.
func Run(w io.Writer, l *Lab, id, csvDir string) error {
	if !slices.Contains(IDs(), id) {
		return fmt.Errorf("experiments: unknown id %q (want one of %s)", id, strings.Join(IDs(), ", "))
	}
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
	}
	for _, a := range artifacts {
		if id != "all" && id != a.id && id != a.group {
			continue
		}
		fmt.Fprintf(w, "== %s ==\n", a.id)
		results, err := a.run(l)
		if err != nil {
			return fmt.Errorf("%s: %w", a.id, err)
		}
		names := a.csv
		if names == nil {
			names = []string{a.id}
		}
		for i, r := range results {
			fmt.Fprintln(w, r)
			if csvDir == "" || names[i] == "" {
				continue
			}
			var series bytes.Buffer
			if err := r.WriteCSV(&series); err != nil {
				return fmt.Errorf("%s: %w", names[i], err)
			}
			if err := os.WriteFile(filepath.Join(csvDir, names[i]+".csv"), series.Bytes(), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}
