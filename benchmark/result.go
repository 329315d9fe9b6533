package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

const resultSchema = "shadowblock-benchmark/v1"

// resultFile is what the all-workloads mode writes with `-out` and `-compare` / `-table` read.
type resultFile struct {
	Schema    string            `json:"schema"`
	Labels    map[string]string `json:"labels"`
	Claim     *string           `json:"claim"` // this benchmark claims no gain: always null
	Workloads []workloadResult  `json:"workloads"`
}

func readResult(path string) (resultFile, error) {
	var rf resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(b, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Schema != resultSchema {
		return rf, fmt.Errorf("%s: schema %q, want %q", path, rf.Schema, resultSchema)
	}
	return rf, nil
}

func (rf resultFile) write(path string) error {
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func (rf resultFile) workload(name string) (workloadResult, bool) {
	for _, w := range rf.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadResult{}, false
}

// Verdicts of one compared (workload, metric) pair.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict judges b against a for one end-to-end metric. worse is how much
// b's median is worse than a's as a share of a's. A pair whose own spread
// between repetitions is wider than the bound cannot show a change of the
// bound's size, so it is unresolved — unless the repetitions of the two sides
// do not overlap at all, which settles it either way.
func verdict(m metric, a, b summary) (worse float64, v string) {
	if a.Median != 0 {
		worse = (b.Median - a.Median) / a.Median
	}
	allBetter, allWorse := b.Max < a.Min, b.Min > a.Max
	if m.Better == "higher" {
		worse = -worse
		allBetter, allWorse = allWorse, allBetter
	}
	switch {
	case len(a.Values) == 0 || len(b.Values) == 0:
		return worse, verdictUnresolved
	case allBetter:
		return worse, verdictOK
	case worse > m.Bound && allWorse:
		return worse, verdictRegressed
	case max(a.spread(), b.spread()) > m.Bound:
		return worse, verdictUnresolved
	case worse > m.Bound:
		return worse, verdictRegressed
	}
	return worse, verdictOK
}

// compareResults prints one row per (workload, end-to-end metric) with a
// verdict, then the ungated timed metrics without one, and reports whether b
// is worse than a: a row regressed, a workload of a is missing from b, or b
// has failed operations.
func compareResults(out io.Writer, a, b resultFile) (bad bool) {
	const row = "%-15s %-21s %14.4f %6.2f%% %14.4f %6.2f%% %+7.2f%% %6s  %s\n"
	fmt.Fprintf(out, "%-15s %-21s %14s %7s %14s %7s %8s %6s  %s\n",
		"workload", "metric", "a.median", "a.iqr", "b.median", "b.iqr", "worse", "bound", "verdict")
	if a.Labels["seed"] != b.Labels["seed"] {
		fmt.Fprintf(out, "seeds differ (%s, %s): the inputs are not the same, so counts need not be equal\n", a.Labels["seed"], b.Labels["seed"])
	}
	for _, wa := range a.Workloads {
		wb, ok := b.workload(wa.Name)
		if !ok {
			fmt.Fprintf(out, "%-15s missing from the second file\n", wa.Name)
			bad = true
			continue
		}
		for _, m := range endToEnd {
			sa, sb := wa.Timed[m.Name], wb.Timed[m.Name]
			worse, v := verdict(m, sa, sb)
			bad = bad || v == verdictRegressed
			fmt.Fprintf(out, row, wa.Name, m.Name, sa.Median, 100*sa.spread(), sb.Median, 100*sb.spread(),
				100*worse, fmt.Sprintf("%.0f%%", 100*m.Bound), v)
		}
		for _, m := range perLayer {
			sa, sb := wa.Timed[m.Name], wb.Timed[m.Name]
			if sa.Median == 0 && sb.Median == 0 {
				continue // traced-only, or not defined on this workload
			}
			worse, _ := verdict(m, sa, sb)
			fmt.Fprintf(out, row, wa.Name, m.Name, sa.Median, 100*sa.spread(), sb.Median, 100*sb.spread(), 100*worse, "-", "not gated")
		}
		if wa.Failed+wb.Failed > 0 {
			fmt.Fprintf(out, "%-15s failed operations: a %d of %d, b %d of %d\n", wa.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
			bad = bad || wb.Failed > 0
		}
	}
	return bad
}

// printTable renders a result file as the README's baseline tables.
func printTable(out io.Writer, rf resultFile) {
	keys := make([]string, 0, len(rf.Labels))
	for k := range rf.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var labels []string
	for _, k := range keys {
		labels = append(labels, k+"="+rf.Labels[k])
	}
	fmt.Fprintf(out, "Labels: %s\n\n", strings.Join(labels, ", "))

	fmt.Fprint(out, "| workload |")
	for _, m := range endToEnd {
		fmt.Fprintf(out, " %s (%s) |", m.Name, m.Unit)
	}
	fmt.Fprint(out, " reps | failed / attempted | top layer |\n|---|")
	fmt.Fprint(out, strings.Repeat("---|", len(endToEnd)+3), "\n")
	for _, w := range rf.Workloads {
		fmt.Fprintf(out, "| `%s` |", w.Name)
		for _, m := range endToEnd {
			s := w.Timed[m.Name]
			fmt.Fprintf(out, " %.4g ±%.1f%% |", s.Median, 100*s.spread())
		}
		fmt.Fprintf(out, " %d | %d / %d | %s |\n", w.Reps, w.Failed, w.Attempted, w.TopLayer)
	}

	fmt.Fprint(out, "\n| workload | layer shares of measured time (traced repetition) |\n|---|---|\n")
	for _, w := range rf.Workloads {
		var parts []string
		for _, n := range byShare(w.Shares) {
			parts = append(parts, fmt.Sprintf("%s %.1f%%", n, 100*w.Shares[n]))
		}
		fmt.Fprintf(out, "| `%s` | %s |\n", w.Name, strings.Join(parts, ", "))
	}
}

// printWorkload prints every metric of one workload by name and unit.
func printWorkload(out io.Writer, w workloadResult) {
	fmt.Fprintf(out, "%s: %d timed + %d traced repetitions, %d of %d operations failed\n",
		w.Name, w.Reps, w.TracedRep, w.Failed, w.Attempted)
	for _, f := range w.Failures {
		fmt.Fprintln(out, "  FAIL:", f)
	}
	for _, m := range endToEnd {
		s := w.Timed[m.Name]
		fmt.Fprintf(out, "  %-34s %14.4f %-7s (median of %d; min %.4f, iqr %.2f%% of the median; bound %.0f%%)\n",
			m.Name, s.Median, m.Unit, len(s.Values), s.Min, 100*s.spread(), 100*m.Bound)
	}
	for _, m := range perLayer {
		if s, ok := w.Timed[m.Name]; ok {
			fmt.Fprintf(out, "  %-34s %14.4f %-7s (median of %d; min %.4f, iqr %.2f%% of the median; not gated)\n",
				m.Name, s.Median, m.Unit, len(s.Values), s.Min, 100*s.spread())
		} else {
			fmt.Fprintf(out, "  %-34s %14.4f %s\n", m.Name, w.PerLayer[m.Name], m.Unit)
		}
	}
	if w.TopLayer != "" {
		fmt.Fprintf(out, "  top layer by share of measured time: %s (%.1f%%)\n", w.TopLayer, 100*w.Shares[w.TopLayer])
	}
}
