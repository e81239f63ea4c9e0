package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// runsByWorkload is the untraced runs of one -out file: workload → metric →
// one value per run, in file order.
type runsByWorkload map[string]map[string][]float64

func readRuns(path string) (runsByWorkload, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(runsByWorkload)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		var line outLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if line.Trace != 0 {
			continue
		}
		var res jsonResult
		if err := json.Unmarshal(line.Result, &res); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if out[line.Workload] == nil {
			out[line.Workload] = make(map[string][]float64)
		}
		for name, m := range res.Metrics {
			out[line.Workload][name] = append(out[line.Workload][name], m.Value)
		}
		for name, v := range line.WallClock {
			out[line.Workload][name] = append(out[line.Workload][name], v)
		}
	}
	return out, sc.Err()
}

// verdict judges side b against side a for one metric, by the rule of the
// choosing-metrics guide, section 8, and the metric's bound:
//
//   - improved: b is better in at least nine tenths of the pairs (run i of a
//     against run i of b, ties counting for neither) and the medians differ
//     by more than the distance between a's quartiles;
//   - regressed: b's median is worse than a's by more than the bound;
//   - unresolved: neither, but a's own quartiles lie further apart than the
//     bound allows, so "no worse" cannot be told from noise — unless every
//     run of b is better than every run of a;
//   - unchanged: otherwise.
func verdict(d metricDef, a, b []float64) string {
	better := func(x, y float64) bool { // x better than y
		if d.better == "higher" {
			return x > y
		}
		return x < y
	}
	ma, mb := median(a), median(b)
	q1, q3 := quartiles(a)
	spread := q3 - q1

	pairs, wins := min(len(a), len(b)), 0
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	diff := mb - ma
	if diff < 0 {
		diff = -diff
	}
	if pairs > 0 && float64(wins) >= 0.9*float64(pairs) && diff > spread {
		return "improved"
	}
	if better(ma, mb) && diff > d.bound*ma {
		return "regressed"
	}
	if spread > d.bound*ma {
		sa, sb := sorted(a), sorted(b)
		worstB, bestA := sb[len(sb)-1], sa[0]
		if d.better == "higher" {
			worstB, bestA = sb[0], sa[len(sa)-1]
		}
		if !better(worstB, bestA) {
			return "unresolved"
		}
	}
	return "unchanged"
}

// compareFiles prints one row per workload and metric: the end-to-end
// metrics, then the wall-clock ones.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readRuns(pathA)
	if err != nil {
		return err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\tA median [q1, q3] n\tB median [q1, q3] n\tB/A (base A = %s)\tbound\tverdict\n", pathA)
	for _, name := range workloadNames {
		if a[name] == nil || b[name] == nil {
			continue
		}
		for i, d := range append(append([]metricDef(nil), endToEnd...), wallClock...) {
			va, vb := a[name][d.name], b[name][d.name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			bound := fmt.Sprintf("%g%%", d.bound*100)
			if i >= len(endToEnd) {
				bound += " (not gated)"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%.4f\t%s\t%s\n", name, d.name, d.unit,
				summary(va), summary(vb), median(vb)/median(va), bound, verdict(d, va, vb))
		}
	}
	return tw.Flush()
}

func summary(v []float64) string {
	q1, q3 := quartiles(v)
	return fmt.Sprintf("%.6g [%.6g, %.6g] n=%d", median(v), q1, q3, len(v))
}
