// Command bench is the repository's benchmark: four seeded workloads against
// an in-process energyd, reporting host cost and simulated cost side by side.
// BENCHMARK.json at the repository root names the command, the workloads and
// every metric; README.md in this directory is the glossary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all four, one after the other)")
		seed         = flag.Int64("seed", 1, "seed of the operation lists: every key draw and cycle order")
		seconds      = flag.Int("seconds", 10, "length of the timed phase")
		traced       = flag.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from the traced pass")
		traceOut     = flag.String("trace-out", "", "traced pass: write the recorded spans to this file as JSON")
		out          = flag.String("out", "", "append each run's result to this file, one JSON object per line (input of -compare)")
		updateGolden = flag.Bool("update-golden", false, "rewrite "+goldenDir+"/*.sum from what the server returns instead of checking against them")
		compareMode  = flag.Bool("compare", false, "compare two -out files: bench -compare a.jsonl b.jsonl")
	)
	flag.Parse()

	if *compareMode {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	golden, err := loadGolden()
	if err != nil {
		fatal(err)
	}
	if *updateGolden {
		if err := regenerateGolden(golden); err != nil {
			fatal(err)
		}
		return
	}

	names := workloadNames
	if *workloadName != "" {
		names = []string{*workloadName}
	}
	ok := true
	for _, name := range names {
		w, err := newWorkload(name, *seed, golden)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("workload %s: seed %d, %s, closed loop of %d clients over %d workers, %d s\n",
			w.name, *seed, w.class, numClients, numClients, *seconds)
		for i, l := range w.lists {
			fmt.Printf("  client %d: %d operations per pass, cycle of %d, list sha256 %s\n", i, len(l), w.cycle[i], listHash(l))
		}
		var r *result
		defs := endToEnd
		if *traced == 0 {
			r, err = runEndToEnd(w, *seconds)
		} else {
			defs = perLayer
			r, err = runTraced(w, *seconds, *traceOut)
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		line, err := r.report(os.Stdout, defs)
		if err != nil {
			fatal(err)
		}
		if *out != "" {
			if err := appendLine(*out, r, *seed, *traced, line); err != nil {
				fatal(err)
			}
		}
		ok = ok && r.failed == 0
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// metricDef is one named metric; BENCHMARK.json lists the same names, units,
// directions and bounds, and a test holds the two together.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// jsonMetric is one metric in the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonResult is the last line of a run's standard output.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// printMetrics prints the named metrics with their units.
func (r *result) printMetrics(w io.Writer, defs []metricDef) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-32s %16.9g %-6s (%s is better)\n", d.name, r.metrics[d.name], d.unit, d.better)
	}
}

// report prints the notes, the wall-clock metrics if the run measured them,
// and every metric of defs by name with its unit; then the result line, which
// carries exactly the metrics of defs.
func (r *result) report(w io.Writer, defs []metricDef) ([]byte, error) {
	for _, n := range r.notes {
		fmt.Fprintln(w, " ", n)
	}
	jr := jsonResult{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]jsonMetric)}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", r.workload, d.name)
		}
		jr.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	if _, ok := r.metrics[wallClock[0].name]; ok {
		r.printMetrics(w, wallClock)
	}
	r.printMetrics(w, defs)
	fmt.Fprintf(w, "  operations attempted %d, failed or wrong %d\n", r.attempted, r.failed)
	for _, e := range r.errs {
		fmt.Fprintln(w, "  FAILED:", e)
	}
	line, err := json.Marshal(jr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, string(line))
	return line, nil
}

// outLine is one line of an -out file: the result line, and beside it the
// wall-clock metrics the result line does not carry.
type outLine struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     int                `json:"trace"`
	Result    json.RawMessage    `json:"result"`
	WallClock map[string]float64 `json:"wall_clock,omitempty"`
}

func appendLine(path string, r *result, seed int64, traced int, line []byte) error {
	out := outLine{Workload: r.workload, Seed: seed, Trace: traced, Result: line}
	if traced == 0 {
		out.WallClock = make(map[string]float64)
		for _, d := range wallClock {
			out.WallClock[d.name] = r.metrics[d.name]
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// regenerateGolden boots each size class once, runs every statement whose
// answer the data fixes, and rewrites the sum files with what came back.
func regenerateGolden(golden goldenSums) error {
	for _, name := range []string{"analytic-resident", "analytic-spill", "txn-mixed"} {
		w, err := newWorkload(name, 1, golden)
		if err != nil {
			return err
		}
		sys, err := boot(w, newPhaseStats())
		if err != nil {
			return err
		}
		seen := make(map[string]bool)
		for _, l := range w.lists {
			for _, o := range l {
				if o.txn || seen[o.typ] || o.stmts[0].verify != verifyHash {
					continue
				}
				seen[o.typ] = true
				s := o.stmts[0]
				res, err := sys.sessions[1].Query(s.text)
				if err != nil {
					sys.shutdown()
					return err
				}
				golden.set(w.class, o.typ, hashResult(res.Cols, res.Rows, s.pick, s.ordered))
			}
		}
		sys.shutdown()
	}
	for class, sums := range golden {
		if err := writeGolden(class, sums); err != nil {
			return err
		}
		fmt.Printf("wrote %s/%s.sum (%s)\n", goldenDir, class, strings.Join(sortedKeys(sums), " "))
	}
	return nil
}
