// Command energyprof regenerates the paper's tables and figures.
//
// Usage:
//
//	energyprof -exp F7                 # one experiment
//	energyprof -all                    # everything, in paper order
//	energyprof -exp F7 -quick          # reduced sweep for a fast look
//	energyprof -exp F7 -csv out.csv    # also write the CSV
//	energyprof -list                   # show the registry
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"energydb/internal/db/engine"
	"energydb/internal/harness"
	"energydb/internal/report"
	"energydb/internal/tpch"
)

func main() {
	var (
		expID   = flag.String("exp", "", "experiment id (T1..T5, F5..F13, X1..X9)")
		all     = flag.Bool("all", false, "run every experiment")
		list    = flag.Bool("list", false, "list experiments")
		quick   = flag.Bool("quick", false, "reduced query sweep and dataset (fast)")
		csvPath = flag.String("csv", "", "also write results as CSV to this file")
		htmlOut = flag.String("html", "", "also write an HTML report with SVG charts to this file")
		seed    = flag.Int64("seed", 42, "measurement noise seed")
		scale   = flag.Float64("scale", 0.2, "micro-benchmark pass scale")
		class   = flag.String("class", "100MB", "dataset class for single-config experiments (10MB, 100MB, 500MB, 1GB)")
		setting = flag.String("setting", "baseline", "knob setting for single-config experiments (small, baseline, large)")
	)
	flag.Parse()

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	opts := harness.DefaultOptions()
	opts.Quick = *quick
	opts.Seed = *seed
	opts.Scale = *scale
	cls, err := tpch.ParseClass(*class)
	if err != nil {
		fatal(err)
	}
	opts.Class = cls
	set, err := engine.ParseSetting(*setting)
	if err != nil {
		fatal(err)
	}
	opts.Setting = set

	var exps []harness.Experiment
	switch {
	case *all:
		exps = harness.Experiments()
	case *expID != "":
		e, err := harness.ByID(*expID)
		if err != nil {
			fatal(err)
		}
		exps = []harness.Experiment{e}
	default:
		fmt.Fprintln(os.Stderr, "energyprof: pass -exp <id>, -all or -list")
		flag.Usage()
		os.Exit(2)
	}

	var csv string
	var results []harness.Result
	for _, e := range exps {
		start := time.Now()
		res, err := e.Run(opts)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		fmt.Println(res.Text)
		fmt.Printf("(%s completed in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
		csv += "# " + res.Title + "\n" + res.CSV + "\n"
		results = append(results, res)
	}
	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(csv), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("CSV written to %s\n", *csvPath)
	}
	if *htmlOut != "" {
		doc := report.HTML("energydb — paper reproduction results", results)
		if err := os.WriteFile(*htmlOut, []byte(doc), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("HTML report written to %s\n", *htmlOut)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "energyprof:", err)
	os.Exit(1)
}
