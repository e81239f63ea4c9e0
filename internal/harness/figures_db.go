package harness

import (
	"fmt"

	"energydb/internal/core"
	"energydb/internal/cpusim"
	"energydb/internal/db/engine"
	"energydb/internal/tpch"
)

// RunFigure6 reproduces Figure 6: the Active-energy breakdown of the seven
// basic query operations on the three database systems (baseline data size
// and knobs), each operation's text planned for the row executor.
func RunFigure6(o Options) (Result, error) {
	o = o.effective()
	header := append([]string{"Database", "Operation"}, shareHeader...)
	var rows [][]string
	var bds []core.Breakdown
	for _, kind := range engine.Kinds() {
		r, err := newRig(o, cpusim.PState36, kind, o.Setting, o.Class, true)
		if err != nil {
			return Result{}, err
		}
		for _, op := range tpch.BasicOps() {
			s, err := r.sql(tpch.SQLQuery{Text: op.Text})
			if err != nil {
				return Result{}, fmt.Errorf("%v %s: %w", kind, op.Name, err)
			}
			s.B.Name = fmt.Sprintf("%s/%s", kind, op.Name)
			rows = append(rows, append([]string{kind.String(), op.Name}, shareCells(s.B)...))
			bds = append(bds, s.B)
		}
	}
	text, csv := table("Figure 6: Active energy cost breakdown of the basic query operations", header, rows)
	text += chart("Figure 6 as stacked bars:", bds)
	return Result{ID: "F6", Title: "Figure 6", Text: text, CSV: csv}, nil
}

// RunFigure7 reproduces Figure 7: the breakdown of the TPC-H queries on the
// three systems, plus per-system summary lines (data-movement share and
// L1D+Reg2L1D share, the paper's headline metrics).
func RunFigure7(o Options) (Result, error) {
	o = o.effective()
	header := append([]string{"Database", "Query"}, append(shareHeader, "L1D+St%", "DataMove%", "Bg/Busy%")...)
	var rows [][]string
	row := func(kind engine.Kind, label string, b core.Breakdown) {
		rows = append(rows, append(append([]string{kind.String(), label}, shareCells(b)...),
			fmt.Sprintf("%.1f", b.L1DShare()*100),
			fmt.Sprintf("%.1f", b.DataMovementShare()*100),
			fmt.Sprintf("%.1f", b.BackgroundShare()*100)))
	}
	var avgs []core.Breakdown
	for _, kind := range engine.Kinds() {
		all, err := rowSweep(o, kind, o.Setting, o.Class, cpusim.PState36)
		if err != nil {
			return Result{}, err
		}
		for _, b := range all {
			row(kind, b.Name, b)
		}
		avg := core.AverageBreakdown(kind.String(), all)
		avgs = append(avgs, avg)
		row(kind, "average", avg)
	}
	text, csv := table("Figure 7: Active energy cost breakdown of TPC-H", header, rows)
	text += chart("Figure 7 per-system averages as stacked bars:", avgs)
	return Result{ID: "F7", Title: "Figure 7", Text: text, CSV: csv}, nil
}

// rowSweep profiles the TPC-H sweep on a fresh rig whose planner is held to
// the row executor (DisableVectorExec): the paper measured tuple-at-a-time
// engines.
func rowSweep(o Options, kind engine.Kind, setting engine.Setting, class tpch.SizeClass, p cpusim.PState) ([]core.Breakdown, error) {
	r, err := newRig(o, p, kind, setting, class, true)
	if err != nil {
		return nil, err
	}
	var all []core.Breakdown
	for _, q := range sqlSweep(o, representativeIDs...) {
		s, err := r.sql(q)
		if err != nil {
			return nil, fmt.Errorf("%v Q%d: %w", kind, q.ID, err)
		}
		all = append(all, s.B)
	}
	return all, nil
}

// averageVector returns the sweep's energy-weighted average breakdown, the
// presentation of Figures 8, 9 and 11.
func averageVector(o Options, kind engine.Kind, setting engine.Setting, class tpch.SizeClass, p cpusim.PState) (core.Breakdown, error) {
	all, err := rowSweep(o, kind, setting, class, p)
	return core.AverageBreakdown(kind.String(), all), err
}

// RunFigure8 reproduces Figure 8: per-system average breakdown across the
// 100MB / 500MB / 1GB size classes.
func RunFigure8(o Options) (Result, error) {
	o = o.effective()
	classes := []tpch.SizeClass{tpch.Size100MB, tpch.Size500MB, tpch.Size1GB}
	if o.Quick {
		classes = []tpch.SizeClass{tpch.Size10MB, tpch.Size100MB}
	}
	header := append([]string{"Database-Size"}, shareHeader...)
	var rows [][]string
	for _, kind := range engine.Kinds() {
		for _, class := range classes {
			b, err := averageVector(o, kind, o.Setting, class, cpusim.PState36)
			if err != nil {
				return Result{}, err
			}
			rows = append(rows, append([]string{fmt.Sprintf("%s-%s", kind, class)}, shareCells(b)...))
		}
	}
	text, csv := table("Figure 8: impact of data size", header, rows)
	return Result{ID: "F8", Title: "Figure 8", Text: text, CSV: csv}, nil
}

// RunFigure9 reproduces Figure 9: per-system average breakdown across the
// small / baseline / large knob settings of Table 4.
func RunFigure9(o Options) (Result, error) {
	o = o.effective()
	header := append([]string{"Database-Setting"}, shareHeader...)
	var rows [][]string
	for _, kind := range engine.Kinds() {
		for _, setting := range engine.Settings() {
			b, err := averageVector(o, kind, setting, o.Class, cpusim.PState36)
			if err != nil {
				return Result{}, err
			}
			rows = append(rows, append([]string{fmt.Sprintf("%s-%s", kind, setting)}, shareCells(b)...))
		}
	}
	text, csv := table("Figure 9: impact of database setting", header, rows)
	return Result{ID: "F9", Title: "Figure 9", Text: text, CSV: csv}, nil
}

// RunFigure11 reproduces Figure 11: per-system average breakdown at
// P-states 36, 24 and 12, each with its own calibration (as in the paper,
// which first re-evaluates ΔE_m per P-state).
func RunFigure11(o Options) (Result, error) {
	o = o.effective()
	header := append([]string{"Database-Pstate"}, append(shareHeader, "Eactive (J)")...)
	var rows [][]string
	for _, kind := range engine.Kinds() {
		for _, p := range []cpusim.PState{cpusim.PState36, cpusim.PState24, cpusim.PState12} {
			b, err := averageVector(o, kind, o.Setting, o.Class, p)
			if err != nil {
				return Result{}, err
			}
			rows = append(rows, append(append([]string{fmt.Sprintf("%s-Pstate%d", kind, int(p))}, shareCells(b)...),
				fmt.Sprintf("%.4f", b.EActive)))
		}
	}
	text, csv := table("Figure 11: impact of CPU frequencies and voltages", header, rows)
	return Result{ID: "F11", Title: "Figure 11", Text: text, CSV: csv}, nil
}
