package harness

import (
	"fmt"

	"energydb/internal/core"
	"energydb/internal/cpu2006"
	"energydb/internal/cpusim"
	"energydb/internal/db/engine"
	"energydb/internal/db/plan"
	"energydb/internal/rapl"
	"energydb/internal/tcm"
	"energydb/internal/tpch"
)

// govSampleSec is the governor sampling period. The paper samples the
// P-state every 100ms over multi-second queries; simulated queries are
// ~100x shorter, so the period scales to 1ms to keep a comparable number of
// samples per query.
const govSampleSec = 1e-3

// interRunGapSec is the client round-trip / setup idle between repeated
// query executions in a benchmarking session. Short queries spend a larger
// share of their session in this gap, so the governor sags more often for
// them — the mechanism behind the Figure 5 spread.
const interRunGapSec = 0.8e-3

// figure5Reps is how many warm executions one sampled session contains.
const figure5Reps = 4

// RunFigure5 reproduces Figure 5: with EIST on, run each TPC-H query as a
// warm benchmarking session (repeated executions with client gaps between
// them, as the paper's 100-run methodology does), sample the P-state
// periodically, and histogram the queries by their percentage of samples
// spent at P-state 36.
func RunFigure5(o Options) (Result, error) {
	o = o.effective()
	buckets := []string{"<50", "50-60", "60-70", "70-80", "80-90", "90-100"}
	counts := make(map[engine.Kind][]int)

	for _, kind := range engine.Kinds() {
		counts[kind] = make([]int, len(buckets))
		m := cpusim.NewMachine(cpusim.IntelI7_4790())
		e := engine.New(kind, m, o.Setting)
		e.Knobs.DisableVectorExec = true // the paper's engines run tuple-at-a-time
		setup(e, o.Class)
		m.SetEIST(true)
		for _, q := range sqlSweep(o, representativeIDs...) {
			build := plan.Builder(q.Text)
			op, err := build(e)
			if err != nil {
				return Result{}, err
			}
			if _, err := e.Run(op); err != nil { // warm caches
				return Result{}, err
			}
			p36, total, err := runWithGovernor(m, func() error {
				for rep := 0; rep < figure5Reps; rep++ {
					op, err := build(e)
					if err != nil {
						return err
					}
					if _, err := e.Run(op); err != nil {
						return err
					}
					m.AddIdle(interRunGapSec)
					m.GovernorTick()
				}
				return nil
			})
			if err != nil {
				return Result{}, fmt.Errorf("%v Q%d: %w", kind, q.ID, err)
			}
			pct := 100.0
			if total > 0 {
				pct = float64(p36) / float64(total) * 100
			}
			counts[kind][bucketOf(pct)]++
		}
		m.SetEIST(false)
	}

	header := []string{"Percent of P-state 36", "PostgreSQL", "SQLite", "MySQL"}
	var rows [][]string
	for i, b := range buckets {
		rows = append(rows, []string{
			b,
			fmt.Sprintf("%d", counts[engine.PostgreSQL][i]),
			fmt.Sprintf("%d", counts[engine.SQLite][i]),
			fmt.Sprintf("%d", counts[engine.MySQL][i]),
		})
	}
	text, csv := table("Figure 5: query count distribution over the percent of P-state 36 (EIST on)", header, rows)
	return Result{ID: "F5", Title: "Figure 5", Text: text, CSV: csv}, nil
}

// bucketOf indexes Figure 5's buckets: one below 50%, then 10-point bands,
// the last of which includes 100%.
func bucketOf(pct float64) int {
	return min(max(int(pct/10)-4, 0), 5)
}

// runWithGovernor drives fn with EIST active and reconstructs the paper's
// periodic P-state sampling from the run's busy/idle mix: the governor
// holds the top state while window utilization clears its threshold, so the
// share of top-state samples is the share of sampling windows above it.
// Window-to-window jitter is deterministic, standing in for the bursty
// arrival of I/O waits at page boundaries.
func runWithGovernor(m *cpusim.Machine, fn func() error) (top, total int, err error) {
	startBusy, startIdle := m.BusySeconds(), m.IdleSeconds()
	m.GovernorTick()
	if err := fn(); err != nil {
		return 0, 0, err
	}
	m.GovernorTick()
	busy := m.BusySeconds() - startBusy
	idle := m.IdleSeconds() - startIdle
	elapsed := busy + idle
	util := 1.0
	if elapsed > 0 {
		util = busy / elapsed
	}
	total = int(elapsed / govSampleSec)
	if total < 8 {
		total = 8
	}
	for i := 0; i < total; i++ {
		phase := float64(i%7)/7.0 - 0.5 // deterministic window jitter
		if util+phase*0.12 >= 0.90 {
			top++
		}
	}
	return top, total, nil
}

// RunFigure10 reproduces Figure 10: the Active-energy breakdown of the nine
// CPU2006-like kernels, which is dissimilar from query workloads (and from
// each other).
func RunFigure10(o Options) (Result, error) {
	o = o.effective()
	l, err := newLab(o, cpusim.PState36)
	if err != nil {
		return Result{}, err
	}
	prof := l.Profiler()
	header := append([]string{"Workload"}, append(shareHeader, "L1D+St%")...)
	var rows [][]string
	var bds []core.Breakdown
	for _, w := range cpu2006.Workloads() {
		// Warm pass: CPU2006 workloads are long-running, so steady-state
		// cache contents (not cold-start streaming) shape the profile.
		warm := o.workScale() / 4
		if warm > 0.05 {
			warm = 0.05
		}
		w.Run(l.M, warm)
		b := prof.Profile(w.Name, func() { w.Run(l.M, o.workScale()) })
		rows = append(rows, append(append([]string{w.Name}, shareCells(b)...),
			fmt.Sprintf("%.1f", b.L1DShare()*100)))
		bds = append(bds, b)
	}
	text, csv := table("Figure 10: energy cost breakdown of CPU2006", header, rows)
	text += chart("Figure 10 as stacked bars:", bds)
	return Result{ID: "F10", Title: "Figure 10", Text: text, CSV: csv}, nil
}

// armRun measures one warm run of a TPC-H text on a fresh ARM1176JZF-S
// running SQLite (10MB data, small setting, row executor) with the external
// power meter.
// dtcm names the tables whose hot structures the co-design pins into DTCM (nil
// is the unmodified build); itcm > 0 also serves the instruction stream from
// ITCM, trimming instruction-class energy by that fraction.
func armRun(o Options, q tpch.SQLQuery, dtcm []string, itcm float64) (joules, seconds float64, err error) {
	m := tcm.NewMachine()
	if itcm > 0 {
		m.EnableITCM(itcm)
	}
	meter := rapl.NewPowerMeter(m, o.Seed, 0)
	e := engine.New(engine.SQLite, m, engine.SettingSmall)
	e.Knobs.DisableVectorExec = true
	setup(e, tpch.Size10MB)
	if dtcm != nil {
		if _, err := tcm.OptimizeSQLite(e, dtcm); err != nil {
			return 0, 0, err
		}
	}
	op, err := tpch.Warm(e, plan.Builder(q.Text))
	if err != nil {
		return 0, 0, err
	}
	var runErr error
	joules, seconds = meter.MeasureSession(func() { _, runErr = e.Run(op) })
	return joules, seconds, runErr
}

// RunFigure13 reproduces Figure 13: per-query energy saving and performance
// improvement of the DTCM-optimized SQLite against the unmodified build on
// the ARM1176JZF-S (10MB data, small setting), measured with the external
// power meter.
func RunFigure13(o Options) (Result, error) {
	o = o.effective()

	dtcmTables := []string{"lineitem", "orders", "customer", "part", "supplier"}
	header := []string{"Query", "Energy saving%", "Perf improvement%"}
	var rows [][]string
	var sumSave, sumPerf float64
	qs := sqlSweep(o, representativeIDs...)
	for _, q := range qs {
		e0, t0, err := armRun(o, q, nil, 0)
		if err != nil {
			return Result{}, fmt.Errorf("Q%d base: %w", q.ID, err)
		}
		e1, t1, err := armRun(o, q, dtcmTables, 0)
		if err != nil {
			return Result{}, fmt.Errorf("Q%d dtcm: %w", q.ID, err)
		}
		save := (1 - e1/e0) * 100
		perf := (1 - t1/t0) * 100
		sumSave += save
		sumPerf += perf
		rows = append(rows, []string{fmt.Sprintf("Q%d", q.ID),
			fmt.Sprintf("%.2f", save), fmt.Sprintf("%.2f", perf)})
	}
	avgSave := sumSave / float64(len(qs))
	avgPerf := sumPerf / float64(len(qs))
	rows = append(rows, []string{"average", fmt.Sprintf("%.2f", avgSave), fmt.Sprintf("%.2f", avgPerf)})

	peak, _ := tcm.PeakSaving(0)
	rows = append(rows, []string{"DTCM peak saving", fmt.Sprintf("%.2f", peak*100), ""})
	rows = append(rows, []string{"share of peak", fmt.Sprintf("%.0f%%", avgSave/(peak*100)*100), ""})

	text, csv := table("Figure 13: energy saving and performance improvement for SQLite using DTCM on ARM1176JZF-S", header, rows)
	return Result{ID: "F13", Title: "Figure 13", Text: text, CSV: csv}, nil
}
