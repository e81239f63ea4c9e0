package harness

import (
	"fmt"

	"energydb/internal/cpusim"
	"energydb/internal/db/engine"
	"energydb/internal/db/plan"
	"energydb/internal/tpch"
	"energydb/internal/trace"
)

// RunExtensionArchSweep (X5) explores the customized-CPU design space the
// paper motivates: one TPC-H query is captured as an access trace on the
// stock i7-4790 and replayed onto candidate architectures —
//
//   - L1D geometry sweep (8KB–128KB), showing the capacity/energy trade;
//   - "Arch 1" of Section 4.1: the same geometry with an L1D whose
//     per-access energy is 40% lower (the optimized scratchpad of the
//     paper's [9], which Section 4.3 extrapolates to "a maximum 24%
//     energy saving").
//
// Energies are the machine's ground truth (no solver in the loop): this is
// a design-space study, not a measurement study.
func RunExtensionArchSweep(o Options) (Result, error) {
	o = o.effective()

	// Capture the query stream once on the baseline machine.
	base := cpusim.NewMachine(cpusim.IntelI7_4790())
	e := engine.New(engine.SQLite, base, o.Setting)
	e.Knobs.DisableVectorExec = true // the row plan Figure 7 measures
	setup(e, o.Class)
	base.Hier.SetPrefetchEnabled(true)
	q, err := tpch.SQLByID(1)
	if err != nil {
		return Result{}, err
	}
	op, err := tpch.Warm(e, plan.Builder(q.Text))
	if err != nil {
		return Result{}, err
	}
	var runErr error
	tr := trace.Capture(base, func() { _, runErr = e.Run(op) })
	if runErr != nil {
		return Result{}, runErr
	}

	type config struct {
		name      string
		l1dBytes  int
		l1dEnergy float64 // scale on ΔE_L1D and ΔE_Reg2L1D
	}
	configs := []config{
		{"L1D 8KB", 8 << 10, 1},
		{"L1D 16KB", 16 << 10, 1},
		{"L1D 32KB (stock)", 32 << 10, 1},
		{"L1D 64KB", 64 << 10, 1},
		{"L1D 128KB", 128 << 10, 1},
		{"Arch 1: 32KB, -40% L1D energy", 32 << 10, 0.6},
	}

	replayOn := func(c config) (energy float64, stalls uint64, missRate float64) {
		prof := cpusim.IntelI7_4790()
		prof.Mem.L1D.SizeBytes = c.l1dBytes
		prof.Mem.Prefetch.Enabled = true
		for _, op := range []cpusim.MicroOp{cpusim.OpL1D, cpusim.OpReg2L1D} {
			for i := range prof.Energy.Anchors[op] {
				prof.Energy.Anchors[op][i] *= c.l1dEnergy
			}
		}
		m := cpusim.NewMachine(prof)
		// Warm replay (populate caches), then the measured replay.
		trace.Replay(tr, m.Hier)
		m.Sync()
		e0 := m.ActiveEnergy().Total()
		before := m.Hier.Counters()
		trace.Replay(tr, m.Hier)
		m.Sync()
		d := m.Hier.Counters().Sub(before)
		return m.ActiveEnergy().Total() - e0, d.StallCycles, d.L1DMissRate()
	}

	energies := make([]float64, len(configs))
	rows := make([][]string, len(configs))
	var baseEnergy float64
	for i, c := range configs {
		energy, stalls, miss := replayOn(c)
		energies[i] = energy
		if c.name == "L1D 32KB (stock)" {
			baseEnergy = energy
		}
		rows[i] = []string{
			c.name,
			fmt.Sprintf("%.4f", energy),
			"", // filled below once the stock baseline is known
			fmt.Sprintf("%d", stalls),
			fmt.Sprintf("%.2f", miss*100),
		}
	}
	for i, energy := range energies {
		rows[i][2] = fmt.Sprintf("%+.1f%%", (energy/baseEnergy-1)*100)
	}

	header := []string{"Architecture", "E_active (J)", "vs stock", "stalls", "L1D miss%"}
	text, csv := table(fmt.Sprintf(
		"Extension X5: customized-CPU architecture sweep (trace of TPC-H Q1 on SQLite, %d events replayed)", tr.Len()),
		header, rows)
	return Result{ID: "X5", Title: "Extension X5 (architecture sweep)", Text: text, CSV: csv}, nil
}
