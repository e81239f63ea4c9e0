package harness

import (
	"fmt"

	"energydb/internal/core"
	"energydb/internal/cpusim"
	"energydb/internal/mubench"
)

// RunTable1 reproduces Table 1: BLI, per-level miss rates and IPC of the
// eight MBS micro-benchmarks at P-state 36.
func RunTable1(o Options) (Result, error) {
	o = o.effective()
	l, err := newLab(o, cpusim.PState36)
	if err != nil {
		return Result{}, err
	}
	header := []string{"Micro-benchmark", "BLI%", "L1D miss%", "L2 miss%", "L3 miss%", "IPC"}
	var rows [][]string
	for _, res := range l.Cal.Results {
		c := res.Counters
		dash := func(v float64, have bool) string {
			if !have {
				return "-"
			}
			return fmt.Sprintf("%.2f", v*100)
		}
		rows = append(rows, []string{
			res.Spec.Name,
			fmt.Sprintf("%.1f", res.BLI),
			dash(c.L1DMissRate(), c.L1DAccesses > 0),
			dash(c.L2MissRate(), c.L2Accesses > 0),
			dash(c.L3MissRate(), c.L3Accesses > 0),
			fmt.Sprintf("%.3f", c.IPC()),
		})
	}
	text, csv := table("Table 1: runtime behaviors of micro-benchmarks", header, rows)
	return Result{ID: "T1", Title: "Table 1", Text: text, CSV: csv}, nil
}

// RunTable2 reproduces Table 2: solved ΔE_m at P-states 36, 24 and 12.
func RunTable2(o Options) (Result, error) {
	o = o.effective()
	cals := make(map[cpusim.PState]*core.Calibration)
	for _, p := range []cpusim.PState{cpusim.PState36, cpusim.PState24, cpusim.PState12} {
		l, err := newLab(o, p)
		if err != nil {
			return Result{}, err
		}
		cals[p] = l.Cal
	}
	header := []string{"Micro-operation", "P36 (nJ)", "P24 (nJ)", "P12 (nJ)"}
	row := func(name string, get func(d core.DeltaE) float64) []string {
		return []string{name,
			fmt.Sprintf("%.2f", get(cals[cpusim.PState36].DeltaE)),
			fmt.Sprintf("%.2f", get(cals[cpusim.PState24].DeltaE)),
			fmt.Sprintf("%.2f", get(cals[cpusim.PState12].DeltaE)),
		}
	}
	rows := [][]string{
		row("dE_L1D", func(d core.DeltaE) float64 { return d.L1D }),
		row("dE_L2", func(d core.DeltaE) float64 { return d.L2 }),
		row("dE_L3, dE_pf_L2", func(d core.DeltaE) float64 { return d.L3 }),
		row("dE_mem, dE_pf_L3", func(d core.DeltaE) float64 { return d.Mem }),
		row("dE_Reg2L1D", func(d core.DeltaE) float64 { return d.Reg2L1D }),
		row("dE_stall", func(d core.DeltaE) float64 { return d.Stall }),
		row("dE_add", func(d core.DeltaE) float64 { return d.Add }),
		row("dE_nop", func(d core.DeltaE) float64 { return d.Nop }),
	}
	text, csv := table("Table 2: energy cost of micro-operations at different CPU frequencies and voltages", header, rows)
	return Result{ID: "T2", Title: "Table 2", Text: text, CSV: csv}, nil
}

// RunTable3 reproduces Table 3: measured vs estimated Active energy of the
// verification set and the accuracy metric.
func RunTable3(o Options) (Result, error) {
	o = o.effective()
	l, err := newLab(o, cpusim.PState36)
	if err != nil {
		return Result{}, err
	}
	results := l.Cal.Verify(l.Runner)
	header := []string{"Verification benchmark", "Eactive_est (J)", "Eactive (J)", "acc%"}
	var rows [][]string
	for _, v := range results {
		rows = append(rows, []string{
			v.Name,
			fmt.Sprintf("%.6f", v.EEstimated),
			fmt.Sprintf("%.6f", v.EMeasured),
			fmt.Sprintf("%.2f", v.Accuracy*100),
		})
	}
	rows = append(rows, []string{"average", "", "", fmt.Sprintf("%.2f", core.MeanAccuracy(results)*100)})
	text, csv := table("Table 3: energy cost of verification micro-benchmarks and the accuracy", header, rows)
	return Result{ID: "T3", Title: "Table 3", Text: text, CSV: csv}, nil
}

// RunTable5 reproduces Table 5: the B_mem energy bottleneck (E_mem vs
// E_stall vs E_active) across P-states — the Section 5 motivation that even
// memory-bound workloads have their *energy* bottleneck in the CPU.
func RunTable5(o Options) (Result, error) {
	o = o.effective()
	type rowData struct {
		p            cpusim.PState
		emem, estall float64
		eactive      float64
		seconds      float64
	}
	var data []rowData
	for _, p := range []cpusim.PState{cpusim.PState36, cpusim.PState24, cpusim.PState12} {
		l, err := newLab(o, p)
		if err != nil {
			return Result{}, err
		}
		spec, err := mubench.FindSpec("B_mem")
		if err != nil {
			return Result{}, err
		}
		res := l.Runner.Run(spec)
		d := l.Cal.DeltaE
		data = append(data, rowData{
			p:       p,
			emem:    d.Mem * float64(res.Counters.MemAccesses) * 1e-9,
			estall:  d.Stall * float64(res.Counters.StallCycles) * 1e-9,
			eactive: res.EActive,
			seconds: res.Seconds,
		})
	}
	header := []string{"Quantity", "P36 (3.6GHz)", "P24 (2.4GHz)", "P12 (1.2GHz)"}
	cell := func(v, total float64) string {
		return fmt.Sprintf("%.4fJ (%.1f%%)", v, v/total*100)
	}
	rows := [][]string{
		{"E_mem", cell(data[0].emem, data[0].eactive), cell(data[1].emem, data[1].eactive), cell(data[2].emem, data[2].eactive)},
		{"E_stall", cell(data[0].estall, data[0].eactive), cell(data[1].estall, data[1].eactive), cell(data[2].estall, data[2].eactive)},
		{"E_active", cell(data[0].eactive, data[0].eactive), cell(data[1].eactive, data[1].eactive), cell(data[2].eactive, data[2].eactive)},
		{"elapsed", fmt.Sprintf("%.4fs", data[0].seconds), fmt.Sprintf("%.4fs", data[1].seconds), fmt.Sprintf("%.4fs", data[2].seconds)},
	}
	// The Section 5 headline: P36 -> P24 trades little performance for a
	// lot of energy on memory-bound work.
	perfLoss := data[1].seconds/data[0].seconds - 1
	saving := 1 - data[1].eactive/data[0].eactive
	rows = append(rows, []string{
		"P36->P24",
		fmt.Sprintf("perf loss %.1f%%", perfLoss*100),
		fmt.Sprintf("Eactive saving %.1f%%", saving*100),
		fmt.Sprintf("energy-eff. +%.0f%%", ((1/(1+perfLoss))/(1-saving)-1)*100),
	})
	text, csv := table("Table 5: energy cost bottleneck of B_mem at different CPU frequencies and voltages", header, rows)
	return Result{ID: "T5", Title: "Table 5", Text: text, CSV: csv}, nil
}
