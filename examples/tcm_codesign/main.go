// tcm_codesign reproduces the Section 4 proof of concept: SQLite on the
// ARM1176JZF-S, with the paper's three DTCM placement strategies (database
// buffer, VM special variables, B-tree top layers), measured with the
// external power meter against the unmodified build.
package main

import (
	"fmt"
	"log"

	"energydb"
)

func main() {
	// 1. The DTCM peak saving: B_DTCM_array vs B_L1D_array (Section 4.3
	// reports ~10% with no performance loss).
	peak, perf := energydb.DTCMPeakSaving(0)
	fmt.Printf("B_DTCM_array peak energy saving: %.1f%% (perf delta %.2f%%)\n\n", peak*100, perf*100)

	// 2. The co-design evaluation over a query mix.
	queried := []string{"lineitem", "orders", "customer", "part", "supplier"}
	run := func(optimize bool, q energydb.Query) (joules, seconds float64) {
		m := energydb.NewARMMachine()
		meter := energydb.NewPowerMeter(m, 7, 0)
		lab := &energydb.Lab{Machine: m}
		eng := lab.NewEngine(energydb.SQLite, energydb.SettingSmall, energydb.Size10MB)
		if optimize {
			cd, err := energydb.OptimizeSQLiteDTCM(eng, queried)
			if err != nil {
				log.Fatal(err)
			}
			_ = cd
		}
		plan, err := energydb.Warm(eng, energydb.Builder(q.Text))
		if err != nil {
			log.Fatal(err)
		}
		var runErr error
		j, s := meter.MeasureSession(func() { _, runErr = eng.Run(plan) })
		if runErr != nil {
			log.Fatal(runErr)
		}
		return j, s
	}

	fmt.Printf("%-5s %15s %18s\n", "query", "energy saving", "perf improvement")
	var sumSave, sumPerf float64
	ids := []int{1, 3, 6, 12, 14, 19}
	for _, id := range ids {
		q, err := energydb.QueryByID(id)
		if err != nil {
			log.Fatal(err)
		}
		e0, t0 := run(false, q)
		e1, t1 := run(true, q)
		save := (1 - e1/e0) * 100
		pf := (1 - t1/t0) * 100
		sumSave += save
		sumPerf += pf
		fmt.Printf("Q%-4d %14.2f%% %17.2f%%\n", id, save, pf)
	}
	n := float64(len(ids))
	fmt.Printf("%-5s %14.2f%% %17.2f%%\n", "avg", sumSave/n, sumPerf/n)
	fmt.Printf("\nAverage saving is %.0f%% of the DTCM peak (the paper reports 60%%:\n", sumSave/n/(peak*100)*100)
	fmt.Println("6% average saving against a 10% peak, with ~1.5% perf improvement).")
}
