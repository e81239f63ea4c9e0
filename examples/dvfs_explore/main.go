// dvfs_explore reproduces the Section 5 analysis: for memory-bound work the
// energy bottleneck is the CPU's stall cycles, not DRAM — so radically
// lowering the P-state trades little performance for a lot of energy, while
// the same move on CPU-bound work is a bad deal. It sweeps P-states over
// the B_mem-style pointer chase and over PostgreSQL's table and index
// scans, printing the energy/performance trade at each point.
package main

import (
	"fmt"
	"log"

	"energydb"
)

func main() {
	fmt.Println("Memory-bound micro-workload (B_mem pointer chase):")
	sweepWorkload(func(lab *energydb.Lab) (func(), error) {
		return func() {
			for _, w := range energydb.CPU2006Workloads() {
				if w.Name == "Mcf" { // the DRAM-bound pointer chase
					w.Run(lab.Machine, 0.3)
				}
			}
		}, nil
	})

	fmt.Println("\nPostgreSQL index scan (memory-bound query path):")
	sweepQueryOp("index scan")

	fmt.Println("\nPostgreSQL table scan (CPU-bound query path):")
	sweepQueryOp("table scan")

	fmt.Println(`
Reading: for memory-bound work, dropping P36 -> P24 costs a few percent of
performance but saves a large share of Active energy (the paper: -7% perf,
-46% energy on B_mem, +70% energy-efficiency). For the CPU-bound table
scan the same move loses performance one-for-one with energy, so a
customized DVFS policy should only down-clock memory-bound plans.`)
}

// sweepWorkload measures one function at P36/P24/P12.
func sweepWorkload(build func(lab *energydb.Lab) (func(), error)) {
	base := -1.0
	baseT := -1.0
	for _, p := range []energydb.PState{energydb.PState36, energydb.PState24, energydb.PState12} {
		lab, err := energydb.NewLab(energydb.LabConfig{PState: p, Scale: 0.1})
		if err != nil {
			log.Fatal(err)
		}
		fn, err := build(lab)
		if err != nil {
			log.Fatal(err)
		}
		b := lab.ProfileFunc("w", func(*energydb.Machine) { fn() })
		report(p, b, &base, &baseT)
	}
}

// sweepQueryOp measures one basic query operation at P36/P24/P12.
func sweepQueryOp(name string) {
	var op energydb.BasicOp
	for _, o := range energydb.BasicOps() {
		if o.Name == name {
			op = o
		}
	}
	base := -1.0
	baseT := -1.0
	for _, p := range []energydb.PState{energydb.PState36, energydb.PState24, energydb.PState12} {
		lab, err := energydb.NewLab(energydb.LabConfig{PState: p, Scale: 0.1})
		if err != nil {
			log.Fatal(err)
		}
		eng := lab.NewEngine(energydb.PostgreSQL, energydb.SettingLarge, energydb.Size500MB)
		plan, err := energydb.Warm(eng, energydb.Builder(op.Text))
		if err != nil {
			log.Fatal(err)
		}
		var runErr error
		b := lab.Profiler().Profile(name, func() { _, runErr = eng.Run(plan) })
		if runErr != nil {
			log.Fatal(runErr)
		}
		report(p, b, &base, &baseT)
	}
}

func report(p energydb.PState, b energydb.Breakdown, baseE, baseT *float64) {
	if *baseE < 0 {
		*baseE, *baseT = b.EActive, b.Seconds
		fmt.Printf("  %v: Eactive=%.4fJ  t=%.1fms  (baseline)  stall=%.1f%% mem=%.1f%%\n",
			p, b.EActive, b.Seconds*1e3, b.Share(energydb.CompStall)*100, b.Share(energydb.CompMem)*100)
		return
	}
	saving := (1 - b.EActive/(*baseE)) * 100
	perfLoss := (b.Seconds/(*baseT) - 1) * 100
	eff := (1 / (b.Seconds / (*baseT))) / (b.EActive / (*baseE))
	fmt.Printf("  %v: Eactive=%.4fJ  t=%.1fms  saving=%.1f%%  perf loss=%.1f%%  energy-eff. x%.2f\n",
		p, b.EActive, b.Seconds*1e3, saving, perfLoss, eff)
}
