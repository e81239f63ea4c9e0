// Quickstart: calibrate the energy model, verify it, run a TPC-H query on
// the SQLite profile and print its Active-energy breakdown — the paper's
// whole methodology in one page of code against the public API.
package main

import (
	"fmt"
	"log"

	"energydb"
)

func main() {
	// 1. Build the measurement lab. NewLab runs the micro-benchmark set
	// (B_L1D_array, B_L1D_list, B_L2, B_L3, B_mem, B_Reg2L1D, B_add,
	// B_nop) and solves the per-micro-operation energies ΔE_m.
	lab, err := energydb.NewLab(energydb.LabConfig{})
	if err != nil {
		log.Fatal(err)
	}
	d := lab.Calibration.DeltaE
	fmt.Println("Solved micro-operation energies (compare with the paper's Table 2):")
	fmt.Printf("  ΔE_L1D=%.2fnJ  ΔE_L2=%.2fnJ  ΔE_L3=%.2fnJ  ΔE_mem=%.2fnJ\n", d.L1D, d.L2, d.L3, d.Mem)
	fmt.Printf("  ΔE_Reg2L1D=%.2fnJ  ΔE_stall=%.2fnJ  ΔE_add=%.2fnJ  ΔE_nop=%.2fnJ\n\n", d.Reg2L1D, d.Stall, d.Add, d.Nop)

	// 2. Verify the calibration against the composite benchmarks.
	results := lab.Verify()
	sum := 0.0
	for _, v := range results {
		sum += v.Accuracy
	}
	fmt.Printf("Verification accuracy over %d composite benchmarks: %.1f%% (paper: 93.47%%)\n\n",
		len(results), sum/float64(len(results))*100)

	// 3. Load TPC-H into the SQLite profile and profile Q6 (the pure
	// scan-and-aggregate query).
	eng := lab.NewEngine(energydb.SQLite, energydb.SettingBaseline, energydb.Size100MB)
	q, err := energydb.QueryByID(6)
	if err != nil {
		log.Fatal(err)
	}
	b, err := lab.ProfileQuery(eng, q)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("TPC-H Q6 on SQLite (forecasting revenue change):")
	fmt.Printf("  Active energy:       %.4f J over %.1f ms\n", b.EActive, b.Seconds*1e3)
	fmt.Printf("  E_L1D + E_Reg2L1D:   %.1f%%   <- the paper's bottleneck (39%%-67%% band)\n", b.L1DShare()*100)
	fmt.Printf("  data movement total: %.1f%%\n", b.DataMovementShare()*100)
	fmt.Printf("  background share:    %.1f%% of Busy-CPU energy\n", b.BackgroundShare()*100)
	fmt.Println("\nFull component breakdown:")
	for _, c := range []energydb.Component{
		energydb.CompL1D, energydb.CompReg2L1D, energydb.CompL2, energydb.CompL3,
		energydb.CompMem, energydb.CompPf, energydb.CompStall, energydb.CompOther,
	} {
		fmt.Printf("  %-10s %5.1f%%\n", c, b.Share(c)*100)
	}
}
