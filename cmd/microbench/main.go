// Command microbench runs the micro-benchmark methodology standalone: the
// MBS isolation set, the ΔE_m solver, and the VMBS verification set —
// Tables 1, 2 (single P-state) and 3 in one run — and the random-gather
// pairs beside VMBS (mubench.Gathers): stall and energy per load, dependent
// against grouped.
//
// Usage:
//
//	microbench                 # calibrate at P-state 36
//	microbench -pstate 12      # a different operating point
//	microbench -scale 1        # paper-length runs (slower)
package main

import (
	"flag"
	"fmt"
	"os"

	"energydb/internal/core"
	"energydb/internal/cpusim"
	"energydb/internal/mubench"
	"energydb/internal/rapl"
)

func main() {
	var (
		pstate = flag.Int("pstate", 36, "P-state (8-36)")
		scale  = flag.Float64("scale", 0.2, "pass-count scale (1 = paper-shaped)")
		seed   = flag.Int64("seed", 42, "measurement noise seed")
		noise  = flag.Float64("noise", rapl.DefaultNoise, "per-session measurement error")
	)
	flag.Parse()

	p := cpusim.PState(*pstate)
	fmt.Printf("Calibrating at %v (scale %.2f)...\n\n", p, *scale)
	st, err := core.NewStack(p, *seed, *noise, *scale, 0)
	if err != nil {
		fatal(err)
	}
	cal := st.Cal

	fmt.Println("Runtime behaviors (Table 1):")
	fmt.Printf("%-14s %8s %10s %9s %9s %7s\n", "benchmark", "BLI%", "L1Dmiss%", "L2miss%", "L3miss%", "IPC")
	for _, r := range cal.Results {
		c := r.Counters
		fmt.Printf("%-14s %8.1f %10.2f %9.2f %9.2f %7.3f\n",
			r.Spec.Name, r.BLI, c.L1DMissRate()*100, c.L2MissRate()*100, c.L3MissRate()*100, c.IPC())
	}

	d := cal.DeltaE
	fmt.Println("\nSolved micro-operation energies (Table 2 column):")
	fmt.Printf("  dE_L1D     = %7.2f nJ\n", d.L1D)
	fmt.Printf("  dE_L2      = %7.2f nJ\n", d.L2)
	fmt.Printf("  dE_L3      = %7.2f nJ   (= dE_pf_L2)\n", d.L3)
	fmt.Printf("  dE_mem     = %7.2f nJ   (= dE_pf_L3)\n", d.Mem)
	fmt.Printf("  dE_Reg2L1D = %7.2f nJ\n", d.Reg2L1D)
	fmt.Printf("  dE_stall   = %7.2f nJ\n", d.Stall)
	fmt.Printf("  dE_add     = %7.2f nJ\n", d.Add)
	fmt.Printf("  dE_nop     = %7.2f nJ\n", d.Nop)

	fmt.Println("\nVerification (Table 3):")
	results := cal.Verify(st.Runner)
	fmt.Printf("%-22s %14s %14s %8s\n", "benchmark", "estimated (J)", "measured (J)", "acc%")
	for _, v := range results {
		fmt.Printf("%-22s %14.6f %14.6f %8.2f\n", v.Name, v.EEstimated, v.EMeasured, v.Accuracy*100)
	}
	fmt.Printf("%-22s %14s %14s %8.2f\n", "average", "", "", core.MeanAccuracy(results)*100)

	fmt.Println("\nRandom gather, dependent vs grouped (beside VMBS):")
	fmt.Printf("%-12s %10s %20s\n", "benchmark", "stall/load", "E_active/load (nJ)")
	for _, s := range mubench.Gathers() {
		r := st.Runner.Run(s)
		loads := float64(r.Counters.Loads)
		fmt.Printf("%-12s %10.2f %20.2f\n", s.Name, float64(r.Counters.StallCycles)/loads, r.EActive/loads*1e9)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "microbench:", err)
	os.Exit(1)
}
