// Package core implements the paper's primary contribution: the micro
// analysis method for Busy-CPU energy (Section 2).
//
// The method formalizes a workload's Active energy as
//
//	E_active(w) = E_other(w) + Σ_{m ∈ MS} N_m(w) × ΔE_m        (Eq. 1)
//
// over the micro-operation set MS = {L1D, Reg2L1D, L2, L3, mem, pf, stall}.
// Calibrate recovers every ΔE_m from the mubench micro-benchmark set using
// the energy models of Section 2.5.4; Verify validates the solved values
// against the composite verification benchmarks (Section 2.5.5, Table 3);
// and Breakdown applies Eq. 1 to any measured workload, yielding the energy
// distribution figures of Section 3.
package core

import (
	"fmt"
	"math"

	"energydb/internal/cpusim"
	"energydb/internal/memsim"
	"energydb/internal/mubench"
	"energydb/internal/rapl"
)

// DeltaE holds the solved per-micro-operation energies in nanojoules: the
// paper's Table 2 row set. PfL2/PfL3 follow the Section 2.5.4 assumption
// ΔE_pf_L2 = ΔE_L3 and ΔE_pf_L3 = ΔE_mem. Add and Nop are the verification
// instruction energies.
type DeltaE struct {
	L1D     float64
	L2      float64
	L3      float64
	Mem     float64
	Reg2L1D float64
	Stall   float64
	PfL2    float64
	PfL3    float64
	Add     float64
	Nop     float64
}

// Calibration is the outcome of solving ΔE_m at one operating point.
type Calibration struct {
	// PState is the fixed operating point the calibration ran at.
	PState cpusim.PState
	// DeltaE are the solved energies (nJ).
	DeltaE DeltaE
	// Background is the measured background power per domain (watts).
	Background rapl.Reading
	// Results keeps the raw micro-benchmark outcomes (Table 1 data).
	Results []mubench.Result
}

// Stack is the calibrated measurement stack every consumer starts from:
// machine → meter → micro-benchmark runner → solved ΔE_m.
type Stack struct {
	M      *cpusim.Machine
	Meter  *rapl.Meter
	Runner *mubench.Runner
	Cal    *Calibration
}

// NewStack builds an i7-4790 at P-state p, attaches a meter with the given
// noise seed and relative measurement error, and calibrates it with
// micro-benchmark pass counts rescaled by scale and reps measured sessions
// per benchmark (0 keeps the runner's default).
func NewStack(p cpusim.PState, seed int64, noise, scale float64, reps int) (*Stack, error) {
	m := cpusim.NewMachine(cpusim.IntelI7_4790())
	if err := m.SetPState(p); err != nil {
		return nil, err
	}
	meter := rapl.NewMeter(m, seed, noise)
	runner := mubench.NewRunner(m, meter)
	runner.Scale = scale
	if reps > 0 {
		runner.Repetitions = reps
	}
	cal, err := Calibrate(runner)
	if err != nil {
		return nil, err
	}
	return &Stack{M: m, Meter: meter, Runner: runner, Cal: cal}, nil
}

// Profiler returns a workload profiler over the stack.
func (s *Stack) Profiler() *Profiler { return NewProfiler(s.M, s.Meter, s.Cal) }

// Calibrate runs the full MBS micro-benchmark set on the runner's machine at
// its current P-state and solves the energy models of Section 2.5.4.
func Calibrate(r *mubench.Runner) (*Calibration, error) {
	results := r.RunAll(mubench.MBS())
	byName := make(map[string]mubench.Result, len(results))
	for _, res := range results {
		byName[res.Spec.Name] = res
	}
	need := func(name string) (mubench.Result, error) {
		res, ok := byName[name]
		if !ok {
			return mubench.Result{}, fmt.Errorf("core: benchmark %q missing from MBS", name)
		}
		if res.EActive <= 0 {
			return mubench.Result{}, fmt.Errorf("core: %q measured non-positive active energy %g", name, res.EActive)
		}
		return res, nil
	}

	var d DeltaE

	// ΔE_add and ΔE_nop from the pure instruction loops.
	bAdd, err := need("B_add")
	if err != nil {
		return nil, err
	}
	d.Add = joulesToNano(bAdd.EActive) / float64(bAdd.Counters.AddOps)

	bNop, err := need("B_nop")
	if err != nil {
		return nil, err
	}
	d.Nop = joulesToNano(bNop.EActive) / float64(bNop.Counters.NopOps)

	// ΔE_L1D = E(B_L1D_array) / N_L1D: the array traversal only loads
	// from L1D and never stalls.
	bArr, err := need("B_L1D_array")
	if err != nil {
		return nil, err
	}
	if bArr.Counters.L1DAccesses == 0 {
		return nil, fmt.Errorf("core: B_L1D_array issued no L1D accesses")
	}
	d.L1D = joulesToNano(bArr.EActive) / float64(bArr.Counters.L1DAccesses)

	// ΔE_stall = (E(B_L1D_list) − E_L1D) / N_stall: the list traversal
	// adds only dependent-load stall cycles on top of the same loads.
	bList, err := need("B_L1D_list")
	if err != nil {
		return nil, err
	}
	if bList.Counters.StallCycles == 0 {
		return nil, fmt.Errorf("core: B_L1D_list recorded no stall cycles")
	}
	d.Stall = (joulesToNano(bList.EActive) - d.L1D*float64(bList.Counters.L1DAccesses)) /
		float64(bList.Counters.StallCycles)

	// Eq. 2 cascade: each deeper-layer benchmark subtracts the energies
	// of the layers above it (step-by-step replication means a load from
	// layer m also loads through every higher layer) and the stall cost.
	solveLayer := func(res mubench.Result, layerCount uint64, higher func(c memsim.Counters) float64) (float64, error) {
		if layerCount == 0 {
			return 0, fmt.Errorf("core: %s produced no accesses to its target layer", res.Spec.Name)
		}
		e := joulesToNano(res.EActive) - higher(res.Counters) - d.Stall*float64(res.Counters.StallCycles)
		v := e / float64(layerCount)
		if v <= 0 {
			return 0, fmt.Errorf("core: solved non-positive ΔE for %s (%g nJ)", res.Spec.Name, v)
		}
		return v, nil
	}

	bL2, err := need("B_L2")
	if err != nil {
		return nil, err
	}
	d.L2, err = solveLayer(bL2, bL2.Counters.L2Accesses, func(c memsim.Counters) float64 {
		return d.L1D * float64(c.L1DAccesses)
	})
	if err != nil {
		return nil, err
	}

	bL3, err := need("B_L3")
	if err != nil {
		return nil, err
	}
	d.L3, err = solveLayer(bL3, bL3.Counters.L3Accesses, func(c memsim.Counters) float64 {
		return d.L1D*float64(c.L1DAccesses) + d.L2*float64(c.L2Accesses)
	})
	if err != nil {
		return nil, err
	}

	bMem, err := need("B_mem")
	if err != nil {
		return nil, err
	}
	d.Mem, err = solveLayer(bMem, bMem.Counters.MemAccesses, func(c memsim.Counters) float64 {
		return d.L1D*float64(c.L1DAccesses) + d.L2*float64(c.L2Accesses) + d.L3*float64(c.L3Accesses)
	})
	if err != nil {
		return nil, err
	}

	// ΔE_Reg2L1D = E(B_Reg2L1D) / N_Reg2L1D.
	bSt, err := need("B_Reg2L1D")
	if err != nil {
		return nil, err
	}
	if bSt.Counters.StoreL1DHits == 0 {
		return nil, fmt.Errorf("core: B_Reg2L1D recorded no store hits")
	}
	d.Reg2L1D = joulesToNano(bSt.EActive) / float64(bSt.Counters.StoreL1DHits)

	// Prefetching energy assumption (Section 2.5.4).
	d.PfL2 = d.L3
	d.PfL3 = d.Mem

	return &Calibration{
		PState:     r.M.PState(),
		DeltaE:     d,
		Background: r.Background,
		Results:    results,
	}, nil
}

func joulesToNano(j float64) float64  { return j * 1e9 }
func nanoToJoules(nj float64) float64 { return nj * 1e-9 }

// Estimate applies Eq. 1 with the solved ΔE_m to an event-count delta,
// returning the estimated Active energy in joules. The E_other term uses the
// verification instruction energies (E_other = ΔE_add·N_add + ΔE_nop·N_nop),
// exactly as Section 2.5.5 defines for the verification benchmarks.
func (c *Calibration) Estimate(ctr memsim.Counters) float64 {
	d := c.DeltaE
	nj := d.L1D*float64(ctr.L1DAccesses) +
		d.L2*float64(ctr.L2Accesses) +
		d.L3*float64(ctr.L3Accesses) +
		d.Mem*float64(ctr.MemAccesses) +
		d.Reg2L1D*float64(ctr.StoreL1DHits) +
		d.Stall*float64(ctr.StallCycles) +
		d.PfL2*float64(ctr.PrefetchL2) +
		d.PfL3*float64(ctr.PrefetchL3) +
		d.Add*float64(ctr.AddOps) +
		d.Nop*float64(ctr.NopOps)
	return nanoToJoules(nj)
}

// VerifyResult is one Table 3 row: measured vs estimated Active energy of a
// verification benchmark and the accuracy metric.
type VerifyResult struct {
	Name string
	// EMeasured is the measured Active energy (joules).
	EMeasured float64
	// EEstimated is Eq. 1 applied with the solved ΔE_m (joules).
	EEstimated float64
	// Accuracy is 1 − |est − meas|/meas, clamped at 0 (Section 2.5.5).
	Accuracy float64
}

// Verify runs the VMBS verification set and scores the calibration.
func (c *Calibration) Verify(r *mubench.Runner) []VerifyResult {
	out := make([]VerifyResult, 0, len(mubench.VMBS()))
	for _, spec := range mubench.VMBS() {
		res := r.Run(spec)
		est := c.Estimate(res.Counters)
		out = append(out, VerifyResult{
			Name:       spec.Name,
			EMeasured:  res.EActive,
			EEstimated: est,
			Accuracy:   Accuracy(res.EActive, est),
		})
	}
	return out
}

// Accuracy computes the paper's verification metric.
func Accuracy(measured, estimated float64) float64 {
	if measured == 0 {
		return 0
	}
	acc := 1 - math.Abs(estimated-measured)/measured
	if acc < 0 {
		return 0
	}
	return acc
}

// MeanAccuracy averages the verification accuracies (the paper reports
// 93.47% across VMBS).
func MeanAccuracy(rs []VerifyResult) float64 {
	if len(rs) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range rs {
		sum += r.Accuracy
	}
	return sum / float64(len(rs))
}
