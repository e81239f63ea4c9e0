package cpusim

import (
	"math"
	"testing"
	"testing/quick"

	"energydb/internal/memsim"
)

func TestPStateFrequencyAndVoltage(t *testing.T) {
	if got := PState36.FrequencyGHz(); got != 3.6 {
		t.Fatalf("P36 frequency = %v, want 3.6", got)
	}
	if got := PStateMin.FrequencyGHz(); math.Abs(got-0.8) > 1e-9 {
		t.Fatalf("P8 frequency = %v, want 0.8", got)
	}
	if v36, v8 := PState36.Voltage(), PStateMin.Voltage(); v36 <= v8 {
		t.Fatalf("voltage not monotonic: V(36)=%v V(8)=%v", v36, v8)
	}
	if n := len(AllPStates()); n != 29 {
		t.Fatalf("AllPStates count = %d, want 29 (paper: 29 candidate P-states)", n)
	}
}

func TestEnergyTableMatchesTable2Anchors(t *testing.T) {
	tbl := IntelEnergyTable()
	cases := []struct {
		op   MicroOp
		p    PState
		want float64
	}{
		{OpL1D, PState36, 1.30}, {OpL1D, PState24, 0.90}, {OpL1D, PState12, 0.60},
		{OpL2, PState36, 4.37}, {OpL2, PState24, 3.25}, {OpL2, PState12, 1.64},
		{OpL3, PState36, 6.64}, {OpL3, PState24, 5.91}, {OpL3, PState12, 5.33},
		{OpMem, PState36, 103.1}, {OpMem, PState24, 99.1}, {OpMem, PState12, 99.04},
		{OpReg2L1D, PState36, 2.42}, {OpReg2L1D, PState24, 1.60}, {OpReg2L1D, PState12, 1.10},
		{OpStall, PState36, 1.72}, {OpStall, PState24, 1.07}, {OpStall, PState12, 0.80},
		{OpAdd, PState36, 1.03},
		{OpNop, PState36, 0.65},
	}
	for _, c := range cases {
		if got := tbl.PerOp(c.op, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("PerOp(%v, %v) = %v, want %v", c.op, c.p, got, c.want)
		}
	}
}

func TestEnergyTablePrefetchAssumption(t *testing.T) {
	tbl := IntelEnergyTable()
	for _, p := range []PState{PState36, PState24, PState12, 18, 30} {
		if tbl.PerOp(OpPfL2, p) != tbl.PerOp(OpL3, p) {
			t.Fatalf("ΔE_pf_L2 != ΔE_L3 at %v", p)
		}
		if tbl.PerOp(OpPfL3, p) != tbl.PerOp(OpMem, p) {
			t.Fatalf("ΔE_pf_L3 != ΔE_mem at %v", p)
		}
	}
}

func TestEnergyTableInterpolationMonotonic(t *testing.T) {
	tbl := IntelEnergyTable()
	// Property: per-op energy is non-increasing as frequency drops, for
	// every op with nonzero anchors.
	f := func(raw uint8) bool {
		p := PState(int(raw)%28 + 8)
		q := (p + 1).Clamp()
		for op := MicroOp(0); op < numMicroOps; op++ {
			if tbl.Anchors[op][0] == 0 {
				continue
			}
			if tbl.PerOp(op, p) > tbl.PerOp(op, q)+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEnergyTableFloor(t *testing.T) {
	tbl := IntelEnergyTable()
	if got := tbl.PerOp(OpL1D, PStateMin); got < tbl.Anchors[OpL1D][2]*floorFrac-1e-12 {
		t.Fatalf("extrapolated energy %v fell below floor", got)
	}
	if got := tbl.PerOp(OpL1D, PStateMin); got <= 0 {
		t.Fatalf("energy must stay positive, got %v", got)
	}
}

func TestActiveEnergyComposition(t *testing.T) {
	tbl := IntelEnergyTable()
	c := memsim.Counters{
		L1DAccesses:  1000,
		L2Accesses:   100,
		L3Accesses:   10,
		MemAccesses:  5,
		StoreL1DHits: 200,
		StallCycles:  300,
		AddOps:       50,
	}
	e := tbl.Active(c, PState36)
	wantCore := (1000*1.30 + 100*4.37 + 200*2.42 + 300*1.72 + 50*1.03) * 1e-9
	if math.Abs(e.Core-wantCore) > 1e-15 {
		t.Fatalf("core energy = %v, want %v", e.Core, wantCore)
	}
	memE := 5 * 103.1 * 1e-9
	if math.Abs(e.DRAM-memE*(1-memControllerShare)) > 1e-15 {
		t.Fatalf("dram energy = %v", e.DRAM)
	}
	// Package includes core, L3, MC share.
	if e.Package() <= e.Core {
		t.Fatal("package must include more than core")
	}
	if math.Abs(e.Total()-(e.Core+e.PackageExtra+e.DRAM)) > 1e-18 {
		t.Fatal("total mismatch")
	}
}

func TestMachineSegmentAccounting(t *testing.T) {
	m := NewMachine(IntelI7_4790())
	// Execute at P36, then switch to P12 and execute the same amount;
	// the P12 segment must take 3x the wall time and cost less energy.
	m.Hier.Exec(1_000_000, InstrAddKind())
	m.Sync()
	e36 := m.ActiveEnergy().Total()
	t36 := m.BusySeconds()
	if err := m.SetPState(PState12); err != nil {
		t.Fatal(err)
	}
	m.Hier.Exec(1_000_000, InstrAddKind())
	m.Sync()
	e12 := m.ActiveEnergy().Total() - e36
	t12 := m.BusySeconds() - t36
	if math.Abs(t12/t36-3.0) > 0.01 {
		t.Fatalf("P12 wall time ratio = %v, want 3", t12/t36)
	}
	if e12 >= e36 {
		t.Fatalf("P12 energy %v should be below P36 energy %v", e12, e36)
	}
}

// InstrAddKind re-exports the memsim add kind for tests in this package.
func InstrAddKind() memsim.InstrKind { return memsim.InstrAdd }

func TestMachinePStateRange(t *testing.T) {
	m := NewMachine(ARM1176())
	if err := m.SetPState(PState36); err == nil {
		t.Fatal("ARM profile must reject P-state 36")
	}
	if err := m.SetPState(PState12); err != nil {
		t.Fatalf("ARM profile should accept P-state 12: %v", err)
	}
}

func TestBackgroundEnergyAccumulatesOverIdle(t *testing.T) {
	m := NewMachine(IntelI7_4790())
	m.AddIdle(2.0)
	bg := m.BackgroundEnergy()
	want := (4.0 + 3.0 + 1.6) * 2.0
	if math.Abs(bg.Total()-want) > 1e-9 {
		t.Fatalf("background = %v, want %v", bg.Total(), want)
	}
	if m.ActiveEnergy().Total() != 0 {
		t.Fatal("idle must not add active energy")
	}
}

func TestGovernorRaisesUnderLoadAndSagsWhenIdle(t *testing.T) {
	m := NewMachine(IntelI7_4790())
	if err := m.SetPState(PState12); err != nil {
		t.Fatal(err)
	}
	m.SetEIST(true)
	// Pure compute window -> utilization 1 -> top state.
	m.Hier.Exec(100000, InstrAddKind())
	if got := m.GovernorTick(); got != PStateMax {
		t.Fatalf("after busy window P-state = %v, want %v", got, PStateMax)
	}
	// Mostly idle window -> sag.
	m.Hier.Exec(100, InstrAddKind())
	m.AddIdle(0.1)
	if got := m.GovernorTick(); got >= PStateMax {
		t.Fatalf("after idle window P-state = %v, want below max", got)
	}
}

func TestEISTToggleDoesNotLoseEnergy(t *testing.T) {
	m := NewMachine(IntelI7_4790())
	m.Hier.Exec(1000, InstrAddKind())
	before := m.ActiveEnergy().Total()
	m.SetEIST(true)
	m.SetEIST(false)
	if got := m.ActiveEnergy().Total(); got != before {
		t.Fatalf("energy changed across EIST toggle: %v -> %v", before, got)
	}
}

func TestMicroOpString(t *testing.T) {
	if OpL1D.String() != "L1D" || OpReg2L1D.String() != "Reg2L1D" || OpMem.String() != "mem" {
		t.Fatal("micro-op names wrong")
	}
	if MicroOp(99).String() != "unknown" {
		t.Fatal("out-of-range op should be unknown")
	}
}
