package cpusim

import (
	"testing"

	"energydb/internal/memsim"
)

func TestStallAwareGovernorClassifiesMemoryBound(t *testing.T) {
	m := NewMachine(IntelI7_4790())
	gov := NewStallAwareGovernor(m)
	gov.Tick()
	// Memory-bound window: dependent DRAM loads, no cache reuse.
	for i := 0; i < 2000; i++ {
		m.Hier.Load(uint64(i*2654435761)%(128<<20), true)
	}
	p, frac := gov.Tick()
	if frac < 0.5 {
		t.Fatalf("stall fraction = %.2f, want memory-bound", frac)
	}
	if p != gov.LowPState {
		t.Fatalf("P-state = %v, want %v for memory-bound work", p, gov.LowPState)
	}
}

func TestStallAwareGovernorKeepsCPUBoundFast(t *testing.T) {
	m := NewMachine(IntelI7_4790())
	gov := NewStallAwareGovernor(m)
	gov.Tick()
	m.Hier.Exec(100000, memsim.InstrAdd)
	p, frac := gov.Tick()
	if frac > 0.01 {
		t.Fatalf("stall fraction = %.2f for pure compute", frac)
	}
	if p != m.Profile.MaxPState {
		t.Fatalf("P-state = %v, want max for compute", p)
	}
}

func TestStallAwareGovernorRecovers(t *testing.T) {
	m := NewMachine(IntelI7_4790())
	gov := NewStallAwareGovernor(m)
	gov.Tick()
	for i := 0; i < 1000; i++ {
		m.Hier.Load(uint64(i*2654435761)%(128<<20), true)
	}
	gov.Tick() // memory-bound -> low
	m.Hier.Exec(200000, memsim.InstrAdd)
	p, _ := gov.Tick() // compute window -> back to max
	if p != m.Profile.MaxPState {
		t.Fatalf("governor stuck at %v after compute window", p)
	}
}

// TestStallAwareGovernorCountsTransitions checks the transition counter the
// server exports: one low transition, one recovery.
func TestStallAwareGovernorCountsTransitions(t *testing.T) {
	m := NewMachine(IntelI7_4790())
	gov := NewStallAwareGovernor(m)
	gov.Tick() // max → max: no transition
	for i := 0; i < 2000; i++ {
		m.Hier.Load(uint64(i*2654435761)%(128<<20), true)
	}
	gov.Tick() // → low
	m.Hier.Exec(200000, memsim.InstrAdd)
	gov.Tick() // → max
	if gov.Transitions != 2 {
		t.Fatalf("Transitions = %d, want 2", gov.Transitions)
	}
	if gov.Ticks != 3 {
		t.Fatalf("Ticks = %d, want 3", gov.Ticks)
	}
}

func TestEnableITCMScalesInstructionEnergy(t *testing.T) {
	m := NewMachine(ARM1176())
	before := m.Profile.Energy.PerOp(OpOther, m.PState())
	beforeL1D := m.Profile.Energy.PerOp(OpL1D, m.PState())
	m.EnableITCM(0.2)
	after := m.Profile.Energy.PerOp(OpOther, m.PState())
	if diff := after/before - 0.8; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("other energy scaled to %.3f of original, want 0.8", after/before)
	}
	if got := m.Profile.Energy.PerOp(OpL1D, m.PState()); got != beforeL1D {
		t.Fatal("ITCM must not touch data-path energies")
	}
}

func TestEnableITCMDoesNotShareTablesAcrossMachines(t *testing.T) {
	a := NewMachine(ARM1176())
	b := NewMachine(ARM1176())
	a.EnableITCM(0.5)
	if a.Profile.Energy.PerOp(OpOther, a.PState()) == b.Profile.Energy.PerOp(OpOther, b.PState()) {
		t.Fatal("machines share an energy table; EnableITCM leaked")
	}
}

func TestEnableITCMClamps(t *testing.T) {
	m := NewMachine(ARM1176())
	m.EnableITCM(5.0) // clamped to 0.9
	if got := m.Profile.Energy.PerOp(OpAdd, m.PState()); got <= 0 {
		t.Fatalf("add energy = %v after clamped ITCM", got)
	}
}
