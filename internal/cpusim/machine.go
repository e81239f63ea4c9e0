package cpusim

import (
	"fmt"

	"energydb/internal/memsim"
)

// BackgroundPower is the fixed per-domain power drawn whenever the machine
// is powered on (C-states disabled), in watts. The paper measures it by
// running an only-blocked program and reading RAPL; here it is part of the
// machine's ground truth. It does not scale with P-state in this model
// (leakage-dominated), which matches the paper's treatment of it as a fixed
// cost subtracted from Busy-CPU energy.
type BackgroundPower struct {
	Core         float64
	PackageExtra float64
	DRAM         float64
}

// Over returns the background energy accumulated over d seconds.
func (b BackgroundPower) Over(seconds float64) DomainEnergy {
	return DomainEnergy{b.Core * seconds, b.PackageExtra * seconds, b.DRAM * seconds}
}

// Profile bundles everything that defines a machine model.
type Profile struct {
	Name       string
	Mem        memsim.Config
	Energy     *EnergyTable
	Background BackgroundPower
	MinPState  PState
	MaxPState  PState
	// HasRAPL distinguishes the Intel part (RAPL counters) from the ARM
	// board, which is measured with an external power meter.
	HasRAPL bool
}

// IntelI7_4790 is the paper's measurement machine (Section 2.6): i7-4790,
// 32GB DDR3-1600, RAPL. Background power is sized so that, as in Section 3,
// the background share of Busy-CPU energy for database workloads lands in
// the 47%–52% band.
func IntelI7_4790() Profile {
	return Profile{
		Name:       "Intel i7-4790",
		Mem:        memsim.I7_4790(),
		Energy:     IntelEnergyTable(),
		Background: BackgroundPower{Core: 4.0, PackageExtra: 3.0, DRAM: 1.6},
		MinPState:  PStateMin,
		MaxPState:  PStateMax,
		HasRAPL:    true,
	}
}

// ARM1176 is the proof-of-concept board of Section 4: ARM1176JZF-S with
// 16KB L1D, 32KB DTCM, 256MB memory, fixed 1.2GHz-equivalent clock in this
// model, no RAPL (external power meter).
func ARM1176() Profile {
	return Profile{
		Name:       "ARM1176JZF-S",
		Mem:        memsim.ARM1176JZFS(),
		Energy:     ARMEnergyTable(),
		Background: BackgroundPower{Core: 0.55, PackageExtra: 0.15, DRAM: 0.30},
		MinPState:  PStateMin,
		MaxPState:  PState12,
		HasRAPL:    false,
	}
}

// Machine ties a hierarchy to a P-state, accumulating wall-clock time and
// true active energy segment by segment so that P-state changes mid-run are
// accounted correctly. It also implements the EIST governor used when DVFS
// is enabled.
type Machine struct {
	Profile Profile
	Hier    *memsim.Hierarchy

	pstate PState
	eist   bool

	// Segment accounting.
	lastCounters memsim.Counters
	active       DomainEnergy
	busySeconds  float64
	idleSeconds  float64

	// EIST governor state.
	gov governor
}

// NewMachine builds a machine from a profile, fixed at the highest P-state
// with EIST off (the paper's trunk-experiment configuration).
func NewMachine(p Profile) *Machine {
	m := &Machine{
		Profile: p,
		Hier:    memsim.New(p.Mem),
		pstate:  p.MaxPState,
	}
	m.Hier.SetFrequencyHz(m.pstate.FrequencyHz())
	return m
}

// NewLike returns a fresh machine of the same model at the same operating
// point: the profile (including any energy-table mutations such as ITCM) and
// the current P-state/EIST setting are replicated, the hierarchy is rebuilt
// cold with the same configuration, and all counter/energy accounting starts
// at zero. This is the per-worker clone path: N machines share one
// P-state/energy-model configuration but own private PMU counters, caches
// and energy accumulators, so statements executing on different clones never
// share mutable state and need no locks.
func (m *Machine) NewLike() *Machine {
	m.Sync()
	p := m.Profile
	p.Energy = m.Profile.Energy.Clone()
	n := &Machine{
		Profile: p,
		Hier:    m.Hier.NewLike(),
		pstate:  m.pstate,
		eist:    m.eist,
	}
	n.Hier.SetFrequencyHz(n.pstate.FrequencyHz())
	return n
}

// PState returns the current operating point.
func (m *Machine) PState() PState { return m.pstate }

// SetPState fixes the operating point (EIST off), folding the elapsed
// segment first.
func (m *Machine) SetPState(p PState) error {
	if p < m.Profile.MinPState || p > m.Profile.MaxPState {
		return fmt.Errorf("cpusim: %v out of range [%d, %d] for %s",
			p, m.Profile.MinPState, m.Profile.MaxPState, m.Profile.Name)
	}
	m.Sync()
	m.pstate = p
	m.Hier.SetFrequencyHz(p.FrequencyHz())
	return nil
}

// SetEIST turns the dynamic governor on or off.
func (m *Machine) SetEIST(on bool) {
	m.Sync()
	m.eist = on
	m.gov = governor{}
}

// Sync folds the cycles executed since the last sync into wall-clock time
// and active energy at the current P-state. Callers that change the P-state
// or read energy must sync first; public entry points do it automatically.
func (m *Machine) Sync() {
	cur := m.Hier.Counters()
	delta := cur.Sub(m.lastCounters)
	m.lastCounters = cur
	if delta.Cycles() == 0 {
		return
	}
	m.active = m.active.Add(m.Profile.Energy.Active(delta, m.pstate))
	m.busySeconds += float64(delta.Cycles()) / m.pstate.FrequencyHz()
}

// AddIdle advances wall-clock time without executing instructions, modelling
// I/O waits. Background power keeps burning (C-states are disabled in the
// paper's measurement setup); if EIST is on, the governor sees the idle time
// as low utilization.
func (m *Machine) AddIdle(seconds float64) {
	m.Sync()
	m.idleSeconds += seconds
}

// GovernorTick must be called periodically by EIST-enabled workload drivers
// (the paper samples at 100ms). It folds the elapsed segment, computes the
// window utilization, and picks the next P-state the way EIST does: high
// load pushes toward the top state quickly, idle windows decay it.
func (m *Machine) GovernorTick() PState {
	if !m.eist {
		return m.pstate
	}
	m.Sync()
	busy := m.busySeconds - m.gov.lastBusy
	idle := m.idleSeconds - m.gov.lastIdle
	m.gov.lastBusy = m.busySeconds
	m.gov.lastIdle = m.idleSeconds
	total := busy + idle
	util := 1.0
	if total > 0 {
		util = busy / total
	}
	next := m.gov.next(util, m.Profile.MinPState, m.Profile.MaxPState)
	if next != m.pstate {
		m.pstate = next
		m.Hier.SetFrequencyHz(next.FrequencyHz())
	}
	return m.pstate
}

// ActiveEnergy returns the true cumulative active energy (the quantity the
// paper calls Active energy) by domain.
func (m *Machine) ActiveEnergy() DomainEnergy {
	m.Sync()
	return m.active
}

// BackgroundEnergy returns the cumulative background energy.
func (m *Machine) BackgroundEnergy() DomainEnergy {
	m.Sync()
	return m.Profile.Background.Over(m.busySeconds + m.idleSeconds)
}

// TotalEnergy returns active + background by domain: what a physical counter
// actually reads (before measurement noise, which the rapl package adds).
func (m *Machine) TotalEnergy() DomainEnergy {
	m.Sync()
	return m.active.Add(m.Profile.Background.Over(m.busySeconds + m.idleSeconds))
}

// BusySeconds returns accumulated executing wall-clock time.
func (m *Machine) BusySeconds() float64 { m.Sync(); return m.busySeconds }

// IdleSeconds returns accumulated idle (I/O wait) wall-clock time.
func (m *Machine) IdleSeconds() float64 { m.Sync(); return m.idleSeconds }

// WallSeconds returns total elapsed simulated time.
func (m *Machine) WallSeconds() float64 { m.Sync(); return m.busySeconds + m.idleSeconds }

// EnableITCM models an instruction tightly-coupled memory (the Section 5
// suggestion for E_other-heavy systems): the hot instruction stream is
// served from scratchpad instead of the L1I cache, scaling the
// instruction-class energies (add/nop/other) down by the given saving
// fraction. The machine's energy table is mutated in place (each profile
// constructor builds a private table), after folding the elapsed segment.
func (m *Machine) EnableITCM(saving float64) {
	if saving < 0 {
		saving = 0
	}
	if saving > 0.9 {
		saving = 0.9
	}
	m.Sync()
	for _, op := range []MicroOp{OpAdd, OpNop, OpOther} {
		for i := range m.Profile.Energy.Anchors[op] {
			m.Profile.Energy.Anchors[op][i] *= 1 - saving
		}
	}
}

// governor is a simple EIST model: utilization above the up-threshold jumps
// straight to the top state (race-to-idle), utilization below the
// down-threshold steps down proportionally, and intermediate utilization
// holds. This reproduces the paper's observation that high-CPU-load query
// workloads sit at P-state 36 for most 100ms samples, while I/O-heavy
// phases sag.
type governor struct {
	lastBusy float64
	lastIdle float64
}

const (
	govUpThreshold = 0.90
)

func (g *governor) next(util float64, min, max PState) PState {
	if util >= govUpThreshold {
		return max
	}
	span := float64(max - min)
	target := min + PState(util*span+0.5)
	return target.Clamp()
}
