package cpusim

// StallAwareGovernor is the customized DVFS policy Section 5 calls for: it
// monitors the memory-stall fraction of each window (instead of OS-visible
// utilization, which stays ~100% on memory-bound work) and radically lowers
// the P-state only when the workload is memory-bound — where ΔE_mem barely
// depends on frequency and stall *cycles* shrink with the clock, so energy
// drops with little performance loss. CPU-bound windows run at full clock.
type StallAwareGovernor struct {
	m *Machine

	// MemBoundThreshold is the stall-cycle fraction above which a window
	// counts as memory-bound.
	MemBoundThreshold float64
	// MidThreshold marks moderately stalled windows.
	MidThreshold float64
	// LowPState is the radical operating point for memory-bound windows.
	LowPState PState
	// MidPState is used between the thresholds.
	MidPState PState

	// Transitions counts the P-state changes the governor has made — the
	// figure energyd exports as its per-worker transition counter.
	Transitions uint64
	// Ticks counts Tick calls (windows observed).
	Ticks uint64

	lastStall  uint64
	lastCycles uint64
}

// NewStallAwareGovernor attaches the policy to a machine with the defaults
// tuned in the Section 5 exploration.
func NewStallAwareGovernor(m *Machine) *StallAwareGovernor {
	return &StallAwareGovernor{
		m:                 m,
		MemBoundThreshold: 0.35,
		MidThreshold:      0.15,
		LowPState:         PState24,
		MidPState:         PState(30),
	}
}

// Tick inspects the window since the last tick and reprograms the P-state.
// It returns the chosen state and the observed stall fraction. The window is
// the difference of two counter snapshots of the governor's one machine,
// whose counters only count up.
func (g *StallAwareGovernor) Tick() (PState, float64) {
	c := g.m.Hier.Counters()
	stall := c.StallCycles - g.lastStall
	cycles := c.Cycles() - g.lastCycles
	g.lastStall = c.StallCycles
	g.lastCycles = c.Cycles()
	g.Ticks++

	frac := 0.0
	if cycles > 0 {
		frac = float64(stall) / float64(cycles)
	}
	target := g.m.Profile.MaxPState
	switch {
	case frac >= g.MemBoundThreshold:
		target = g.LowPState
	case frac >= g.MidThreshold:
		target = g.MidPState
	}
	if target < g.m.Profile.MinPState {
		target = g.m.Profile.MinPState
	}
	if target != g.m.PState() {
		// SetPState cannot fail: target is within the profile range.
		_ = g.m.SetPState(target)
		g.Transitions++
	}
	return g.m.PState(), frac
}
