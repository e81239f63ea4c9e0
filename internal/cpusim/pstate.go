// Package cpusim models the processor around the memory hierarchy: P-states
// (frequency/voltage operating points), the EIST dynamic governor, per
// micro-operation energy ground truth calibrated to the paper's Table 2, and
// wall-clock/energy accounting for measurement sessions.
//
// The package is the "hardware" of this reproduction: internal/core must
// recover the energy table defined here through the paper's micro-benchmark
// methodology without peeking at it.
package cpusim

import "fmt"

// PState is an EIST operating point. As on the paper's i7-4790, the state
// number times 100MHz is the core frequency: P-state 36 = 3.6GHz (highest),
// P-state 8 = 800MHz (lowest). 29 states exist in between, 100MHz apart.
type PState int

// P-state bounds of the i7-4790.
const (
	PStateMin PState = 8
	PStateMax PState = 36
)

// The three P-states the paper evaluates in Tables 2 and 5 and Figure 11.
const (
	PState36 PState = 36
	PState24 PState = 24
	PState12 PState = 12
)

// FrequencyHz returns the core frequency of the state.
func (p PState) FrequencyHz() float64 { return float64(p) * 100e6 }

// FrequencyGHz returns the core frequency in GHz.
func (p PState) FrequencyGHz() float64 { return float64(p) * 0.1 }

// Voltage returns the modelled core voltage of the operating point. The
// linear V/f relation spans 0.65V at 800MHz to 1.10V at 3.6GHz, typical for
// the Haswell voltage/frequency curve. The value is informational: the
// energy table already embodies the V²f scaling.
func (p PState) Voltage() float64 {
	f := p.FrequencyGHz()
	return 0.65 + (f-0.8)*(1.10-0.65)/(3.6-0.8)
}

// Clamp returns p limited to the valid range.
func (p PState) Clamp() PState {
	if p < PStateMin {
		return PStateMin
	}
	if p > PStateMax {
		return PStateMax
	}
	return p
}

// String renders the state the way the paper writes it.
func (p PState) String() string { return fmt.Sprintf("P-state %d (%.1fGHz)", int(p), p.FrequencyGHz()) }

// AllPStates lists every supported state, lowest first.
func AllPStates() []PState {
	out := make([]PState, 0, PStateMax-PStateMin+1)
	for p := PStateMin; p <= PStateMax; p++ {
		out = append(out, p)
	}
	return out
}
