// Package counterdelta reproduces the repository's two shipped
// counter-underflow bugs — the pre-PR-4 StallAwareGovernor.Tick shape and
// the pre-fix Counters.Sub raw field subtraction — alongside the accepted
// clamped and waived shapes, for the analyzer's golden test.
package counterdelta

// Counters mirrors the PMU snapshot struct.
type Counters struct {
	StallCycles uint64
	Loads       uint64
	Other       uint64
}

type governor struct {
	lastStall uint64
}

// Tick is the historical stallgov.Tick underflow: the baseline is not
// clamped, so a counter reset wraps the delta to ~2^64.
func (g *governor) Tick(c Counters) uint64 {
	delta := c.StallCycles - g.lastStall
	g.lastStall = c.StallCycles
	return delta
}

// Sub is the historical Counters.Sub shape: raw per-field subtraction.
// Other has a neutral field name; it is caught via the Counters owner type.
func (c Counters) Sub(base Counters) Counters {
	return Counters{
		StallCycles: c.StallCycles - base.StallCycles,
		Loads:       c.Loads - base.Loads,
		Other:       c.Other - base.Other,
	}
}

// clampedDelta is the accepted monotonicDelta shape: the ordering guard
// over the same operand pair proves the backwards case was considered.
func clampedDelta(stallNow, stallBase uint64) uint64 {
	if stallNow < stallBase {
		return 0
	}
	return stallNow - stallBase
}

// windowTransitions demonstrates the waiver syntax for a pair that cannot
// go backwards (both reads on the owning goroutine, no reset in between).
func windowTransitions(nowTransitions, baseTransitions uint64) uint64 {
	return nowTransitions - baseTransitions //lint:monotonic same-goroutine window, no reset between reads
}

// lastSlot is index arithmetic: constant operands are exempt.
func lastSlot(issueSlots uint64) uint64 {
	return issueSlots - 1
}

// trailingWaiver pins the waiver's reach: a waiver that trails a statement
// covers that line only, so the unwaived delta on the next line is still a
// finding (only a waiver alone on its line also covers the line below).
func trailingWaiver(loadsNow, loadsBase, hitsNow, hitsBase uint64) (uint64, uint64) {
	loads := loadsNow - loadsBase //lint:monotonic same-goroutine window
	hits := hitsNow - hitsBase
	return loads, hits
}
