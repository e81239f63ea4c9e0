// Package exec mirrors the row-at-a-time executor and MVCC shapes the
// chargepath analyzer guards outside the vectorized engine: row loops
// and version-chain walks must charge the meter, but (unlike package
// vec) carry no per-batch dispatch obligation.
package exec

// Row mirrors the executor's tuple.
type Row []int

// Version is one MVCC version-chain entry.
type Version struct {
	Next *Version
	TS   int
}

// Hierarchy is the memory-hierarchy stand-in.
type Hierarchy struct{}

func (h *Hierarchy) Load(addr uint64, dependent bool) {}

// Ctx is the energy-context stand-in.
type Ctx struct{}

func (c *Ctx) EvalCost(n int) {}

// visibleUncharged walks the version chain without charging the pointer
// chase: every hop is a dependent load the model never sees.
func visibleUncharged(v *Version, ts int) *Version {
	for v != nil {
		if v.TS <= ts {
			return v
		}
		v = v.Next
	}
	return nil
}

// visibleCharged charges one dependent load per hop: clean.
func visibleCharged(h *Hierarchy, base uint64, v *Version, ts int) *Version {
	for v != nil {
		h.Load(base, true)
		if v.TS <= ts {
			return v
		}
		v = v.Next
	}
	return nil
}

// sumUncharged iterates materialized rows without charging: silent work.
func sumUncharged(rows []Row) int {
	s := 0
	for _, r := range rows {
		s += r[0]
	}
	return s
}

// sumCharged charges per row: clean.
func sumCharged(ctx *Ctx, rows []Row) int {
	s := 0
	for _, r := range rows {
		ctx.EvalCost(1)
		s += r[0]
	}
	return s
}
