package memsim

// Counters is the simulator's performance monitoring unit (PMU). All fields
// are cumulative event counts — the role Linux perf / ocperf events play in
// the paper (Section 2.4) — and the core package consumes them as the N_m
// terms of the paper's Eq. (1).
type Counters struct {
	// Loads is the number of load instructions issued (register-hit loads
	// excluded: the benchmarks are written so every load touches memory).
	Loads uint64
	// L1DAccesses = L1D hits + misses: the paper's N_L1D.
	L1DAccesses uint64
	L1DHits     uint64
	L1DMisses   uint64
	// L2Accesses = L2 hits + misses (demand only): the paper's N_L2.
	L2Accesses uint64
	L2Hits     uint64
	L2Misses   uint64
	// L3Accesses = L3 hits + misses (demand only): the paper's N_L3.
	L3Accesses uint64
	L3Hits     uint64
	L3Misses   uint64
	// MemAccesses is the demand DRAM access count: the paper's N_mem
	// (defined as the miss count of the last cache level).
	MemAccesses uint64
	// PrefetchL2 counts streamer prefetches that fill L2 (data moves
	// L3 -> L2, energy ΔE_L3 under the paper's assumption).
	PrefetchL2 uint64
	// PrefetchL3 counts streamer prefetches that fill only L3 (data
	// moves DRAM -> L3, energy ΔE_mem).
	PrefetchL3 uint64

	// Stores is the number of store instructions issued.
	Stores uint64
	// StoreL1DHits is the paper's N_Reg2L1D: stores that complete in the
	// L1D cache under the write-back policy (99.86% of stores in the
	// paper's experiments).
	StoreL1DHits   uint64
	StoreL1DMisses uint64

	// TCMLoads and TCMStores count accesses satisfied by a
	// tightly-coupled-memory window; they bypass the cache hierarchy.
	TCMLoads  uint64
	TCMStores uint64

	// StallCycles is the paper's N_stall: cycles the core was stalled
	// waiting for data.
	StallCycles uint64
	// IssueSlots accumulates fractional busy-cycle contributions in units
	// of 1/issueLCM cycles; BusyCycles derives from it.
	IssueSlots uint64

	// Instruction mix. Instructions = Loads + Stores + AddOps + NopOps +
	// OtherOps.
	AddOps   uint64
	NopOps   uint64
	OtherOps uint64

	// PageCrossings counts 4KB-page boundary crossings of the demand
	// access stream (a locality diagnostic; it carries no energy in the
	// default profiles).
	PageCrossings uint64

	// UncountedL1DPf tallies L1D next-line prefetches. The paper notes
	// the i7-4790's L1D prefetchers raise no PMU event; accordingly the
	// energy ground truth charges this field and the Eq. 1 solver never
	// sees it.
	UncountedL1DPf uint64
}

// issueLCM converts fractional issue-slot accounting to integers: widths of
// 1, 2 and 4 instructions per cycle all divide 4.
const issueLCM = 4

// Instructions returns the total retired instruction count.
func (c Counters) Instructions() uint64 {
	return c.Loads + c.Stores + c.AddOps + c.NopOps + c.OtherOps
}

// MemorySide returns c less everything Exec put into it: the non-memory
// instruction counts and the issue slots they occupied. Exec is the only
// source of AddOps, NopOps and OtherOps and moves nothing else but those
// slots, so the loads, stores and prefetches of the same window account for
// exactly what is left.
func (c Counters) MemorySide() Counters {
	c.IssueSlots -= execSlots(c.AddOps, InstrAdd) + execSlots(c.NopOps, InstrNop) + execSlots(c.OtherOps, InstrOther)
	c.AddOps, c.NopOps, c.OtherOps = 0, 0, 0
	return c
}

// BusyCycles returns the non-stalled cycle count implied by issue-slot
// accounting.
func (c Counters) BusyCycles() uint64 {
	return (c.IssueSlots + issueLCM - 1) / issueLCM
}

// Cycles returns total core cycles (busy + stalled).
func (c Counters) Cycles() uint64 {
	return c.BusyCycles() + c.StallCycles
}

// IPC returns instructions per cycle, the metric of Table 1.
func (c Counters) IPC() float64 {
	cy := c.Cycles()
	if cy == 0 {
		return 0
	}
	return float64(c.Instructions()) / float64(cy)
}

// L1DMissRate returns the L1D demand-load miss ratio.
func (c Counters) L1DMissRate() float64 { return missRate(c.L1DMisses, c.L1DAccesses) }

// L2MissRate returns the L2 demand miss ratio.
func (c Counters) L2MissRate() float64 { return missRate(c.L2Misses, c.L2Accesses) }

// L3MissRate returns the L3 demand miss ratio.
func (c Counters) L3MissRate() float64 { return missRate(c.L3Misses, c.L3Accesses) }

// StoreL1DHitRate returns the share of stores completing in L1D.
func (c Counters) StoreL1DHitRate() float64 {
	if c.Stores == 0 {
		return 0
	}
	return float64(c.StoreL1DHits) / float64(c.Stores)
}

func missRate(miss, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(miss) / float64(total)
}

// monotonicSub returns cur - prev clamped at zero. Counter snapshots are
// monotonic only per hierarchy instance: ResetCounters rewinds every field,
// and a stale base snapshot then makes the raw subtraction wrap to ~2^64 —
// the same underflow class as the stallgov.Tick bug. A zero delta for the window
// spanning the reset is the honest reading.
func monotonicSub(cur, prev uint64) uint64 {
	if cur < prev {
		return 0
	}
	return cur - prev
}

// Sub returns c - base, for delta readings around a measured region. Each
// field clamps at zero so a base snapshot taken before a counter reset
// yields empty deltas instead of wrapped ones.
func (c Counters) Sub(base Counters) Counters {
	return Counters{
		Loads:          monotonicSub(c.Loads, base.Loads),
		L1DAccesses:    monotonicSub(c.L1DAccesses, base.L1DAccesses),
		L1DHits:        monotonicSub(c.L1DHits, base.L1DHits),
		L1DMisses:      monotonicSub(c.L1DMisses, base.L1DMisses),
		L2Accesses:     monotonicSub(c.L2Accesses, base.L2Accesses),
		L2Hits:         monotonicSub(c.L2Hits, base.L2Hits),
		L2Misses:       monotonicSub(c.L2Misses, base.L2Misses),
		L3Accesses:     monotonicSub(c.L3Accesses, base.L3Accesses),
		L3Hits:         monotonicSub(c.L3Hits, base.L3Hits),
		L3Misses:       monotonicSub(c.L3Misses, base.L3Misses),
		MemAccesses:    monotonicSub(c.MemAccesses, base.MemAccesses),
		PrefetchL2:     monotonicSub(c.PrefetchL2, base.PrefetchL2),
		PrefetchL3:     monotonicSub(c.PrefetchL3, base.PrefetchL3),
		Stores:         monotonicSub(c.Stores, base.Stores),
		StoreL1DHits:   monotonicSub(c.StoreL1DHits, base.StoreL1DHits),
		StoreL1DMisses: monotonicSub(c.StoreL1DMisses, base.StoreL1DMisses),
		TCMLoads:       monotonicSub(c.TCMLoads, base.TCMLoads),
		TCMStores:      monotonicSub(c.TCMStores, base.TCMStores),
		StallCycles:    monotonicSub(c.StallCycles, base.StallCycles),
		IssueSlots:     monotonicSub(c.IssueSlots, base.IssueSlots),
		AddOps:         monotonicSub(c.AddOps, base.AddOps),
		NopOps:         monotonicSub(c.NopOps, base.NopOps),
		OtherOps:       monotonicSub(c.OtherOps, base.OtherOps),
		PageCrossings:  monotonicSub(c.PageCrossings, base.PageCrossings),
		UncountedL1DPf: monotonicSub(c.UncountedL1DPf, base.UncountedL1DPf),
	}
}

// Add returns c + o, for accumulating per-region deltas (per-operator energy
// attribution sums boundary-snapshot deltas per plan node).
func (c Counters) Add(o Counters) Counters {
	return Counters{
		Loads:          c.Loads + o.Loads,
		L1DAccesses:    c.L1DAccesses + o.L1DAccesses,
		L1DHits:        c.L1DHits + o.L1DHits,
		L1DMisses:      c.L1DMisses + o.L1DMisses,
		L2Accesses:     c.L2Accesses + o.L2Accesses,
		L2Hits:         c.L2Hits + o.L2Hits,
		L2Misses:       c.L2Misses + o.L2Misses,
		L3Accesses:     c.L3Accesses + o.L3Accesses,
		L3Hits:         c.L3Hits + o.L3Hits,
		L3Misses:       c.L3Misses + o.L3Misses,
		MemAccesses:    c.MemAccesses + o.MemAccesses,
		PrefetchL2:     c.PrefetchL2 + o.PrefetchL2,
		PrefetchL3:     c.PrefetchL3 + o.PrefetchL3,
		Stores:         c.Stores + o.Stores,
		StoreL1DHits:   c.StoreL1DHits + o.StoreL1DHits,
		StoreL1DMisses: c.StoreL1DMisses + o.StoreL1DMisses,
		TCMLoads:       c.TCMLoads + o.TCMLoads,
		TCMStores:      c.TCMStores + o.TCMStores,
		StallCycles:    c.StallCycles + o.StallCycles,
		IssueSlots:     c.IssueSlots + o.IssueSlots,
		AddOps:         c.AddOps + o.AddOps,
		NopOps:         c.NopOps + o.NopOps,
		OtherOps:       c.OtherOps + o.OtherOps,
		PageCrossings:  c.PageCrossings + o.PageCrossings,
		UncountedL1DPf: c.UncountedL1DPf + o.UncountedL1DPf,
	}
}
