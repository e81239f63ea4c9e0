package memsim

// Level identifies where in the hierarchy a data access was satisfied.
type Level int

// Hierarchy levels, ordered from closest to the core outward.
const (
	LevelTCM Level = iota
	LevelL1D
	LevelL2
	LevelL3
	LevelMem
	numLevels
)

// String returns the conventional name of the level.
func (l Level) String() string {
	switch l {
	case LevelTCM:
		return "TCM"
	case LevelL1D:
		return "L1D"
	case LevelL2:
		return "L2"
	case LevelL3:
		return "L3"
	case LevelMem:
		return "mem"
	default:
		return "unknown"
	}
}

// InstrKind classifies non-memory instructions fed to Exec.
type InstrKind int

// Instruction kinds. Add and Nop exist because the paper's verification
// methodology measures ΔE_add and ΔE_nop with dedicated micro-benchmarks;
// Other stands for everything else a real workload executes (decode,
// branches, address generation) and is never modelled by the solver — it
// surfaces as the E_other residual in breakdowns.
const (
	InstrAdd InstrKind = iota
	InstrNop
	InstrOther
)

// issue widths (instructions per cycle) per instruction class, tuned so the
// micro-benchmark IPCs match Table 1 of the paper on the i7-4790 profile:
// loads dual-issue (B_L1D_array IPC 2.02), stores single-issue (B_Reg2L1D
// IPC 1.01), adds dual-issue (B_add 2.01), nops quad-issue (B_nop 3.99).
const (
	loadIssueWidth  = 2
	storeIssueWidth = 1
	addIssueWidth   = 2
	nopIssueWidth   = 4
	otherIssueWidth = 2
)

// AccessKind classifies events delivered to a Recorder.
type AccessKind uint8

// Recorded access kinds.
const (
	AccessLoadDep AccessKind = iota
	AccessLoadInd
	AccessStore
	AccessExecAdd
	AccessExecNop
	AccessExecOther
	AccessLoadRepeat
	AccessStoreRepeat
)

// Recorder receives every access the hierarchy executes (addr is zero for
// Exec events; n is 1 for single accesses). Used by the trace package for
// capture-and-replay architecture sweeps.
type Recorder func(kind AccessKind, addr uint64, n uint64)

// Hierarchy simulates the memory subsystem and accumulates PMU counters.
// It is not safe for concurrent use; each simulated core owns one Hierarchy.
type Hierarchy struct {
	cfg Config
	l1d *cache
	l2  *cache
	l3  *cache
	ctr Counters

	pf       *prefetcher
	lastPage uint64
	havePage bool
	rec      Recorder
}

// SetRecorder installs (or removes, with nil) an access recorder.
func (h *Hierarchy) SetRecorder(r Recorder) { h.rec = r }

// Recorder returns the installed access recorder, nil when there is none.
func (h *Hierarchy) Recorder() Recorder { return h.rec }

// NewLike returns a fresh, cold hierarchy with the same configuration: the
// cache geometry, prefetch setting, TCM window and (frequency-scaled) memory
// latency are replicated, while caches start empty and PMU counters at zero.
// Per-worker simulated machines are built this way: N hierarchies share one
// configuration but own private counter and cache state, so concurrent
// workers never touch each other's PMU. The recorder is not carried over.
func (h *Hierarchy) NewLike() *Hierarchy { return New(h.cfg) }

// New builds a hierarchy from the configuration.
func New(cfg Config) *Hierarchy {
	h := &Hierarchy{
		cfg: cfg,
		l1d: newCache(cfg.L1D),
		l2:  newCache(cfg.L2),
		l3:  newCache(cfg.L3),
	}
	if cfg.Prefetch.Enabled && h.l2 != nil {
		h.pf = newPrefetcher(cfg.Prefetch)
	}
	if cfg.IndependentMLP <= 0 {
		h.cfg.IndependentMLP = 1
	}
	return h
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Counters returns a snapshot of the PMU counters.
func (h *Hierarchy) Counters() Counters { return h.ctr }

// ResetCaches empties cache contents and the prefetcher stream table, like
// flushing the caches between benchmark runs. The PMU counters keep
// counting: no method lowers one, so a delta between two snapshots of one
// hierarchy never wraps. A cold machine with zeroed counters is a new one
// (cpusim.Machine.NewLike).
func (h *Hierarchy) ResetCaches() {
	if h.l1d != nil {
		h.l1d.reset()
	}
	if h.l2 != nil {
		h.l2.reset()
	}
	if h.l3 != nil {
		h.l3.reset()
	}
	if h.pf != nil {
		h.pf.reset()
	}
	h.havePage = false
}

// SetFrequencyHz rescales the DRAM latency cycle count for a new core
// frequency: cache latencies are fixed cycle counts in the clock domain,
// but DRAM latency is constant in wall time, so lower frequencies see
// proportionally fewer stall cycles per memory access — the effect behind
// the paper's Section 5 finding that memory-bound work barely slows down
// at low P-states while its (CPU-side) stall energy collapses.
func (h *Hierarchy) SetFrequencyHz(f float64) {
	if h.cfg.MemLatencyNs <= 0 || f <= 0 {
		return
	}
	cycles := int(h.cfg.MemLatencyNs*f/1e9 + 0.5)
	if cycles < h.cfg.L1D.LatencyCycles+1 {
		cycles = h.cfg.L1D.LatencyCycles + 1
	}
	if h.cfg.L3.Present() && cycles < h.cfg.L3.LatencyCycles+1 {
		cycles = h.cfg.L3.LatencyCycles + 1
	}
	h.cfg.MemLatencyCycles = cycles
}

// SetPrefetchEnabled flips the hardware prefetcher at run time, mirroring
// the MSR writes the paper performs (off for micro-benchmarks, on for
// database workloads).
func (h *Hierarchy) SetPrefetchEnabled(on bool) {
	h.cfg.Prefetch.Enabled = on
	if on && h.pf == nil && h.l2 != nil {
		cfg := h.cfg.Prefetch
		if cfg.TrainLines == 0 {
			cfg = I7_4790().Prefetch
			cfg.Enabled = true
			h.cfg.Prefetch = cfg
		}
		h.pf = newPrefetcher(cfg)
	}
}

// InstallTCM configures a TCM window. Addresses inside the window bypass the
// caches from then on.
func (h *Hierarchy) InstallTCM(cfg *TCMConfig) { h.cfg.TCM = cfg }

// Load simulates one load instruction that touches the cache line containing
// addr. dependent marks pointer-chasing loads whose address was produced by
// the previous load (list traversal): those expose the full hit latency as
// stall cycles. Independent loads (array traversal) are issue-limited; only
// the un-hidable portion of miss latency stalls, divided across the
// configured memory-level parallelism.
//
// It returns the level that supplied the data.
func (h *Hierarchy) Load(addr uint64, dependent bool) Level {
	if h.rec != nil {
		if dependent {
			h.rec(AccessLoadDep, addr, 1)
		} else {
			h.rec(AccessLoadInd, addr, 1)
		}
	}
	if dependent {
		// A dependent load cannot pair with its successor: it occupies
		// a full issue cycle (Figure 3: 1 busy + latency-1 stalled).
		h.ctr.IssueSlots += issueLCM
	} else {
		h.ctr.IssueSlots += issueLCM / loadIssueWidth
	}
	if h.cfg.TCM.InData(addr) {
		h.ctr.TCMLoads++
		h.ctr.Loads++
		if dependent {
			h.ctr.StallCycles += uint64(h.tcmLatency() - 1)
		}
		return LevelTCM
	}
	h.ctr.Loads++
	h.notePage(addr)
	line := addr / LineSize
	level := h.demandFill(line)
	h.stall(level, dependent)
	if h.cfg.Prefetch.Enabled {
		if h.pf != nil {
			h.pf.observe(h, line)
		}
		if h.cfg.Prefetch.L1DNextLine {
			h.l1dNextLine(line)
		}
	}
	return level
}

// l1dNextLine models the uncountable L1D prefetcher: on a demand access it
// pulls the next line into L1D if a lower level already holds it. No PMU
// counter moves — only the hidden uncountedL1DPf tally, which the energy
// ground truth charges but the Eq. 1 solver can never see.
func (h *Hierarchy) l1dNextLine(line uint64) {
	next := line + 1
	if h.l1d.contains(next) {
		return
	}
	if (h.l2 != nil && h.l2.contains(next)) || (h.l3 != nil && h.l3.contains(next)) {
		h.l1d.insert(next)
		h.ctr.UncountedL1DPf++
	}
}

// UncountedL1DPrefetches returns the hidden L1D-prefetch tally (test and
// energy-ground-truth use only; it is not one of the N_m terms).
func (h *Hierarchy) UncountedL1DPrefetches() uint64 { return h.ctr.UncountedL1DPf }

// Store simulates one store instruction to the line containing addr. Under
// the write-back policy a store that hits L1D (or TCM) completes there; a
// miss first fetches the line (write-allocate) and then completes.
func (h *Hierarchy) Store(addr uint64) Level {
	if h.rec != nil {
		h.rec(AccessStore, addr, 1)
	}
	h.ctr.IssueSlots += issueLCM / storeIssueWidth
	if h.cfg.TCM.InData(addr) {
		h.ctr.TCMStores++
		h.ctr.Stores++
		return LevelTCM
	}
	h.ctr.Stores++
	h.notePage(addr)
	line := addr / LineSize
	if h.l1d.access(line, true) {
		h.ctr.StoreL1DHits++
		return LevelL1D
	}
	// Write-allocate: the miss fetches the line through the hierarchy
	// (those transfers consume the corresponding load energies and are
	// counted at L2/L3/mem, but not as N_L1D, which is a load-only
	// event) and every level keeps a copy, DirectFill or not; then the
	// store completes in L1D.
	h.ctr.StoreL1DMisses++
	level := h.fetch(line, true)
	h.stall(level, false)
	return level
}

// LoadRange issues one independent load per cache line covered by
// [addr, addr+size), modelling a sequential scan over a region.
func (h *Hierarchy) LoadRange(addr, size uint64) {
	if size == 0 {
		return
	}
	first := addr / LineSize
	last := (addr + size - 1) / LineSize
	for line := first; line <= last; line++ {
		h.Load(line*LineSize, false)
	}
}

// StoreRange issues one store per cache line covered by [addr, addr+size).
func (h *Hierarchy) StoreRange(addr, size uint64) {
	if size == 0 {
		return
	}
	first := addr / LineSize
	last := (addr + size - 1) / LineSize
	for line := first; line <= last; line++ {
		h.Store(line * LineSize)
	}
}

// LoadRepeat simulates n independent loads of the same (hot) cache line in
// one call: at most the first access can miss; the remainder hit L1D and
// pipeline without stalls. Engines use it for the per-tuple storm of loads
// against interpreter state, tuple slots and cursors — the hot structures
// that the paper finds dominate L1D traffic (70% of SQLite's L1D loads come
// from sqlite3VdbeExec, Section 4.2).
func (h *Hierarchy) LoadRepeat(addr uint64, n uint64) {
	if n == 0 {
		return
	}
	h.Load(addr, false) // records AccessLoadInd for the head
	rest := n - 1
	if rest == 0 {
		return
	}
	if h.rec != nil {
		h.rec(AccessLoadRepeat, addr, rest)
	}
	h.ctr.IssueSlots += rest * (issueLCM / loadIssueWidth)
	if h.cfg.TCM.InData(addr) {
		h.ctr.TCMLoads += rest
		h.ctr.Loads += rest
		return
	}
	h.ctr.Loads += rest
	h.ctr.L1DAccesses += rest
	h.ctr.L1DHits += rest
}

// StoreRepeat simulates n stores to the same hot line: after the first
// write-allocate the line is L1D-resident and every store completes there.
func (h *Hierarchy) StoreRepeat(addr uint64, n uint64) {
	if n == 0 {
		return
	}
	h.Store(addr) // records AccessStore for the head
	rest := n - 1
	if rest == 0 {
		return
	}
	if h.rec != nil {
		h.rec(AccessStoreRepeat, addr, rest)
	}
	h.ctr.IssueSlots += rest * (issueLCM / storeIssueWidth)
	if h.cfg.TCM.InData(addr) {
		h.ctr.TCMStores += rest
		h.ctr.Stores += rest
		return
	}
	h.ctr.Stores += rest
	h.ctr.StoreL1DHits += rest
}

// Exec simulates n non-memory instructions of the given kind.
func (h *Hierarchy) Exec(n uint64, kind InstrKind) {
	if h.rec != nil {
		switch kind {
		case InstrAdd:
			h.rec(AccessExecAdd, 0, n)
		case InstrNop:
			h.rec(AccessExecNop, 0, n)
		default:
			h.rec(AccessExecOther, 0, n)
		}
	}
	switch kind {
	case InstrAdd:
		h.ctr.AddOps += n
	case InstrNop:
		h.ctr.NopOps += n
	default:
		h.ctr.OtherOps += n
	}
	h.ctr.IssueSlots += execSlots(n, kind)
}

// execSlots is the issue slots n non-memory instructions of a kind occupy.
func execSlots(n uint64, kind InstrKind) uint64 {
	switch kind {
	case InstrAdd:
		return n * (issueLCM / addIssueWidth)
	case InstrNop:
		return n * (issueLCM / nopIssueWidth)
	default:
		return n * (issueLCM / otherIssueWidth)
	}
}

// demandFill walks the hierarchy for a demand access to line, applying the
// step-by-step replication strategy the paper illustrates in Figure 2: a hit
// at level m copies the line into every level above m on the way back. Each
// level is visited once: a level that will receive the line places it when
// it finds it missing (cache.access), which is exact because a cache's LRU
// order depends only on the sequence of its own accesses, and no other
// access reaches a level between its miss and its fill.
func (h *Hierarchy) demandFill(line uint64) Level {
	h.ctr.L1DAccesses++
	if h.l1d.access(line, true) {
		h.ctr.L1DHits++
		return LevelL1D
	}
	h.ctr.L1DMisses++
	// Under the DirectFill ablation a deep hit fills only L1D.
	return h.fetch(line, !h.cfg.DirectFill)
}

// fetch brings a line that missed L1D (and was placed there by the probe)
// from the first level below that holds it, counting the transfers. With
// replicate set, every level it missed in keeps a copy.
func (h *Hierarchy) fetch(line uint64, replicate bool) Level {
	if h.l2 == nil {
		// No L2: the L1D miss goes straight to DRAM (ARM profile).
		h.ctr.MemAccesses++
		return LevelMem
	}
	h.ctr.L2Accesses++
	if h.l2.access(line, replicate) {
		h.ctr.L2Hits++
		return LevelL2
	}
	h.ctr.L2Misses++
	if h.l3 == nil {
		h.ctr.MemAccesses++
		return LevelMem
	}
	h.ctr.L3Accesses++
	if h.l3.access(line, replicate) {
		h.ctr.L3Hits++
		return LevelL3
	}
	h.ctr.L3Misses++
	h.ctr.MemAccesses++
	return LevelMem
}

// stall charges stall cycles for a load satisfied at level.
func (h *Hierarchy) stall(level Level, dependent bool) {
	lat := h.latency(level)
	if dependent {
		// Figure 3: the pipeline breaks; one busy (issue) cycle plus
		// latency-1 stall cycles.
		if lat > 1 {
			h.ctr.StallCycles += uint64(lat - 1)
		}
		return
	}
	// Independent loads: L1D hits are fully hidden by dual issue; deeper
	// hits expose the latency beyond L1D, amortized over the achievable
	// memory-level parallelism.
	if level == LevelL1D || level == LevelTCM {
		return
	}
	exposed := lat - h.cfg.L1D.LatencyCycles
	if exposed <= 0 {
		return
	}
	h.ctr.StallCycles += uint64(exposed / h.cfg.IndependentMLP)
}

func (h *Hierarchy) latency(level Level) int {
	switch level {
	case LevelTCM:
		return h.tcmLatency()
	case LevelL1D:
		return h.cfg.L1D.LatencyCycles
	case LevelL2:
		return h.cfg.L2.LatencyCycles
	case LevelL3:
		return h.cfg.L3.LatencyCycles
	default:
		return h.cfg.MemLatencyCycles
	}
}

func (h *Hierarchy) tcmLatency() int {
	if h.cfg.TCM != nil && h.cfg.TCM.LatencyCycles > 0 {
		return h.cfg.TCM.LatencyCycles
	}
	return h.cfg.L1D.LatencyCycles
}

func (h *Hierarchy) notePage(addr uint64) {
	page := addr / PageSize
	if !h.havePage || page != h.lastPage {
		h.ctr.PageCrossings++
		h.lastPage = page
		h.havePage = true
	}
}
