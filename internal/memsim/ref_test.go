package memsim

// The differential oracle's reference: the three-slice cache, the streamer
// and the miss-then-fill hierarchy walk exactly as they stood before the
// packed layout and the fused scan replaced them, renamed ref* and cut down
// to the entry points oracle_test.go drives. It is kept to be compared
// against, not to be improved: a counter the product and this file disagree
// on is a bug in the product.

// cache is a set-associative cache with true-LRU replacement. Only tags are
// tracked: the simulator models placement and movement, not contents.
type refCache struct {
	sets     int
	ways     int
	setMask  uint64
	tags     []uint64 // sets*ways entries; tag 0 is represented via valid bits
	valid    []bool
	lastUsed []uint64 // LRU timestamps
	tick     uint64
	latency  int
}

func newRefCache(cfg CacheConfig) *refCache {
	if !cfg.Present() {
		return nil
	}
	sets := cfg.Sets()
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("memsim: refCache set count must be a positive power of two")
	}
	n := sets * cfg.Ways
	return &refCache{
		sets:     sets,
		ways:     cfg.Ways,
		setMask:  uint64(sets - 1),
		tags:     make([]uint64, n),
		valid:    make([]bool, n),
		lastUsed: make([]uint64, n),
		latency:  cfg.LatencyCycles,
	}
}

// lookup probes for the line and refreshes LRU state on a hit.
func (c *refCache) lookup(line uint64) bool {
	set := int(line&c.setMask) * c.ways
	for i := set; i < set+c.ways; i++ {
		if c.valid[i] && c.tags[i] == line {
			c.tick++
			c.lastUsed[i] = c.tick
			return true
		}
	}
	return false
}

// contains probes without disturbing LRU state (used by the prefetcher).
func (c *refCache) contains(line uint64) bool {
	set := int(line&c.setMask) * c.ways
	for i := set; i < set+c.ways; i++ {
		if c.valid[i] && c.tags[i] == line {
			return true
		}
	}
	return false
}

// fill inserts the line, evicting the LRU way if the set is full. It returns
// the evicted line and whether an eviction happened.
func (c *refCache) fill(line uint64) (evicted uint64, didEvict bool) {
	set := int(line&c.setMask) * c.ways
	victim := set
	for i := set; i < set+c.ways; i++ {
		if !c.valid[i] {
			victim = i
			didEvict = false
			goto place
		}
		if c.lastUsed[i] < c.lastUsed[victim] {
			victim = i
		}
	}
	evicted = c.tags[victim]
	didEvict = true
place:
	c.tick++
	c.tags[victim] = line
	c.valid[victim] = true
	c.lastUsed[victim] = c.tick
	return evicted, didEvict
}

// reset empties the cache.
func (c *refCache) reset() {
	for i := range c.valid {
		c.valid[i] = false
	}
	c.tick = 0
}

// prefetcher models the L2 streamer hardware prefetcher of the i7-4790. It
// tracks per-4KB-page access streams; once a stream has made TrainLines
// sequential line accesses it prefetches Degree lines ahead, filling the
// first L2Share of them into L2 (the paper's "L2 prefetching", data moving
// L3 -> L2) and the remainder into L3 only ("L3 prefetching", data moving
// DRAM -> L3). Prefetches never cross a page boundary, matching the real
// streamer's behaviour.
type refPrefetcher struct {
	cfg     PrefetchConfig
	streams []refStream
	clock   uint64
}

type refStream struct {
	page     uint64
	lastLine uint64
	runLen   int
	lastUsed uint64
	valid    bool
}

func newRefPrefetcher(cfg PrefetchConfig) *refPrefetcher {
	if cfg.Streams <= 0 {
		cfg.Streams = 16
	}
	if cfg.TrainLines <= 0 {
		cfg.TrainLines = 2
	}
	if cfg.Degree <= 0 {
		cfg.Degree = 4
	}
	if cfg.L2Share < 0 || cfg.L2Share > cfg.Degree {
		cfg.L2Share = cfg.Degree / 2
	}
	return &refPrefetcher{cfg: cfg, streams: make([]refStream, cfg.Streams)}
}

func (p *refPrefetcher) reset() {
	for i := range p.streams {
		p.streams[i] = refStream{}
	}
	p.clock = 0
}

const refLinesPerPage = PageSize / LineSize

// observe feeds one demand line access into the stream table and issues
// prefetches into the hierarchy when a stream is trained.
func (p *refPrefetcher) observe(h *refHierarchy, line uint64) {
	p.clock++
	page := line / refLinesPerPage
	s := p.find(page)
	if s == nil {
		s = p.allocate(page)
		s.lastLine = line
		s.runLen = 1
		s.lastUsed = p.clock
		return
	}
	s.lastUsed = p.clock
	switch {
	case line == s.lastLine+1:
		s.runLen++
	case line == s.lastLine:
		// Repeated access to the same line keeps the stream alive
		// without advancing it.
		return
	default:
		s.runLen = 1
	}
	s.lastLine = line
	if s.runLen < p.cfg.TrainLines {
		return
	}
	p.issue(h, page, line)
}

// issue prefetches Degree lines ahead of line, staying within the page.
func (p *refPrefetcher) issue(h *refHierarchy, page, line uint64) {
	pageEnd := (page + 1) * refLinesPerPage
	for i := 1; i <= p.cfg.Degree; i++ {
		target := line + uint64(i)
		if target >= pageEnd {
			return
		}
		intoL2 := i <= p.cfg.L2Share
		p.fetchLine(h, target, intoL2)
	}
}

// fetchLine brings one prefetched line into L2 (and L3, keeping inclusion)
// or into L3 only. Lines already present at the target level cost nothing:
// the streamer checks before issuing.
func (p *refPrefetcher) fetchLine(h *refHierarchy, line uint64, intoL2 bool) {
	if intoL2 {
		if h.l2.contains(line) {
			return
		}
		if h.l3 != nil && !h.l3.contains(line) {
			// The line must first be brought from DRAM into L3.
			h.l3.fill(line)
			h.ctr.PrefetchL3++
		}
		h.l2.fill(line)
		h.ctr.PrefetchL2++
		return
	}
	if h.l3 == nil {
		// No L3: degrade to an L2 prefetch from DRAM.
		if !h.l2.contains(line) {
			h.l2.fill(line)
			h.ctr.PrefetchL2++
		}
		return
	}
	if !h.l3.contains(line) {
		h.l3.fill(line)
		h.ctr.PrefetchL3++
	}
}

func (p *refPrefetcher) find(page uint64) *refStream {
	for i := range p.streams {
		if p.streams[i].valid && p.streams[i].page == page {
			return &p.streams[i]
		}
	}
	return nil
}

func (p *refPrefetcher) allocate(page uint64) *refStream {
	victim := 0
	for i := range p.streams {
		if !p.streams[i].valid {
			victim = i
			break
		}
		if p.streams[i].lastUsed < p.streams[victim].lastUsed {
			victim = i
		}
	}
	p.streams[victim] = refStream{page: page, valid: true}
	return &p.streams[victim]
}

// Hierarchy simulates the memory subsystem and accumulates PMU counters.
// It is not safe for concurrent use; each simulated core owns one Hierarchy.
type refHierarchy struct {
	cfg Config
	l1d *refCache
	l2  *refCache
	l3  *refCache
	ctr Counters

	pf       *refPrefetcher
	lastPage uint64
	havePage bool
}

// New builds a hierarchy from the configuration.
func newRef(cfg Config) *refHierarchy {
	h := &refHierarchy{
		cfg: cfg,
		l1d: newRefCache(cfg.L1D),
		l2:  newRefCache(cfg.L2),
		l3:  newRefCache(cfg.L3),
	}
	if cfg.Prefetch.Enabled && h.l2 != nil {
		h.pf = newRefPrefetcher(cfg.Prefetch)
	}
	if cfg.IndependentMLP <= 0 {
		h.cfg.IndependentMLP = 1
	}
	return h
}

// Counters returns a snapshot of the PMU counters.
func (h *refHierarchy) Counters() Counters { return h.ctr }

// ResetCaches empties cache contents and the prefetcher stream table while
// leaving the (monotonic) PMU counters untouched, like flushing the caches
// between benchmark runs.
func (h *refHierarchy) ResetCaches() {
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

// SetPrefetchEnabled flips the hardware prefetcher at run time, mirroring
// the MSR writes the paper performs (off for micro-benchmarks, on for
// database workloads).
func (h *refHierarchy) SetPrefetchEnabled(on bool) {
	h.cfg.Prefetch.Enabled = on
	if on && h.pf == nil && h.l2 != nil {
		cfg := h.cfg.Prefetch
		if cfg.TrainLines == 0 {
			cfg = I7_4790().Prefetch
			cfg.Enabled = true
			h.cfg.Prefetch = cfg
		}
		h.pf = newRefPrefetcher(cfg)
	}
}

// InstallTCM configures a TCM window. Addresses inside the window bypass the
// caches from then on.
func (h *refHierarchy) InstallTCM(cfg *TCMConfig) { h.cfg.TCM = cfg }

// Load simulates one load instruction that touches the cache line containing
// addr. dependent marks pointer-chasing loads whose address was produced by
// the previous load (list traversal): those expose the full hit latency as
// stall cycles. Independent loads (array traversal) are issue-limited; only
// the un-hidable portion of miss latency stalls, divided across the
// configured memory-level parallelism.
//
// It returns the level that supplied the data.
func (h *refHierarchy) Load(addr uint64, dependent bool) Level {
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
func (h *refHierarchy) l1dNextLine(line uint64) {
	next := line + 1
	if h.l1d.contains(next) {
		return
	}
	inL2 := h.l2 != nil && h.l2.contains(next)
	inL3 := h.l3 != nil && h.l3.contains(next)
	if inL2 || inL3 {
		h.l1d.fill(next)
		h.ctr.UncountedL1DPf++
	}
}

// Store simulates one store instruction to the line containing addr. Under
// the write-back policy a store that hits L1D (or TCM) completes there; a
// miss first fetches the line (write-allocate) and then completes.
func (h *refHierarchy) Store(addr uint64) Level {
	h.ctr.IssueSlots += issueLCM / storeIssueWidth
	if h.cfg.TCM.InData(addr) {
		h.ctr.TCMStores++
		h.ctr.Stores++
		return LevelTCM
	}
	h.ctr.Stores++
	h.notePage(addr)
	line := addr / LineSize
	if h.l1d != nil && h.l1d.lookup(line) {
		h.ctr.StoreL1DHits++
		return LevelL1D
	}
	// Write-allocate: the miss fetches the line through the hierarchy
	// (those transfers consume the corresponding load energies and are
	// counted at L2/L3/mem, but not as N_L1D, which is a load-only
	// event), then the store completes in L1D.
	h.ctr.StoreL1DMisses++
	level := h.storeFill(line)
	h.stall(level, false)
	return level
}

// LoadRepeat simulates n independent loads of the same (hot) cache line in
// one call: at most the first access can miss; the remainder hit L1D and
// pipeline without stalls. Engines use it for the per-tuple storm of loads
// against interpreter state, tuple slots and cursors — the hot structures
// that the paper finds dominate L1D traffic (70% of SQLite's L1D loads come
// from sqlite3VdbeExec, Section 4.2).
func (h *refHierarchy) LoadRepeat(addr uint64, n uint64) {
	if n == 0 {
		return
	}
	first := h.Load(addr, false) // records AccessLoadInd for the head
	rest := n - 1
	if rest == 0 {
		return
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
	_ = first
}

// StoreRepeat simulates n stores to the same hot line: after the first
// write-allocate the line is L1D-resident and every store completes there.
func (h *refHierarchy) StoreRepeat(addr uint64, n uint64) {
	if n == 0 {
		return
	}
	h.Store(addr) // records AccessStore for the head
	rest := n - 1
	if rest == 0 {
		return
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

// demandFill walks the hierarchy for a demand access to line, applying the
// step-by-step replication strategy the paper illustrates in Figure 2: a hit
// at level m copies the line into every level above m on the way back.
func (h *refHierarchy) demandFill(line uint64) Level {
	h.ctr.L1DAccesses++
	if h.l1d.lookup(line) {
		h.ctr.L1DHits++
		return LevelL1D
	}
	h.ctr.L1DMisses++
	if h.l2 == nil {
		// No L2: the L1D miss goes straight to DRAM (ARM profile).
		h.ctr.MemAccesses++
		h.l1d.fill(line)
		return LevelMem
	}
	h.ctr.L2Accesses++
	if h.l2.lookup(line) {
		h.ctr.L2Hits++
		h.l1d.fill(line)
		return LevelL2
	}
	h.ctr.L2Misses++
	if h.l3 == nil {
		h.ctr.MemAccesses++
		h.fillUp(line, LevelMem)
		return LevelMem
	}
	h.ctr.L3Accesses++
	if h.l3.lookup(line) {
		h.ctr.L3Hits++
		h.fillUp(line, LevelL3)
		return LevelL3
	}
	h.ctr.L3Misses++
	h.ctr.MemAccesses++
	h.fillUp(line, LevelMem)
	return LevelMem
}

// fillUp places a line fetched from the given level into the caches: every
// level above it under step-by-step replication (Figure 2), or only L1D
// under the DirectFill ablation.
func (h *refHierarchy) fillUp(line uint64, from Level) {
	if h.cfg.DirectFill {
		h.l1d.fill(line)
		return
	}
	if from == LevelMem && h.l3 != nil {
		h.l3.fill(line)
	}
	if h.l2 != nil {
		h.l2.fill(line)
	}
	h.l1d.fill(line)
}

// storeFill brings a line in on a store miss (write-allocate). It is the
// same walk as demandFill except the L1D load event is not counted: N_L1D is
// a load-only event in the paper's model, while the deeper transfers really
// do move data and are charged normally.
func (h *refHierarchy) storeFill(line uint64) Level {
	if h.l2 == nil {
		h.ctr.MemAccesses++
		h.l1d.fill(line)
		return LevelMem
	}
	h.ctr.L2Accesses++
	if h.l2.lookup(line) {
		h.ctr.L2Hits++
		h.l1d.fill(line)
		return LevelL2
	}
	h.ctr.L2Misses++
	if h.l3 == nil {
		h.ctr.MemAccesses++
		h.l2.fill(line)
		h.l1d.fill(line)
		return LevelMem
	}
	h.ctr.L3Accesses++
	if h.l3.lookup(line) {
		h.ctr.L3Hits++
		h.l2.fill(line)
		h.l1d.fill(line)
		return LevelL3
	}
	h.ctr.L3Misses++
	h.ctr.MemAccesses++
	h.l3.fill(line)
	h.l2.fill(line)
	h.l1d.fill(line)
	return LevelMem
}

// stall charges stall cycles for a load satisfied at level.
func (h *refHierarchy) stall(level Level, dependent bool) {
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

func (h *refHierarchy) latency(level Level) int {
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

func (h *refHierarchy) tcmLatency() int {
	if h.cfg.TCM != nil && h.cfg.TCM.LatencyCycles > 0 {
		return h.cfg.TCM.LatencyCycles
	}
	return h.cfg.L1D.LatencyCycles
}

func (h *refHierarchy) notePage(addr uint64) {
	page := addr / PageSize
	if !h.havePage || page != h.lastPage {
		h.ctr.PageCrossings++
		h.lastPage = page
		h.havePage = true
	}
}
