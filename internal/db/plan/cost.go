package plan

import (
	"math"

	"energydb/internal/db/btree"
	"energydb/internal/db/engine"
	"energydb/internal/db/exec"
	"energydb/internal/db/storage"
	"energydb/internal/memsim"
)

// est accumulates estimated micro-operation counts for a plan fragment, in
// fractional units. The fields mirror the energy-bearing PMU counters of
// memsim.Counters (the paper's N_m terms); pricing converts them through the
// machine's calibrated ΔE_m table, so the cost model and the measurement
// share one energy vocabulary.
//
// It fills from two sides. As an exec.Sink it receives the charges of the
// executors' own charge functions (exec/charge.go, vec/charge.go), evaluated
// at a node's estimated cardinalities — the planner holds no copy of any
// operator's arithmetic or of its hash, group and gather loads, which it
// prices through Random. The coster methods below add the rest of the cache
// model: what the storage, B-tree and sort accesses the operators issue
// beside their charges are expected to cost.
type est struct {
	c  *coster        // the cache model Random prices with
	cm exec.CostModel // the profile's interpretation overheads (Tuples/Evals/Emits)

	l1d   float64 // demand L1D accesses (N_L1D)
	reg2  float64 // stores completing in L1D (N_Reg2L1D)
	l2    float64 // demand L2 accesses
	l3    float64 // demand L3 accesses
	mem   float64 // demand DRAM accesses
	pfL2  float64 // streamer prefetches filling L2 (priced ΔE_L3)
	pfL3  float64 // streamer prefetches filling L3 (priced ΔE_mem)
	stall float64 // stall cycles (N_stall)
	add   float64 // arithmetic ops
	other float64 // plain instructions (E_other carrier)
}

func (a *est) addIn(b est) {
	a.l1d += b.l1d
	a.reg2 += b.reg2
	a.l2 += b.l2
	a.l3 += b.l3
	a.mem += b.mem
	a.pfL2 += b.pfL2
	a.pfL3 += b.pfL3
	a.stall += b.stall
	a.add += b.add
	a.other += b.other
}

// counters rounds the estimate into PMU counter form for pricing.
func (a est) counters() memsim.Counters {
	r := func(f float64) uint64 {
		if f <= 0 {
			return 0
		}
		return uint64(f + 0.5)
	}
	return memsim.Counters{
		L1DAccesses:  r(a.l1d),
		StoreL1DHits: r(a.reg2),
		L2Accesses:   r(a.l2),
		L3Accesses:   r(a.l3),
		MemAccesses:  r(a.mem),
		PrefetchL2:   r(a.pfL2),
		PrefetchL3:   r(a.pfL3),
		StallCycles:  r(a.stall),
		AddOps:       r(a.add),
		OtherOps:     r(a.other),
	}
}

// coster estimates operator energy on one engine: it knows the machine's
// cache geometry and latencies, the profile's executor cost model, and how to
// price a micro-op estimate with the machine's ground-truth ΔE table.
type coster struct {
	e                         *engine.Engine
	l1Bytes, l2Bytes, l3Bytes float64
	depL1, depL2, depL3       float64 // dependent-load stall cycles per level
	depMem                    float64
	indL2, indL3, indMem      float64 // independent (pipelined) stalls per level
	// footprint is the whole plan's working-set size in bytes (scanned
	// heaps plus materialized intermediates). Prepare sets it after the
	// tree is built and re-costs the scans: a scan whose plan builds a
	// bigger-than-L3 sort buffer streams from DRAM no matter how small the
	// table itself is, because the intermediates evict it between runs.
	footprint float64
}

func newCoster(e *engine.Engine) *coster {
	cfg := e.M.Profile.Mem
	dep := func(lat int) float64 { return float64(lat - 1) }
	ind := func(lat int) float64 { return float64((lat - 4) / 4) }
	return &coster{
		e:       e,
		l1Bytes: float64(cfg.L1D.SizeBytes),
		l2Bytes: float64(cfg.L2.SizeBytes),
		l3Bytes: float64(cfg.L3.SizeBytes),
		depL1:   dep(cfg.L1D.LatencyCycles),
		depL2:   dep(cfg.L2.LatencyCycles),
		depL3:   dep(cfg.L3.LatencyCycles),
		depMem:  dep(cfg.MemLatencyCycles),
		indL2:   ind(cfg.L2.LatencyCycles),
		indL3:   ind(cfg.L3.LatencyCycles),
		indMem:  ind(cfg.MemLatencyCycles),
	}
}

// price converts a micro-op estimate to joules of active energy at the
// engine's current operating point.
func (c *coster) price(a *est) float64 {
	return c.e.M.Profile.Energy.Active(a.counters(), c.e.M.PState()).Total()
}

// newEst starts an estimate under the engine's executor cost model.
func (c *coster) newEst() *est { return &est{c: c, cm: c.e.Ctx.Cost} }

// Tuples implements exec.Sink: the profile's per-tuple interpretation
// overhead (hot loads, hot stores, plain instructions — all cache-resident),
// as Ctx.TupleCost issues it.
func (a *est) Tuples(n float64) {
	a.l1d += n * float64(a.cm.TupleLoads)
	a.reg2 += n * float64(a.cm.TupleStores)
	a.other += n * float64(a.cm.TupleInstr)
}

// Evals implements exec.Sink (Ctx.EvalCost).
func (a *est) Evals(n float64, nodes int) {
	f := n * float64(nodes)
	a.l1d += f * float64(a.cm.EvalLoads)
	a.reg2 += f * float64(a.cm.EvalStores)
	a.other += f * float64(a.cm.EvalInstr)
}

// Emits implements exec.Sink (Ctx.EmitRow: one store per line of width).
func (a *est) Emits(n float64, width int) {
	if width <= 0 {
		return
	}
	a.reg2 += n * float64((width+memsim.LineSize-1)/memsim.LineSize)
}

// Loads implements exec.Sink: hot-line loads hit L1D.
func (a *est) Loads(_ uint64, n float64) { a.l1d += n }

// Stores implements exec.Sink: hot-line stores complete in L1D.
func (a *est) Stores(_ uint64, n float64) { a.reg2 += n }

// Stream implements exec.Sink: one L1D access per line read.
func (a *est) Stream(_ uint64, bytes float64) { a.l1d += bytes / memsim.LineSize }

// Random implements exec.Sink: n loads spread over a structure of set bytes,
// priced on the dependent schedule whatever the flag says, although a batch
// issues its bucket heads and gathers independently (DESIGN.md §14).
func (a *est) Random(_ uint64, n, set float64, _ bool) { a.c.randLoad(a, n, set) }

// Adds implements exec.Sink.
func (a *est) Adds(n float64) { a.add += n }

// Others implements exec.Sink.
func (a *est) Others(n float64) { a.other += n }

// randLoad charges n dependent loads at uniformly random addresses within a
// working set of setBytes, blending hit levels by the fraction of the set
// each cache level holds.
func (c *coster) randLoad(a *est, n, setBytes float64) { c.randLoads(a, n, setBytes, true) }

// randLoads is randLoad for dependent or independent loads. An independent
// load (memsim's Load(addr, false)) hides an L1D hit entirely and exposes
// only a deeper level's latency beyond L1D, spread over the memory-level
// parallelism.
func (c *coster) randLoads(a *est, n, setBytes float64, dependent bool) {
	if n <= 0 {
		return
	}
	clamp := func(f float64) float64 { return math.Min(1, math.Max(0, f)) }
	p1 := 1.0
	if setBytes > 0 {
		p1 = clamp(c.l1Bytes / setBytes)
	}
	p2 := clamp(c.l2Bytes/setBytes) - p1
	p3 := clamp(c.l3Bytes/setBytes) - p1 - p2
	pm := 1 - p1 - p2 - p3
	a.l1d += n
	a.l2 += n * (1 - p1)
	a.l3 += n * (1 - p1 - p2)
	a.mem += n * pm
	if dependent {
		a.stall += n * (p1*c.depL1 + p2*c.depL2 + p3*c.depL3 + pm*c.depMem)
		return
	}
	a.stall += n * (p2*c.indL2 + p3*c.indL3 + pm*c.indMem)
}

// sortInsertionBlock is the run length below which sort.SliceStable switches
// to insertion sort; merge levels only exist above it.
const sortInsertionBlock = 20

// sortCmpFactor scales n·log2(n) to sort.SliceStable's actual comparison
// count: symmerge plus the insertion-sorted blocks run ~27% over the
// information-theoretic bound (measured: 2.04M comparator calls ordering
// 97k entries, vs n·log2(n) = 1.61M).
const sortCmpFactor = 1.27

// sortCompares charges the ordering pass over n entries of entryBytes each,
// the one data-dependent part of a sort: two dependent buffer loads and
// nkeys arithmetic ops per comparison, as both the row and vector sorts
// issue them from inside their comparator. Unlike randLoad's uniform-random blend,
// the comparison sequence of a merge-style sort (sort.SliceStable:
// insertion-sorted blocks, then pairwise run merges) has strong locality —
// the run heads being merged stay hot, so misses are per merge level, not
// per load: each level streams the two run halves against each other and
// the permuted index, costing roughly two cold passes over the buffer when
// it exceeds L2. Measured sort counters confirm it: ordering a ~1.5MB
// buffer took 660k comparator misses ≈ 2 × 13 merge levels × 24.3k buffer
// lines, with ~84% of loads hitting L1D and essentially no DRAM traffic —
// which the old uniform-random model over-priced by >3x (the X8 +125%
// sort misprediction).
func (c *coster) sortCompares(a *est, n, entryBytes, nkeys float64) {
	if n <= 1 {
		return
	}
	compares := sortCmpFactor * n * math.Log2(n)
	loads := 2 * compares
	a.l1d += loads
	a.add += compares * nkeys
	bufBytes := n * entryBytes
	miss := 0.0
	if bufBytes > c.l1Bytes {
		mergeLevels := math.Ceil(math.Log2(n / sortInsertionBlock))
		passes := 1.0
		if bufBytes > c.l2Bytes {
			passes = 2
		}
		miss = math.Min(loads, passes*mergeLevels*bufBytes/64)
	}
	a.stall += (loads - miss) * c.depL1
	if miss <= 0 {
		return
	}
	clamp := func(f float64) float64 { return math.Min(1, math.Max(0, f)) }
	p2 := clamp(c.l2Bytes / bufBytes)
	p3 := clamp(c.l3Bytes/bufBytes) - p2
	pm := 1 - p2 - p3
	a.l2 += miss
	a.l3 += miss * (1 - p2)
	a.mem += miss * pm
	a.stall += miss * (p2*c.depL2 + p3*c.depL3 + pm*c.depMem)
}

// l3ShareFrac is the fraction of L3 a warm working set can actually keep
// once it outgrows the cache: LRU pressure from indexes, hash state and the
// pool's own metadata means a spilling set never holds the whole cache
// (measured warm re-scans of an 8.0MB heap: 1.6% DRAM refill when the heap
// is the plan's entire working set, ~39% when join build state pushes the
// set to 11MB, ~91% at 26.5MB — the graded blend below tracks the last two;
// the first stays in the fits-in-L3 branch).
const l3ShareFrac = 0.85

// seqLines charges `lines` cache lines streamed sequentially out of a
// stream of streamBytes inside a plan working set of setBytes, under the
// streamer prefetcher the profiler enables for database workloads: streams
// within L2 hit L2 directly (concurrent probe/agg state competes for L3,
// not for a fitting L2 stream — measured, Q2's part scan keeps >99% L2 hits
// with 100KB of interleaved index-fetch pages in flight); sets within L3
// are prefetched L3→L2 ahead of the demand stream; larger sets also
// prefetch DRAM→L3, with a couple of demand misses per 4KB page going all
// the way to memory while the streamer retrains. A set past L3 evicts even
// a small stream through L3's inclusive backfill, so the L2 case demands
// both bounds. alternates says the stream is read by scans that take turns in
// direction (storage.BatchScanner over a heap longer than L3).
func (c *coster) seqLines(a *est, lines, streamBytes, setBytes float64, alternates bool) {
	if lines <= 0 {
		return
	}
	switch {
	case streamBytes <= c.l2Bytes && setBytes <= c.l3Bytes:
		a.l2 += lines
		a.stall += lines * c.indL2
	case setBytes <= c.l3Bytes:
		a.l2 += lines
		a.pfL2 += lines
		a.stall += lines * c.indL2
	default:
		// Steady state: one L3→L2 prefetch per line; only the stream
		// fraction that does not fit in the stream's L3 share is refilled
		// from DRAM, with ~2 training lines per 4KB page (64 lines)
		// missing all the way. A stream that is itself longer than L3 has
		// no share to keep: re-scanned front to back it thrashes LRU — each
		// line is evicted by the stream's own later lines before the next
		// scan returns to it — and every line is refilled (measured, the
		// 10.3MB PostgreSQL lineitem heap scanned by consecutive statements:
		// 138917 DRAM→L3 prefetches for 138965 L3→L2 ones, where the graded
		// share priced 34%).
		//
		// Scans that take turns in direction start on the K lines the one
		// before left cached and refill the other S−K; but a line that hits
		// through the L3→L2 streamer keeps its old L3 recency, so the pass
		// after that finds only the S−K refilled ones again, or K of them
		// once S > 2K. A pair refills (S−K) + max(K, S−K) lines, each pass
		// max(1/2, 1−K/S) on average. Measured refill shares, back to back:
		// that lineitem heap (S = 1.06 L3) 0.086 / 0.913; synthetic heaps of
		// 1.3, 1.7, 2.2 and 3.0 L3 0.236 / 0.786, 0.419 / 0.599, 0.553 both
		// ways, 0.673 both ways (K = 0.98 L3 with nothing else running; the
		// price keeps the share every other spilling set gets). Among the
		// benchmark's other statements the lineitem scan reads 0.41, not
		// 0.50: fills landing between two scans break up the dear pass.
		miss := 1.0
		switch {
		case streamBytes <= c.l3Bytes:
			miss = math.Min(1, math.Max(0, 1-l3ShareFrac*c.l3Bytes/setBytes))
		case alternates:
			miss = math.Max(0.5, 1-l3ShareFrac*c.l3Bytes/streamBytes)
		}
		const trainFrac = 2.0 / 64
		deep := lines * trainFrac * miss
		rest := lines - deep
		a.l2 += lines
		a.pfL2 += rest
		a.pfL3 += rest * miss
		a.l3 += deep
		a.mem += deep
		a.stall += rest*c.indL2 + deep*c.indMem
	}
}

// coldLines charges `lines` page-fault fill lines: each faulted line is
// store-missed into the pool frame (walking L2, L3 and DRAM), after which the
// row loads on that page hit L1D.
func (c *coster) coldLines(a *est, lines float64) {
	a.l2 += lines
	a.l3 += lines
	a.mem += lines
	a.stall += lines * c.indMem
}

// table-shaped helpers -------------------------------------------------------

// heapRowWidth is the on-page row width including the profile's tuple header.
func (c *coster) heapRowWidth(t *engine.Table) float64 {
	return float64(t.Schema().RowWidth() + c.e.Knobs.TupleOverhead)
}

// heapBytes approximates the heap file's footprint.
func (c *coster) heapBytes(t *engine.Table) float64 {
	return float64(t.File.RowCount()) * c.heapRowWidth(t)
}

// residentFrac reports the fraction of the heap's pages currently in the
// buffer pool (plan-time residency stands in for the steady-state hit rate).
func residentFrac(t *engine.Table) float64 {
	res, total := t.File.ResidentPages()
	if total == 0 {
		return 1
	}
	return float64(res) / float64(total)
}

// scanHeap charges a full sequential scan of the heap (excluding per-row
// executor overhead, which callers charge against the scanned row count), in
// row or vector mode: the pages and lines are the same, the order in which
// consecutive scans of a long heap walk them is not.
func (c *coster) scanHeap(a *est, t *engine.Table, vector bool) {
	rows := float64(t.File.RowCount())
	if rows == 0 {
		return
	}
	w := c.heapRowWidth(t)
	rowLines := math.Ceil(w / 64)
	newLines := w / 64
	a.l1d += rows * rowLines // LoadRange issues one load per covered line
	r := residentFrac(t)
	// The stream competes for L3 with the whole plan's working set, not just
	// its own heap: a big sort or build buffer evicts the lines between
	// touches, so the DRAM-refill fraction follows the plan footprint
	// (measured: the same 7.9MB heap refills ~12% of its lines under a
	// footprint that just fits L3, ~39% under an 11MB one, and ~91% when a
	// 21MB sort buffer streams over it).
	c.seqLines(a, rows*newLines*r, c.heapBytes(t), math.Max(c.heapBytes(t), c.footprint), vector && t.File.Alternates())
	if r < 1 {
		// Faulted pages fill frame lines from the device; subsequent row
		// loads on the page then hit L1D (already counted above).
		pages := (1 - r) * c.heapBytes(t) / float64(c.e.Knobs.PageBytes)
		c.coldLines(a, pages*float64(c.e.Knobs.PageBytes)/64)
	}
	// One pool-frame lookup per page.
	pageRows := float64(c.e.Knobs.PageBytes) / w
	c.randLoad(a, rows/pageRows, c.l2Bytes)
}

// indexBytes approximates a secondary index's footprint (16-byte entries
// plus interior-node overhead).
func indexBytes(entries int) float64 {
	return float64(entries) * 16 * 1.07
}

// btreeDescend charges n root-to-leaf descents of an index of the given
// height over that many entries, as a lone descent (btree's level, a set of
// one) issues them: per node a header load and btree.Probes binary-search
// rounds at the node's fill, each a dependent load. The fill follows from the shape — a tree of height h
// over e entries fans out e^(1/h) a level — and so does the working set: a
// descent probes the same few lines of whichever node it visits, so what
// competes for the caches is nodes × probed lines, not the index's bytes.
func (c *coster) btreeDescend(a *est, n float64, height, entries int) {
	if n <= 0 || height <= 0 {
		return
	}
	fan := math.Max(2, math.Pow(float64(entries), 1/float64(height)))
	probes := float64(btree.Probes(int(fan)))
	nodes := 0.0
	for lvl, at := 0, 1.0; lvl < height; lvl, at = lvl+1, at*fan {
		nodes += at
	}
	visits := n * float64(height)
	c.randLoad(a, visits*(1+probes), nodes*(1+probes)*memsim.LineSize)
	a.other += visits * probes
}

// indexEntries charges iterating `n` consecutive index entries (four 16-byte
// entries per line; leaf hops are folded into the per-line miss).
func (c *coster) indexEntries(a *est, n float64, entries int) {
	if n <= 0 {
		return
	}
	a.l1d += n
	miss := est{}
	c.randLoad(&miss, n/4, indexBytes(entries))
	miss.l1d = 0 // the demand access is already counted
	a.addIn(miss)
}

// heapFetch charges n random single-row fetches from the heap: per row its
// lines and the header line of the pool frame that holds it. The row
// operators' FetchRow, a batch of one, chases both, dependent loads. The
// batch form's ReadRows (batched) knows every id before it reads one and
// issues the same lines as independent loads. Its ids come in index-key order, not heap
// order, so a batched fetch whose rows span more than L3 finds none of its
// lines cached when the statement runs again — each run evicts its earliest
// lines before it returns to them — and those lines are priced from DRAM.
// The row form keeps the capacity blend.
func (c *coster) heapFetch(a *est, n float64, t *engine.Table, batched bool) {
	if n <= 0 {
		return
	}
	w := c.heapRowWidth(t)
	lines := math.Ceil(w / 64)
	r := residentFrac(t)
	set := c.heapBytes(t)
	if batched && math.Min(set, n*lines*memsim.LineSize) > c.l3Bytes {
		set = math.Inf(1)
	}
	c.randLoads(a, n*lines*r, set, !batched)
	if r < 1 {
		pageLines := float64(c.e.Knobs.PageBytes) / 64
		c.coldLines(a, n*(1-r)*pageLines)
		a.l1d += n * (1 - r) * lines
	}
	// Pool frame lookup: the header line of whichever page holds the row.
	c.randLoads(a, n, math.Ceil(c.heapBytes(t)/float64(c.e.Knobs.PageBytes))*memsim.LineSize, !batched)
}

// writeRows charges what the storage layer issues for n rows an UPDATE or
// DELETE (del) changes in t: per row the log record streamed into the hot log
// buffer, the pool-frame lookup and the tuple store on the page the scan has
// just read (a DELETE stamps the header line only), and an UPDATE's hop to the
// version it supersedes. A statement that will autocommit (no transaction is
// bound while it is planned) also pays its commit: the commit record, the
// buffer read back out by the flush, a stamp per version written. And the
// statement reaps what earlier writers left dead in t before it scans: per
// queued slot the look at it, the header store that releases it and, per
// index, the descent to its entry and the entry's removal.
func (c *coster) writeRows(a *est, n float64, t *engine.Table, del bool) {
	logLines := c.e.LogBytes(t, n) / memsim.LineSize
	heapLines := 1.0
	if !del {
		heapLines = math.Ceil(c.heapRowWidth(t) / memsim.LineSize)
		c.randLoad(a, n, storage.VersionStoreBytes)
	}
	a.reg2 += logLines + n*heapLines
	a.l1d += n
	a.stall += n * c.depL1
	if c.e.Txn() == nil {
		a.reg2 += 1 + n
		a.l1d += logLines + 1
		c.randLoad(a, n, storage.VersionStoreBytes)
	}
	if dead := float64(t.File.Data().Reclaimed().DeadRowsPending); dead > 0 {
		c.randLoad(a, dead, storage.VersionStoreBytes)
		a.l1d += dead
		a.reg2 += dead
		for _, tree := range t.Indexes {
			c.btreeDescend(a, dead, tree.Height(), tree.Len())
			a.reg2 += dead
		}
	}
}
