package vec

import "energydb/internal/db/exec"

// This file is the one statement of what the vectorized operators charge,
// in the same form as the row path's (exec/charge.go): each function issues
// one operator phase's modelled micro-operations into a sink and is linear
// in its cardinality record. Operators call them per batch with the *exec.Ctx
// as sink; the planner calls the same functions once per plan node with
// estimated totals. The scheme is one dispatch — a tuple's worth of
// interpretation overhead — per batch per primitive (an expression
// program's fused element loop is one primitive), plus per-element payload
// traffic at the vectors' simulated addresses. Loads at data-dependent
// addresses — bucket entries and heads, chain hops, build-row gathers — are
// charges too (exec.Sink.Random), independent where a batch knows every
// address before it issues one; the sort's comparator loads stay inline.

// Per-value kernel costs, charged per selected element: one L1D payload
// load per element of a value a loop reads from memory, one payload store
// per element of a value it leaves there, and kernelInstrPerVal ALU
// instructions per element per kernel.
const (
	kernelLoadsPerVal  = 1
	kernelStoresPerVal = 1
	kernelInstrPerVal  = 4
)

// ChargeDispatch is one primitive's per-batch dispatch, the cost the batch
// representation amortizes over its elements. It doubles as the
// cancellation checkpoint of the batch (exec.Ctx.TupleCost polls).
func ChargeDispatch(s exec.Sink, c exec.Card) { s.Tuples(c.Batches) }

// ChargeScan is the scan driver's dispatch per batch, plus the
// selection-vector store for the Out rows left when snapshot-invisible
// holes were dropped (none when the batch had no hole).
func ChargeScan(s exec.Sink, c exec.Card, sel uint64) {
	s.Tuples(c.Batches)
	s.Stores(sel, c.Out)
}

// ChargeMaterialize fills one vector from row-shaped backing — a lazily
// backed batch's column that a consumer takes as a vector or that a second
// consumer reads (ColState.Take), over the In positions selected then; an
// aggregate's output column, over its groups: a dispatch per batch, then a
// move and a payload store per position.
func ChargeMaterialize(s exec.Sink, c exec.Card, at uint64) {
	s.Tuples(c.Batches)
	s.Adds(c.In)
	s.Stores(at, c.In*kernelStoresPerVal)
}

// regBudget is how many values a fused element loop keeps in registers at
// once; each value live beyond it spills.
const regBudget = 16

// chargeLoop is one fused element loop of an expression program over the
// selected elements: one dispatch, a payload load per element for each
// value the loop reads from memory (a column — at its row when the loop is
// the column's first reader — or a value an earlier loop stored), the ALU
// work of its kernels, a payload store per element for each value it leaves
// in memory (a root its consumer reads back, or a value a later loop reads),
// and a store plus a load per element for each value the register budget
// spills. Values computed and consumed inside the loop stay in registers and
// issue nothing.
func chargeLoop(s exec.Sink, c exec.Card, l *loop) {
	s.Tuples(c.Batches)
	for _, in := range l.loads {
		s.Loads(in.addr(), c.In*kernelLoadsPerVal)
	}
	s.Adds(c.In * kernelInstrPerVal * float64(l.kernels))
	for _, out := range l.stores {
		s.Stores(out.addr(), c.In*kernelStoresPerVal)
	}
	for _, v := range l.spills {
		s.Stores(v.addr(), c.In)
		s.Loads(v.addr(), c.In)
	}
}

// chargeSelect is a selection primitive's tail, after the fused loop of its
// conjunct (whose kernels count the root, which tests each candidate
// straight from its operands): one branch per candidate and the
// selection-vector store of the Out survivors. It stores no predicate
// vector, so nothing reloads one.
func chargeSelect(s exec.Sink, c exec.Card, sel uint64) {
	s.Others(c.In)
	s.Stores(sel, c.Out)
}

// chargeNarrow turns a predicate vector — a bare column or constant
// conjunct — into a narrower selection: the dispatch, the predicate loads
// and one branch per candidate, then the selection-vector store of the Out
// survivors.
func chargeNarrow(s exec.Sink, c exec.Card, pred uint64, predConst bool, sel uint64) {
	s.Tuples(c.Batches)
	if !predConst {
		s.Loads(pred, c.In*kernelLoadsPerVal)
	}
	s.Others(c.In)
	s.Stores(sel, c.Out)
}

// ChargePrune remaps the kept column slots: a dispatch and one move per
// column per batch, no payload traffic.
func ChargePrune(s exec.Sink, c exec.Card, cols int) {
	s.Tuples(c.Batches)
	s.Adds(c.Batches * float64(cols))
}

// ChargeDecode is one dictionary load per value of a coded column read as
// values (a string, not its code), at the dictionary's address; it follows
// the load of the code itself.
func ChargeDecode(s exec.Sink, c exec.Card, dict uint64) { s.Loads(dict, c.In) }

// ChargeAggUpdate is the table-update primitive: per element two probe
// loads, the accumulator store, and the hash plus one update op per
// accumulator (exec.AccOf: aggregates over one input share one) — all
// against a table that fits the cache.
func ChargeAggUpdate(s exec.Sink, c exec.Card, accs int, table uint64) {
	s.Tuples(c.Batches)
	s.Loads(table, 2*c.In)
	s.Stores(exec.AccSlot(table), c.In)
	s.Adds(c.In * float64(2+accs))
}

// ChargeCodeAggUpdate is the code-indexed table update (Agg over coded keys):
// per element the group id composed from the keys' codes, an op per key, the
// load of the group's accumulator entry and its store, and one update op per
// accumulator. No hash, no bucket-head probe.
func ChargeCodeAggUpdate(s exec.Sink, c exec.Card, keys, accs int, table uint64) {
	s.Tuples(c.Batches)
	s.Loads(table, c.In)
	s.Stores(table, c.In)
	s.Adds(c.In * float64(keys+accs))
}

// ChargeAggFinalize is the table scan that folds the In accumulated groups
// into output rows: each bucket re-read, one op per output column.
func ChargeAggFinalize(s exec.Sink, c exec.Card, keys, aggs int, table uint64) {
	s.Tuples(c.Batches)
	s.Loads(table, c.In)
	s.Adds(c.In * float64(keys+aggs))
}

// ChargeJoinBuild hashes one chunk of the collected build rows: the
// row-buffer copy (lines per row), the key loads and the hash arithmetic,
// in bulk. ChargeJoinInsert follows per row.
func ChargeJoinBuild(s exec.Sink, c exec.Card, lines int, buf uint64) {
	s.Tuples(c.Batches)
	s.Stores(buf, c.In*float64(lines))
	s.Loads(buf, c.In)
	s.Adds(3 * c.In)
}

// ChargeJoinInsert is one build row's bucket entry at slot, in a hash table
// of set bytes: its dependent load, then its store.
func ChargeJoinInsert(s exec.Sink, c exec.Card, slot uint64, set float64) {
	s.Random(slot, c.In, set, true)
	s.Stores(slot, c.In)
}

// ChargeBucketHead is a probe key's bucket-head load, in a hash table of set
// bytes: independent, since a batch hashes all its keys before it walks any
// chain and every head's address follows from its key alone.
func ChargeBucketHead(s exec.Sink, c exec.Card, head uint64, set float64) {
	s.Random(head, c.In, set, false)
}

// ChargeGatherRow is the first-line load of a matched build row at its
// offset in a build buffer of set bytes: independent, since every pair's
// build row is known before any is read. ChargeJoinGather prices the rest of
// the row.
func ChargeGatherRow(s exec.Sink, c exec.Card, row uint64, set float64) {
	s.Random(row, c.In, set, false)
}

// ChargeJoinProbe is the payload of a join's key kernel, after its dispatch:
// the key loads (from the probe rows when the kernel is the key column's
// first reader, Batch.take) and the per-key arithmetic (the hash, or the
// index join's NULL test and search-key setup). Per element,
// ChargeBucketHead or the index descent follows.
func ChargeJoinProbe(s exec.Sink, c exec.Card, keys ...uint64) {
	for _, k := range keys {
		s.Loads(k, c.In*kernelLoadsPerVal)
	}
	s.Adds(2 * c.In)
}

// ChargeJoinGather assembles the In matched pairs into output rows, after
// the gather's dispatch and each pair's first build-row line (ChargeGatherRow
// for a hash join, the heap fetch for an index join): the trailing build
// lines, the cache-hot probe row, the assembled-row stores and the move
// bookkeeping. No per-column vector traffic: the output stays rows-backed
// and its consumer materializes what it touches.
func ChargeJoinGather(s exec.Sink, c exec.Card, probeLines, buildLines int, at uint64) {
	s.Loads(at, c.In*float64(buildLines-1))
	s.Loads(at, c.In*float64(probeLines))
	s.Stores(at, c.In*float64(probeLines+buildLines))
	s.Adds(2 * c.In)
}

// ChargeFetch is the index operators' fetch primitive over one batch of In
// index entries, Out of them visible to the snapshot, after the B-tree and
// heap accesses storage issued for each (HeapFile.ReadRows): a dispatch,
// then per entry the row-id load off the id list and the bound-or-visibility
// branch, and per visible row the row-pointer store into the batch's
// backing. This is what replaces the row schedule's per-candidate
// exec.ChargeTuples; rows are handed on by reference, so there is no output
// copy.
func ChargeFetch(s exec.Sink, c exec.Card, at uint64) {
	s.Tuples(c.Batches)
	s.Loads(at, c.In)
	s.Others(c.In)
	s.Stores(at, c.Out)
}

// ChargeSortPack appends one extracted key vector to the columnar key
// store: a dispatch, then a load, a move and a store per element.
func ChargeSortPack(s exec.Sink, c exec.Card, key uint64, keyConst bool, store uint64) {
	s.Tuples(c.Batches)
	if !keyConst {
		s.Loads(key, c.In*kernelLoadsPerVal)
	}
	s.Adds(c.In)
	s.Stores(store, c.In*kernelStoresPerVal)
}

// ChargeSortEmit hands out the next slice of the sorted run: a dispatch and
// a streaming read of its entries, no per-row copy.
func ChargeSortEmit(s exec.Sink, c exec.Card, at uint64) {
	s.Tuples(c.Batches)
	s.Stream(at, c.In*exec.SortEntryBytes)
}

// ChargeBoundary is the vector→row crossing: one adapter dispatch per
// batch, then per row a full-width copy out of the batch's backing (a load
// and a store per line) and two move/bookkeeping instructions — the end of
// lazy materialization's savings, since a row consumer takes whole rows.
func ChargeBoundary(s exec.Sink, c exec.Card, lines int, at uint64) {
	s.Tuples(c.Batches)
	s.Loads(at, c.In*float64(lines))
	s.Stores(at, c.In*float64(lines))
	s.Others(2 * c.In)
}

// RowLines is the number of cache lines a row of the given byte width
// spans in a row buffer; a zero-width schema still occupies one 8-byte slot.
func RowLines(width int) int {
	if width <= 0 {
		width = 8
	}
	return (width + 63) / 64
}
