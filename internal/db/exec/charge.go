package exec

import "energydb/internal/memsim"

// This file is the one statement of what the row operators charge. A charge
// function issues an operator phase's modelled micro-operations — counts
// times constants at hot or fixed addresses: interpretation overhead,
// expression evaluation, output copies, hash and accumulator arithmetic —
// into a Sink, and is linear in the cardinalities it is handed. The
// operators call it per tuple with actual counts and the *Ctx as sink; the
// planner (internal/db/plan) calls the same function once per plan node with
// estimated totals and its estimate as sink. Because the terms are linear,
// the per-tuple calls sum to the single evaluation: at equal cardinalities
// prediction and measurement agree on every modelled term, and what is left
// of a prediction error is cardinality plus the planner's cache model for
// the data-dependent accesses. The loads of the executors' own hash, group
// and build-buffer structures are charges too (Sink.Random), which the
// planner prices with that model; page scans, B-tree descents and
// comparator loads are issued inline, below or beside the charges.

// Sink receives modelled charges. Counts are float64 because the planner
// evaluates charge functions at fractional estimates; the executor passes
// whole numbers.
type Sink interface {
	// Tuples charges n per-tuple interpretation overheads: one per row on
	// the row path, one per batch per primitive (a dispatch) on the vector
	// path.
	Tuples(n float64)
	// Evals charges n interpreted evaluations of an expression tree of
	// the given node count.
	Evals(n float64, nodes int)
	// Emits charges n output-row copies of width bytes.
	Emits(n float64, width int)
	// Loads and Stores charge n accesses to the line at addr, which stays
	// L1D-resident across them.
	Loads(addr uint64, n float64)
	Stores(addr uint64, n float64)
	// Stream charges one load per cache line of a sequential read.
	Stream(addr uint64, bytes float64)
	// Random charges n loads at a data-dependent address in a structure
	// of set bytes — a hash bucket, a chain entry, a build row — whose
	// hit level depends on cache state, not on a count; dependent says
	// whether the load waits on the one before it. The executor passes
	// one address per call.
	Random(addr uint64, n, set float64, dependent bool)
	// Adds and Others charge n arithmetic and n plain instructions.
	Adds(n float64)
	Others(n float64)
}

// Card is the cardinality record a charge function is linear in.
type Card struct {
	// Batches is the number of batches dispatched (vector path only).
	Batches float64
	// In counts what the phase consumes: rows, batch positions or
	// selected elements.
	In float64
	// Out counts what survives it: rows selected, inserted or emitted.
	Out float64
}

// Tuples implements Sink.
func (c *Ctx) Tuples(n float64) {
	for ; n >= 1; n-- {
		c.TupleCost()
	}
}

// Evals implements Sink.
func (c *Ctx) Evals(n float64, nodes int) {
	for ; n >= 1; n-- {
		c.EvalCost(nodes)
	}
}

// Emits implements Sink.
func (c *Ctx) Emits(n float64, width int) {
	for ; n >= 1; n-- {
		c.EmitRow(width)
	}
}

// Loads implements Sink.
func (c *Ctx) Loads(addr uint64, n float64) { c.M.Hier.LoadRepeat(addr, uint64(n)) }

// Stores implements Sink.
func (c *Ctx) Stores(addr uint64, n float64) { c.M.Hier.StoreRepeat(addr, uint64(n)) }

// Stream implements Sink.
func (c *Ctx) Stream(addr uint64, bytes float64) { c.M.Hier.LoadRange(addr, uint64(bytes)) }

// Random implements Sink.
func (c *Ctx) Random(addr uint64, n, _ float64, dependent bool) {
	for ; n >= 1; n-- {
		c.M.Hier.Load(addr, dependent)
	}
}

// Adds implements Sink.
func (c *Ctx) Adds(n float64) { c.Compute(int(n)) }

// Others implements Sink.
func (c *Ctx) Others(n float64) {
	if n >= 1 {
		c.M.Hier.Exec(uint64(n), memsim.InstrOther)
	}
}

// ChargeTuples is the per-tuple schedule of every row source — both scans
// and the match loops of all three joins: each candidate row pays the
// interpretation overhead and the filter (or residual) evaluation, each
// surviving row the output copy. A candidate that is dropped before the
// filter runs (an index entry invisible to the snapshot) passes nodes 0.
func ChargeTuples(s Sink, c Card, nodes, width int) {
	s.Tuples(c.In)
	s.Evals(c.In, nodes)
	s.Emits(c.Out, width)
}

// ChargeWrite is the write operator's schedule per row it changes: the
// interpretation overhead of moving the row through one more operator and
// the evaluation of the SET expressions (nodes 0 for a DELETE). The log and
// heap stores behind it are issued by the storage layer at their real
// addresses.
func ChargeWrite(s Sink, c Card, nodes int) {
	s.Tuples(c.In)
	s.Evals(c.In, nodes)
}

// ChargeProject evaluates the output expressions and copies the projected
// row (8-byte slots) per input row.
func ChargeProject(s Sink, c Card, nodes, cols int) {
	s.Evals(c.In, nodes)
	s.Emits(c.In, cols*8)
}

// ChargePrune is one register move per kept column, then the narrowed row
// copy.
func ChargePrune(s Sink, c Card, cols, width int) {
	s.Adds(c.In * float64(cols))
	s.Emits(c.In, width)
}

// ChargeHashBuild is one build row's insert into a join hash table of set
// bytes: the dependent load of its bucket entry at slot, the hash
// arithmetic and the entry store.
func ChargeHashBuild(s Sink, c Card, slot uint64, set float64) {
	s.Random(slot, c.In, set, true)
	s.Adds(3 * c.In)
	s.Stores(slot, c.In)
}

// ChargeHashProbe hashes the probe key, then loads the bucket head it hashes
// to (dependent).
func ChargeHashProbe(s Sink, c Card, head uint64, set float64) {
	s.Adds(2 * c.In)
	s.Random(head, c.In, set, true)
}

// ChargeChainHop is one step of a bucket-chain walk, per match in both
// executors: the dependent load of the next chain entry.
func ChargeChainHop(s Sink, c Card, hop uint64, set float64) { s.Random(hop, c.In, set, true) }

// ChargeGroupInput is what every row entering a hash aggregation pays once
// its group is found: interpretation overhead, the evaluation of the key
// and argument expressions, the key hash and the dependent probe of its
// bucket at slot, in a group table of set bytes.
func ChargeGroupInput(s Sink, c Card, nodes int, slot uint64, set float64) {
	s.Tuples(c.In)
	s.Evals(c.In, nodes)
	s.Adds(2 * c.In)
	s.Random(slot, c.In, set, true)
}

// ChargeGroupInsert is the bucket-entry store of each new group, issued
// between its bucket probe and its accumulator fetch.
func ChargeGroupInsert(s Sink, c Card, slot uint64) { s.Stores(slot, c.In) }

// ChargeGroupUpdate is the dependent fetch of the accumulators at acc, one
// arithmetic op per aggregate and the accumulator store.
func ChargeGroupUpdate(s Sink, c Card, aggs int, acc uint64, set float64) {
	s.Random(acc, c.In, set, true)
	s.Adds(c.In * float64(aggs))
	s.Stores(acc, c.In)
}

// ChargeGroupOutput is the result extraction of each finalized group (In:
// one arithmetic op per aggregate plus the row build) and the output copy
// of each emitted one (Out).
func ChargeGroupOutput(s Sink, c Card, aggs, cols int) {
	s.Adds(c.In * float64(1+aggs))
	s.Emits(c.Out, cols*8)
}

// ChargeSortKeys is the key extraction per collected row: engines sort on
// extracted keys, one interpreted step per row.
func ChargeSortKeys(s Sink, c Card) { s.Evals(c.In, 1) }

// ChargeSortStore writes sort-buffer entries: the fill before the ordering
// pass and the placement after it, in both executors.
func ChargeSortStore(s Sink, c Card, at uint64) { s.Stores(at, c.In) }

// ChargeSortEmit reads each output row's entry off the sorted run and
// copies the row out.
func ChargeSortEmit(s Sink, c Card, at uint64, width int) {
	s.Loads(at, c.In)
	s.Emits(c.In, width)
}
