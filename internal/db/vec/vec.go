// Package vec implements a MonetDB/X100-style vectorized executor: operators
// exchange columnar batches of a few thousand values instead of single rows,
// so the per-tuple interpretation overhead the paper traces to the L1D energy
// bottleneck — hot-structure loads and stores, dispatch instructions, cursor
// bookkeeping — is paid once per batch per primitive rather than once per
// tuple. Batches are sized from the simulated L1D capacity so the working set
// of a kernel pipeline stays cache-resident, and every kernel charges its
// payload traffic through the same memory-hierarchy simulator as the row
// executor, so EXPLAIN ENERGY attribution and the calibrated ΔE_m pricing
// work identically for both modes. What each primitive charges is stated
// once, as a charge function in charge.go that the operators run per batch
// and the planner evaluates per plan node.
//
// Semantics are shared with the row path by construction: kernels evaluate
// elements with exec.ApplyBin, exec.Truthy, exec.LikeMatch and exec.GroupTable —
// the same helpers the row interpreter uses — so the two paths cannot drift
// (FuzzVecExec checks this differentially). The one exception is host-side
// only: over null-free numeric payloads the BinOp kernel runs a typed loop
// (evalNumeric) that computes what ApplyBin computes without boxing each
// element, held to the boxed loop by TestEvalNumericMatchesBoxedLoop, and a
// filter's selection primitive tests such operands through the same
// comparison (applyBool); what a kernel charges does not depend on which
// loop ran.
package vec

import (
	"energydb/internal/db/catalog"
	"energydb/internal/db/exec"
	"energydb/internal/db/storage"
	"energydb/internal/db/value"
	"energydb/internal/memsim"
)

// Batch width bounds: a batch carries between 1 and 4K values per vector.
const (
	MinBatch = 1
	MaxBatch = 4096
)

// activeVectors is the pipeline depth the batch sizing assumes stays hot: a
// kernel reads up to two input vectors and writes one output while the scan's
// source column sits behind them.
const activeVectors = 4

// valWidth is the nominal payload width of one vector element.
const valWidth = 8

// BatchSizeFor derives the batch width from the simulated L1D capacity: the
// largest power of two (within [MinBatch, MaxBatch]) such that activeVectors
// vectors of valWidth-byte values fit the L1D — X100's "fit the vector
// pipeline in cache" rule. The paper's i7-4790 (32KB L1D) yields 1024; the
// ARM1176JZF-S profile (16KB) yields 512.
func BatchSizeFor(cfg memsim.Config) int {
	budget := cfg.L1D.SizeBytes / (activeVectors * valWidth)
	n := MinBatch
	for n*2 <= budget && n*2 <= MaxBatch {
		n *= 2
	}
	return n
}

// batchWidth resolves an operator's BatchSize field: the override if one is
// set (only tests set one), else the width BatchSizeFor derives
// from the context machine's L1D, never above MaxBatch.
func batchWidth(ctx *exec.Ctx, override int) int {
	if override <= 0 {
		override = BatchSizeFor(ctx.M.Profile.Mem)
	}
	return min(override, MaxBatch)
}

// nullWord locates bit i in a []uint64 bitmap.
func nullWord(i int) (int, uint64) { return i >> 6, 1 << uint(i&63) }

// Vector is one column of a batch: a typed payload (int64, float64 or
// string) plus a null bitmap. Values that do not fit the payload type —
// mixed int/float results of arithmetic over nullable inputs, say — demote
// the vector to an exact row-value fallback payload, so kernels never lose
// information. Constant vectors broadcast one value to every position.
type Vector struct {
	// T is the payload type (TypeNull until the first typed Set).
	T value.Type

	i    []int64
	f    []float64
	s    []string
	null []uint64
	raw  []value.Value

	isConst bool
	cv      value.Value

	cap   int
	arena *memsim.Arena
	addr  uint64 // zero until Addr draws it
}

// NewVector allocates a vector of the given capacity. Its simulated payload
// address (kernels charge their element traffic against it) is drawn from the
// arena when it is first asked for.
func NewVector(arena *memsim.Arena, t value.Type, cap int) *Vector {
	return &Vector{T: t, cap: cap, arena: arena}
}

// NewConst builds a constant (broadcast) vector. It has no payload and no
// simulated address: kernels skip load charges for constant inputs, as a
// real vectorized interpreter keeps constants in registers.
func NewConst(v value.Value) *Vector {
	return &Vector{T: v.T, isConst: true, cv: v}
}

// Const reports whether the vector broadcasts a single value.
func (v *Vector) Const() bool { return v.isConst }

// Addr returns the simulated payload address, drawing it from the arena on
// first use — the first charge that stores into the vector or loads from
// it — so a column of a lazily backed batch that is never stored occupies no
// simulated address space (the arena is never freed). A constant has none.
func (v *Vector) Addr() uint64 {
	if v.addr == 0 && !v.isConst {
		v.addr = v.arena.Alloc(uint64(v.cap)*16, memsim.LineSize)
	}
	return v.addr
}

// IsNull reports whether position i holds NULL.
func (v *Vector) IsNull(i int) bool {
	if v.isConst {
		return v.cv.IsNull()
	}
	if v.raw != nil {
		return v.raw[i].IsNull()
	}
	if v.null == nil {
		return false
	}
	w, bit := nullWord(i)
	return v.null[w]&bit != 0
}

// Get reconstructs the datum at position i.
func (v *Vector) Get(i int) value.Value {
	if v.isConst {
		return v.cv
	}
	if v.raw != nil {
		return v.raw[i]
	}
	if v.IsNull(i) {
		return value.Null()
	}
	// Payload slices allocate on first typed Set; positions read before any
	// store (demote's full sweep) count as NULL.
	switch {
	case v.T == value.TypeInt && v.i != nil:
		return value.Int(v.i[i])
	case v.T == value.TypeDate && v.i != nil:
		return value.Date(v.i[i])
	case v.T == value.TypeFloat && v.f != nil:
		return value.Float(v.f[i])
	case v.T == value.TypeStr && v.s != nil:
		return value.Str(v.s[i])
	default:
		return value.Null()
	}
}

// Set stores the datum at position i, fixing the payload type on the first
// typed store and demoting to the exact fallback payload on a type mismatch.
func (v *Vector) Set(i int, val value.Value) {
	if v.raw != nil {
		v.raw[i] = val
		return
	}
	if val.T == value.TypeNull {
		v.setNull(i)
		return
	}
	if v.T == value.TypeNull {
		v.T = val.T
	} else if v.T != val.T {
		v.demote()
		v.raw[i] = val
		return
	}
	v.clearNull(i)
	switch v.T {
	case value.TypeInt, value.TypeDate:
		if v.i == nil {
			v.i = make([]int64, v.cap)
		}
		v.i[i] = val.I
	case value.TypeFloat:
		if v.f == nil {
			v.f = make([]float64, v.cap)
		}
		v.f[i] = val.F
	case value.TypeStr:
		if v.s == nil {
			v.s = make([]string, v.cap)
		}
		v.s[i] = val.S
	}
}

func (v *Vector) setNull(i int) {
	if v.null == nil {
		v.null = make([]uint64, (v.cap+63)/64)
	}
	w, bit := nullWord(i)
	v.null[w] |= bit
}

func (v *Vector) clearNull(i int) {
	if v.null == nil {
		return
	}
	w, bit := nullWord(i)
	v.null[w] &^= bit
}

// demote switches the vector to the row-value fallback payload, preserving
// every position representable so far.
func (v *Vector) demote() {
	raw := make([]value.Value, v.cap)
	// Representation demotion copies within one already-allocated vector; the
	// triggering kernel charged its payload stores.
	for i := range raw {
		raw[i] = v.Get(i)
	}
	v.raw = raw
}

// Batch is one unit of exchange between vectorized operators: up to cap
// values per column, with an optional selection vector listing the positions
// that survive upstream filters (nil means all N are selected). The
// selection vector — X100's trick for filtering without compacting — lets
// downstream kernels skip dead positions without moving any payload bytes.
type Batch struct {
	Cols []*Vector
	// N is the number of materialized positions.
	N int
	// Sel lists the selected positions in ascending order; nil selects
	// all N.
	Sel []int32

	// rows backs a scan batch with its raw source rows: a column moves out
	// of them only when a consumer takes it (take), so columns the query
	// never references move no payload bytes and charge nothing —
	// projection pushdown falls out of the representation instead of
	// needing a planner rule. nil means every vector is materialized
	// (kernel outputs).
	rows []value.Row
	// raw maps a column slot to its column of the backing rows (nil: slot j
	// is column j), as Prune remaps them; state is each slot's ColState.
	raw   []int
	state []ColState
	// base and ids name the heap slots behind rows when they came off a
	// heap file: a sequential run starts at slot base (ids nil), a fetched
	// batch lists each row's slot.
	base int
	ids  []int
	// heap, for rows read off a heap file, is where the batch's first row
	// was read, each column in its own run's frame; at, with heap nil, is
	// the line an operator assembled the rows at. A loop reading a column
	// straight from the rows loads there.
	heap *storage.At
	at   uint64
	// codes holds, per column slot, the coded column behind it while the
	// backing rows hold its codes (storage.Coded, zero for a plain column;
	// nil when no slot is coded): a batch off a heap's coded runs, and the
	// operators that hand its rows on, Prune, Sort and the joins' assembled
	// rows. A consumer reading the slot as values decodes it (take).
	codes []storage.Coded

	selBuf []int32
	sel    uint64 // simulated address of the selection vector, zero until selAddr draws it
	arena  *memsim.Arena
	cap    int
}

// NewBatch allocates a batch for the schema with vectors typed from the
// column types.
func NewBatch(arena *memsim.Arena, schema *catalog.Schema, cap int) *Batch {
	cols := make([]*Vector, len(schema.Columns))
	// One-time batch allocation; payload traffic is charged when kernels fill
	// the vectors.
	for i, c := range schema.Columns {
		cols[i] = NewVector(arena, c.Type, cap)
	}
	return &Batch{Cols: cols, selBuf: make([]int32, 0, cap), arena: arena, cap: cap}
}

// selAddr returns the simulated address of the selection vector, drawn from
// the arena the first time a selection store is charged against it. The
// pass-through batches of Prune and Project have no arena of their own and
// keep address zero.
func (b *Batch) selAddr() uint64 {
	if b.sel == 0 && b.arena != nil {
		b.sel = b.arena.Alloc(uint64(b.cap)*4, memsim.LineSize)
	}
	return b.sel
}

// Cap returns the batch capacity (positions per vector).
func (b *Batch) Cap() int { return b.cap }

// Len returns the number of selected positions.
func (b *Batch) Len() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.N
}

// Pos maps a selection index to a batch position.
func (b *Batch) Pos(k int) int {
	if b.Sel != nil {
		return int(b.Sel[k])
	}
	return k
}

// SetRows points the batch at one raw source batch, every row of it
// selected, and marks every column untouched. The slice is only read until
// the next SetRows call.
func (b *Batch) SetRows(rows []value.Row) {
	b.rows = rows
	b.N = len(rows)
	b.Sel = nil
	if b.state == nil {
		b.state = make([]ColState, len(b.Cols))
		return
	}
	// Per-column state reset, no payload movement; what a column costs is
	// charged when a consumer takes it.
	for j := range b.state {
		b.state[j] = Untouched
	}
}

// SetRowIDs records, after SetRows, which heap slots the source rows occupy:
// slot base onwards when ids is nil, else ids[i] for row i. ids is read until
// the next SetRows call.
func (b *Batch) SetRowIDs(base int, ids []int) { b.base, b.ids = base, ids }

// RowID returns the heap slot of the selected position k of a batch a scan
// produced (filters only narrow the selection, so the ids survive them).
func (b *Batch) RowID(k int) int {
	i := b.Pos(k)
	if b.ids != nil {
		return b.ids[i]
	}
	return b.base + i
}

// ColState is where a column of a lazily backed batch stands: no consumer
// has taken it, one loop has read it straight from the backing rows, or it
// is stored in its vector over the positions selected when it was stored.
type ColState uint8

const (
	Untouched ColState = iota
	Fused
	Stored
)

// Use is how a consumer takes a column of a lazily backed batch.
type Use uint8

const (
	// Read is a loop that loads the column once per selected element: a
	// fused program loop, a selection, a join's probe key, a sort key pack,
	// the aggregate's table update.
	Read Use = iota
	// Store takes the vector itself, to hand on (a projection's column).
	Store
	// hold marks the column roots of an aggregate's program: its loop
	// reads them (Read) and holds them for the table update.
	hold
	// Code is a Read of the column's codes, not its values: a selection
	// comparing it with literals (=, <>, IN), a code-indexed aggregate's
	// key. On a coded column it decodes nothing.
	Code
)

// Take moves the column on for a consumer that takes it as u and reports
// what the move costs: store when the column is stored now — a materializing
// primitive over the positions still selected (ChargeMaterialize) — and
// fromRows when the consumer loads it from the backing rows. The first Read
// of an untouched column is fused into the reading loop: one load per
// selected element at the row, no dispatch, no move, no store. Any other
// first take, and a second consumer of a column one loop has read, stores
// it once; after that every reader loads the vector.
func (st *ColState) Take(u Use) (store, fromRows bool) {
	switch {
	case *st == Stored:
		return false, false
	case *st == Untouched && (u == Read || u == Code):
		*st = Fused
		return false, true
	}
	*st = Stored
	return true, false
}

// Touch is a consumer taking column col of the batches it reads over c.
type Touch func(col int, c exec.Card, u Use)

// Toucher is the planner's stand-in for Batch.take on batches whose columns
// stand at mat (nil: every vector is materialized) and whose backing rows
// hold codes of the columns in coded: each take moves the column's state,
// charges a store where Take says one happens and a decode where decodes
// says one does.
func Toucher(s exec.Sink, mat map[int]ColState, coded map[int]*storage.Dict) Touch {
	return func(col int, c exec.Card, u Use) {
		if mat == nil {
			return
		}
		st := mat[col]
		store, fromRows := st.Take(u)
		if store {
			ChargeMaterialize(s, exec.Card{Batches: c.Batches, In: c.In}, 0)
		}
		if decodes(coded[col] != nil, u, store, fromRows) {
			ChargeDecode(s, exec.Card{In: c.In}, 0)
		}
		mat[col] = st
	}
}

// decodes reports whether a take of a column as u decodes it: the column is
// coded in the backing rows, the consumer reads values, and the take moves
// them out of the rows (a store, or a fused read).
func decodes(coded bool, u Use, store, fromRows bool) bool {
	return coded && u != Code && (store || fromRows)
}

// take hands a consumer column j's vector and the address its loads go to.
// On a lazily backed batch the column moves on by ColState.Take, charged
// over the selected positions: a fused read loads the row, and draws no
// vector address; a stored column loads its vector. The host copies the
// selected positions out of the rows at the first take; later selections
// only narrow, so the copy stays valid.
func (b *Batch) take(ctx *exec.Ctx, j int, u Use) (*Vector, uint64) {
	v := b.Cols[j]
	if b.rows == nil {
		return v, v.Addr()
	}
	if b.state[j] == Untouched {
		b.fill(j)
	}
	store, fromRows := b.state[j].Take(u)
	if store {
		ChargeMaterialize(ctx, exec.Card{Batches: 1, In: float64(b.Len())}, v.Addr())
	}
	if cd := b.coded(j); decodes(cd.Dict != nil, u, store, fromRows) {
		ChargeDecode(ctx, exec.Card{In: float64(b.Len())}, cd.Addr)
	}
	if fromRows {
		return v, b.rowLine(j)
	}
	return v, v.Addr()
}

// coded is the coded column behind slot j, zero when the slot's values are
// plain.
func (b *Batch) coded(j int) storage.Coded {
	if b.codes == nil {
		return storage.Coded{}
	}
	return b.codes[j]
}

// rawCol is the column of the backing rows slot j shows.
func (b *Batch) rawCol(j int) int {
	if b.raw == nil {
		return j
	}
	return b.raw[j]
}

// fill copies column j out of the backing rows at the selected positions,
// on the host only.
func (b *Batch) fill(j int) {
	v, c, n := b.Cols[j], b.rawCol(j), b.Len()
	// Host copy of the selected values; what the column costs is charged by
	// take, when a consumer takes it.
	for k := 0; k < n; k++ {
		i := b.Pos(k)
		v.Set(i, b.rows[i][c])
	}
}

// rowLine is the line a fused read of column j loads from: in a heap-backed
// batch the column's line in the first row where the scan or fetch read it,
// in the column's own run, otherwise the line the rows were assembled at.
// Like every vector payload charge, the loop's loads repeat on that one line.
// With no row selected the loop loads nothing, and a staged fetch may have
// read no row of the column's run (fetcher): the line is zero.
func (b *Batch) rowLine(j int) uint64 {
	switch {
	case b.heap == nil:
		return b.at
	case b.Len() == 0:
		return 0
	}
	return b.heap.Col(b.rawCol(j))
}

// Row materializes the selected position k into dst (which must have one
// slot per column). A lazily backed batch copies straight from the source
// row — the charge-free path RowSource uses when a row-mode parent consumes
// a scan batch, mirroring the row SeqScan handing out stored rows — through
// Prune's slot map if it has one.
func (b *Batch) Row(k int, dst value.Row) {
	i := b.Pos(k)
	if b.rows != nil && b.raw == nil {
		copy(dst, b.rows[i])
		return
	}
	// Deliberately charge-free materialization helper: callers charge per
	// batch (TupleCost/LoadRange) before copying rows out.
	for j, c := range b.Cols {
		if b.rows != nil {
			dst[j] = b.rows[i][b.raw[j]]
		} else {
			dst[j] = c.Get(i)
		}
	}
}

// narrowSel replaces the batch's selection with the positions where keep
// returns true; the caller charges the selection-vector store. The
// compaction writes at or behind the read cursor, so reusing the buffer
// while iterating the previous selection is safe.
func (b *Batch) narrowSel(keep func(i int) bool) {
	sel := b.selBuf[:0]
	n := b.Len()
	// Predicate loads and the selection-vector store are charged by the
	// calling kernel (chargeNarrow, ChargeScan).
	for k := 0; k < n; k++ {
		i := b.Pos(k)
		if keep(i) {
			sel = append(sel, int32(i))
		}
	}
	b.Sel = sel
	b.selBuf = sel[:0]
}
