// Package exec implements a Volcano-style query executor over the storage
// layer. Every operator issues its real data accesses (page scans, index
// descents, hash probes, sort compares, temporary-tuple stores) through the
// memory-hierarchy simulator, so profiled queries exhibit the access
// patterns the paper attributes the L1D energy bottleneck to: streaming
// scans with high locality, store-heavy intermediate tuples, and
// pointer-chasing index paths.
//
// Interpretation overhead is modelled explicitly. Real engines execute
// thousands of instructions per tuple — expression interpreters, tuple-slot
// bookkeeping, cursor state — and most of their memory traffic targets hot,
// L1D-resident executor structures (the paper measures 70% of SQLite's L1D
// loads inside sqlite3VdbeExec, Section 4.2). The CostModel numbers below
// reproduce that traffic; they are the lever that differentiates the three
// engine profiles.
package exec

import (
	"runtime"
	"sync/atomic"

	"energydb/internal/cpusim"
	"energydb/internal/memsim"
)

// CostModel captures per-engine interpretation overheads.
type CostModel struct {
	// TupleInstr is the non-memory instruction overhead per tuple
	// processed by an operator (dispatch, bookkeeping, branching).
	TupleInstr int
	// TupleLoads is the number of hot L1D loads per tuple (interpreter
	// state, cursors, slot descriptors).
	TupleLoads int
	// TupleStores is the number of hot stores per tuple (slot writes,
	// register spills).
	TupleStores int
	// EvalInstr / EvalLoads / EvalStores are charged per expression node
	// per evaluation.
	EvalInstr  int
	EvalLoads  int
	EvalStores int
}

// hotLines is the number of distinct cache lines the executor's hot
// structures span (VM registers, cursor, slot descriptor, catalog entry).
const hotLines = 8

// Ctx carries the simulated machine, scratch memory and cost model through
// an operator tree.
type Ctx struct {
	M     *cpusim.Machine
	Arena *memsim.Arena
	Cost  CostModel

	// Cancel, when non-nil and set, makes the executor abandon the running
	// statement at the next checkpoint: TupleCost, Poll or PollEvery panics
	// with a sentinel that Collect and Drain recover into ErrCanceled. It may be
	// flipped from any goroutine (statement-timeout watchdogs use this);
	// everything else on the Ctx stays single-owner.
	Cancel *atomic.Bool

	// hot is the base of the executor's hot working set: a few cache
	// lines that are touched on every tuple and therefore L1D-resident,
	// like real interpreter state.
	hot     uint64
	hotIdx  uint64
	slotOff uint64
	tuples  uint64
}

// yieldEvery is how many tuple checkpoints pass between scheduler yields
// while a cancel flag is armed. The simulation is pure CPU work, so on a
// GOMAXPROCS=1 host a statement could otherwise outrun the watchdog timer
// (Go only delivers expired timers when the scheduler runs); an occasional
// Gosched bounds cancellation latency to a few thousand tuples on any host
// at negligible cost. The count runs across statements, so a batch plan that
// passes only a few hundred checkpoints in all may never yield: a timeout
// that has passed before its statement starts is raised where the watchdog
// is armed (stmt.Session), not here.
const yieldEvery = 4096

// checkpoint observes the cancel flag on behalf of n tuples' worth of work
// (n divides yieldEvery) and yields on the cadence above.
func (c *Ctx) checkpoint(n uint64) {
	if c.Cancel == nil {
		return
	}
	if c.Cancel.Load() {
		panic(canceledPanic{})
	}
	if c.tuples += n; c.tuples%yieldEvery < n {
		runtime.Gosched()
	}
}

// canceledPanic is the unwind sentinel thrown by TupleCost on cancellation.
type canceledPanic struct{}

// NewCtx builds an executor context.
func NewCtx(m *cpusim.Machine, arena *memsim.Arena, cost CostModel) *Ctx {
	return &Ctx{
		M:     m,
		Arena: arena,
		Cost:  cost,
		hot:   arena.Alloc(hotLines*memsim.LineSize, memsim.PageSize),
	}
}

// RelocateHot moves the executor's hot working set to a new base address.
// The Section 4.2 co-design uses this to place the interpreter's "special
// variables" into DTCM, where every per-tuple load and store becomes a
// cheap, never-missing TCM access.
func (c *Ctx) RelocateHot(base uint64) { c.hot = base }

// HotBytes returns the size of the hot working set.
func (c *Ctx) HotBytes() uint64 { return hotLines * memsim.LineSize }

// hotLine returns the next hot line address, rotating across the set.
func (c *Ctx) hotLine() uint64 {
	c.hotIdx++
	return c.hot + (c.hotIdx%hotLines)*memsim.LineSize
}

// TupleCost charges the per-tuple interpretation overhead: the storm of hot
// loads, stores and instructions a real executor spends moving one tuple
// through an operator.
func (c *Ctx) TupleCost() {
	c.checkpoint(1)
	h := c.M.Hier
	if n := c.Cost.TupleLoads; n > 0 {
		third := uint64(n) / 3
		h.LoadRepeat(c.hotLine(), third)
		h.LoadRepeat(c.hotLine(), third)
		h.LoadRepeat(c.hotLine(), uint64(n)-2*third)
	}
	if n := c.Cost.TupleStores; n > 0 {
		half := uint64(n) / 2
		h.StoreRepeat(c.hotLine(), half)
		h.StoreRepeat(c.hotLine(), uint64(n)-half)
	}
	if n := c.Cost.TupleInstr; n > 0 {
		h.Exec(uint64(n), memsim.InstrOther)
	}
}

// Poll is the charge-free cancellation checkpoint: it observes the cancel
// flag (and yields, same as TupleCost) without touching the simulated
// machine, so loops that already account their traffic another way — hash
// builds, sort comparators, materialization copies — can still be timed
// out without perturbing energy numbers. The rule the three checkpoints
// keep: no stretch of work between two of them outgrows one tuple's, one
// batch's or one pollStride's worth. TestCancelWithinBound measures every
// stretch of the TPC-H texts' row and vector plans against that bound.
func (c *Ctx) Poll() { c.checkpoint(1) }

// pollStride is how many buffer elements pass between cancellation checks
// in loops over already-materialized rows (sort key extraction, hash-table
// builds, mem-table copies). Those loops charge their simulated traffic in
// bulk, so a per-element Poll is pure atomic-load overhead on the real
// machine; one check per stride keeps the flag read off the per-element
// fast path while still bounding cancellation latency to a few hundred
// elements.
const pollStride = 256

// PollEvery is Poll amortized across a loop over a materialized buffer: it
// checks the cancel flag on element 0 and every pollStride-th element
// after. The first-element check means a pre-armed cancel still aborts
// before any work, and the stride divides yieldEvery so the scheduler
// yield cadence stays at one Gosched per yieldEvery elements, same as the
// per-tuple checkpoints.
func (c *Ctx) PollEvery(i int) {
	if i%pollStride == 0 {
		c.checkpoint(pollStride)
	}
}

// EmitRow simulates copying an emitted tuple of the given width into an
// output slot: one store per cache line.
func (c *Ctx) EmitRow(width int) {
	if width <= 0 {
		return
	}
	lines := uint64((width + memsim.LineSize - 1) / memsim.LineSize)
	c.M.Hier.StoreRepeat(c.hotLine(), lines)
}

// EvalCost simulates the instruction, load and store cost of evaluating an
// expression with n nodes under an interpreting evaluator.
func (c *Ctx) EvalCost(nodes int) {
	h := c.M.Hier
	if n := nodes * c.Cost.EvalLoads; n > 0 {
		h.LoadRepeat(c.hotLine(), uint64(n))
	}
	if n := nodes * c.Cost.EvalStores; n > 0 {
		h.StoreRepeat(c.hotLine(), uint64(n))
	}
	if n := nodes * c.Cost.EvalInstr; n > 0 {
		h.Exec(uint64(n), memsim.InstrOther)
	}
}

// Compute simulates n arithmetic instructions (aggregate updates, key
// hashing, comparisons that do real work).
func (c *Ctx) Compute(n int) {
	if n > 0 {
		c.M.Hier.Exec(uint64(n), memsim.InstrAdd)
	}
}
