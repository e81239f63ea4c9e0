package exec

import (
	"energydb/internal/db/catalog"
	"energydb/internal/db/value"
	"energydb/internal/memsim"
)

// MeterSet coordinates per-operator counter attribution across one plan
// tree. Every meter boundary crossing (Open/Next/Close entering or leaving
// an operator) snapshots the machine's PMU counters; the delta since the
// previous boundary is credited to whichever operator was running. Because
// counters are cumulative and every simulated access lands between two
// boundaries, the per-operator exclusive counters sum exactly to the whole
// statement's counter delta — the property the EXPLAIN ENERGY attribution
// relies on to make per-operator energies sum to the statement ledger total.
//
// The attribution cell (Meter) is split from the row-operator wrapper
// (Metered) so batch-at-a-time operators in other packages can meter their
// boundaries on the same set: one MeterSet can interleave row and vector
// operators in a single plan and the partition property still holds.
//
// A MeterSet (and the Meter tree built over it) is single-use and
// single-goroutine, like the executor itself.
type MeterSet struct {
	h     *memsim.Hierarchy
	stack []*Meter
	last  memsim.Counters
}

// NewMeterSet builds a meter set over the context's machine.
func NewMeterSet(ctx *Ctx) *MeterSet {
	return &MeterSet{h: ctx.M.Hier}
}

// Enter pushes m: counters advanced since the last boundary are credited to
// the operator that was running, and subsequent work accrues to m. Every
// Enter must be paired with an Exit (defer it around the wrapped call).
func (ms *MeterSet) Enter(m *Meter) {
	now := ms.h.Counters()
	if n := len(ms.stack); n > 0 {
		top := ms.stack[n-1]
		top.own = top.own.Add(now.Sub(ms.last))
	}
	ms.stack = append(ms.stack, m)
	ms.last = now
}

// Exit pops m, crediting it with the counters advanced since Enter (minus
// any nested Enter/Exit windows, which were credited to the nested meters).
func (ms *MeterSet) Exit(m *Meter) {
	now := ms.h.Counters()
	m.own = m.own.Add(now.Sub(ms.last))
	ms.stack = ms.stack[:len(ms.stack)-1]
	ms.last = now
}

// Meter is one attribution cell: the PMU counters an operator's own work
// (not its children's) advances, plus what it emitted.
type Meter struct {
	// Label names the metered operator for EXPLAIN output.
	Label string
	// Kids are the meters of the operator's children, for inclusive
	// rollups.
	Kids []*Meter

	own  memsim.Counters
	rows int
	out  Emitted
}

// Emitted counts the batches a vectorized operator handed its consumer and
// the positions behind them, selected or not; Live and LivePositions count
// those of them with at least one row selected, which is all a buffering
// consumer (join, sort) looks at.
type Emitted struct {
	Batches, Positions  int
	Live, LivePositions int
}

// Own returns the counters attributed exclusively to this operator.
func (m *Meter) Own() memsim.Counters { return m.own }

// Rows returns how many rows the operator emitted.
func (m *Meter) Rows() int { return m.rows }

// Emitted returns the operator's batch counts (zero for row operators).
func (m *Meter) Emitted() Emitted { return m.out }

// AddRows records n emitted rows.
func (m *Meter) AddRows(n int) { m.rows += n }

// AddBatch records one emitted batch of the given positions, rows of them
// selected.
func (m *Meter) AddBatch(positions, rows int) {
	m.rows += rows
	m.out.Batches++
	m.out.Positions += positions
	if rows > 0 {
		m.out.Live++
		m.out.LivePositions += positions
	}
}

// Inclusive returns this operator's counters including all metered
// descendants.
func (m *Meter) Inclusive() memsim.Counters {
	c := m.own
	for _, k := range m.Kids {
		c = c.Add(k.Inclusive())
	}
	return c
}

// Metered wraps a row operator and records its exclusive counters and row
// count in M. Wrap every node of a plan with Metered over one shared
// MeterSet to get an exact per-operator decomposition of the statement's
// counter footprint.
type Metered struct {
	Set   *MeterSet
	Child Operator
	M     *Meter
}

// Schema implements Operator.
func (m *Metered) Schema() *catalog.Schema { return m.Child.Schema() }

// Open implements Operator.
func (m *Metered) Open() error {
	m.Set.Enter(m.M)
	defer m.Set.Exit(m.M)
	return m.Child.Open()
}

// Next implements Operator.
func (m *Metered) Next() (value.Row, bool, error) {
	m.Set.Enter(m.M)
	defer m.Set.Exit(m.M)
	row, ok, err := m.Child.Next()
	if ok {
		m.M.AddRows(1)
	}
	return row, ok, err
}

// RowID implements RowIDer for a metered scan.
func (m *Metered) RowID() int { return m.Child.(RowIDer).RowID() }

// Close implements Operator.
func (m *Metered) Close() error {
	m.Set.Enter(m.M)
	defer m.Set.Exit(m.M)
	return m.Child.Close()
}
