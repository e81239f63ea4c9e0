package exec

import (
	"energydb/internal/db/catalog"
	"energydb/internal/db/value"
	"energydb/internal/memsim"
)

// The reference join of the package's tests. The planner never builds a
// nested-loop join; the tests check the joins it does build against this
// one, which tries every pair of rows.

// NestedLoopJoin materializes the inner side once and rescans it per outer
// row, applying the predicate to the concatenated row. It handles non-equi
// joins and is the fallback when no index exists.
type NestedLoopJoin struct {
	Ctx   *Ctx
	Outer Operator
	Inner Operator
	Pred  Expr

	schema    *catalog.Schema
	inner     *MemTable
	outerRow  value.Row
	innerIdx  int
	out       value.Row
	predNodes int
}

// Schema implements Operator.
func (j *NestedLoopJoin) Schema() *catalog.Schema {
	if j.schema == nil {
		j.schema = j.Outer.Schema().Concat(j.Inner.Schema())
	}
	return j.schema
}

// Open implements Operator.
func (j *NestedLoopJoin) Open() error {
	rows, err := Collect(j.Inner)
	if err != nil {
		return err
	}
	j.inner = NewMemTable(j.Ctx, j.Inner.Schema(), rows)
	j.predNodes = ExprNodes(j.Pred)
	j.innerIdx = 0
	j.outerRow = nil
	return j.Outer.Open()
}

// Next implements Operator.
func (j *NestedLoopJoin) Next() (value.Row, bool, error) {
	for {
		if j.outerRow == nil {
			row, ok, err := j.Outer.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			j.outerRow = row.Clone()
			j.innerIdx = 0
		}
		for j.innerIdx < j.inner.Len() {
			inner := j.inner.Row(j.innerIdx)
			j.innerIdx++
			if j.out == nil {
				j.out = make(value.Row, 0, len(j.outerRow)+len(inner))
			}
			j.out = append(j.out[:0], j.outerRow...)
			j.out = append(j.out, inner...)
			if chargeCandidate(j.Ctx, j.Pred, j.predNodes, j.out, len(j.out)*8) {
				return j.out, true, nil
			}
		}
		j.outerRow = nil
	}
}

// Close implements Operator.
func (j *NestedLoopJoin) Close() error { return j.Outer.Close() }

// MemTable is a materialized row set living at simulated addresses,
// scannable many times (the inner side of block nested-loop joins, sort
// buffers, CTE-like temps).
type MemTable struct {
	Ctx    *Ctx
	schema *catalog.Schema
	rows   []value.Row
	base   uint64
	width  int
}

// NewMemTable materializes rows into scratch memory, simulating the copy.
func NewMemTable(ctx *Ctx, schema *catalog.Schema, rows []value.Row) *MemTable {
	width := schema.RowWidth()
	size := uint64(width) * uint64(len(rows))
	if size == 0 {
		size = memsim.LineSize
	}
	base := ctx.Arena.Alloc(size, memsim.LineSize)
	for i := range rows {
		ctx.PollEvery(i)
		ctx.M.Hier.StoreRange(base+uint64(i*width), uint64(width))
	}
	return &MemTable{Ctx: ctx, schema: schema, rows: rows, base: base, width: width}
}

// Len returns the row count.
func (m *MemTable) Len() int { return len(m.rows) }

// Row reads row i with streaming loads.
func (m *MemTable) Row(i int) value.Row {
	m.Ctx.M.Hier.LoadRange(m.base+uint64(i*m.width), uint64(m.width))
	return m.rows[i]
}

// Scan returns an operator over the mem table.
func (m *MemTable) Scan() Operator { return &memScan{t: m} }

type memScan struct {
	t   *MemTable
	pos int
}

func (s *memScan) Schema() *catalog.Schema { return s.t.schema }
func (s *memScan) Open() error             { s.pos = 0; return nil }
func (s *memScan) Next() (value.Row, bool, error) {
	if s.pos >= len(s.t.rows) {
		return nil, false, nil
	}
	row := s.t.Row(s.pos)
	s.pos++
	return row, true, nil
}
func (s *memScan) Close() error { return nil }
