package exec

import (
	"energydb/internal/db/catalog"
	"energydb/internal/db/value"
)

// SortKey describes one ordering column.
type SortKey struct {
	// Expr computes the key (usually a Col).
	Expr Expr
	Desc bool
}

// SortExprs is the expression list of a sort's keys, in key order.
func SortExprs(keys []SortKey) []Expr {
	exprs := make([]Expr, len(keys))
	for i, k := range keys {
		exprs[i] = k.Expr
	}
	return exprs
}

// Sort materializes the child and sorts it. The simulated cost follows a
// pointer-based quicksort: each comparison loads the two row headers
// (dependent) and each move stores a pointer — the compact sort buffers
// real engines use under work_mem.
type Sort struct {
	Ctx   *Ctx
	Child Operator
	Keys  []SortKey

	rows    []value.Row
	run     SortRun
	pos     int
	rowsize int
}

// Schema implements Operator.
func (s *Sort) Schema() *catalog.Schema { return s.Child.Schema() }

// Open implements Operator: drains, sorts, and rewinds.
func (s *Sort) Open() error {
	rows, err := Collect(s.Child)
	if err != nil {
		return err
	}
	s.pos = 0
	s.rowsize = s.Child.Schema().RowWidth()

	// Precompute key columns (engines sort on extracted keys).
	keys := NewSortKeys(s.Keys)
	for i, r := range rows {
		s.Ctx.PollEvery(i)
		for k, sk := range s.Keys {
			keys.Append(k, sk.Expr.Eval(r))
		}
		ChargeSortKeys(s.Ctx, Card{In: 1})
	}

	s.run = NewSortRun(s.Ctx, len(rows))
	for i := range rows {
		s.Ctx.PollEvery(i)
		ChargeSortStore(s.Ctx, Card{In: 1}, s.run.Entry(i))
	}

	idx := s.run.Order(s.Ctx, len(rows), keys)
	s.rows = make([]value.Row, len(rows))
	for i, j := range idx {
		s.rows[i] = rows[j]
		ChargeSortStore(s.Ctx, Card{In: 1}, s.run.Entry(i))
	}
	return nil
}

// Next implements Operator.
func (s *Sort) Next() (value.Row, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	// Reading the output streams the sorted run.
	ChargeSortEmit(s.Ctx, Card{In: 1}, s.run.Entry(s.pos), s.rowsize)
	row := s.rows[s.pos]
	s.pos++
	return row, true, nil
}

// Close implements Operator.
func (s *Sort) Close() error {
	s.rows = nil
	return nil
}
