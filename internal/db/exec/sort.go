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

// Sort materializes the child and sorts it. The simulated cost follows a
// pointer-based quicksort: each comparison loads the two row headers
// (dependent) and each move stores a pointer — the compact sort buffers
// real engines use under work_mem.
type Sort struct {
	Ctx   *Ctx
	Child Operator
	Keys  []SortKey

	rows    []value.Row
	keys    [][]value.Value
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
	s.rows = rows
	s.pos = 0
	s.rowsize = s.Child.Schema().RowWidth()

	// Precompute key columns (engines sort on extracted keys).
	s.keys = make([][]value.Value, len(rows))
	for i, r := range rows {
		s.Ctx.PollEvery(i)
		ks := make([]value.Value, len(s.Keys))
		for k, sk := range s.Keys {
			ks[k] = sk.Expr.Eval(r)
		}
		s.keys[i] = ks
		ChargeSortKeys(s.Ctx, Card{In: 1})
	}

	s.run = NewSortRun(s.Ctx, len(rows))
	for i := range rows {
		s.Ctx.PollEvery(i)
		ChargeSortStore(s.Ctx, Card{In: 1}, s.run.Entry(i))
	}

	idx := s.run.Order(s.Ctx, len(rows), len(s.Keys), s.less)
	sorted := make([]value.Row, len(rows))
	sortedKeys := make([][]value.Value, len(rows))
	for i, j := range idx {
		sorted[i] = s.rows[j]
		sortedKeys[i] = s.keys[j]
		ChargeSortStore(s.Ctx, Card{In: 1}, s.run.Entry(i))
	}
	s.rows = sorted
	s.keys = sortedKeys
	return nil
}

func (s *Sort) less(a, b int) bool {
	for k, sk := range s.Keys {
		c := value.Compare(s.keys[a][k], s.keys[b][k])
		if c == 0 {
			continue
		}
		if sk.Desc {
			return c > 0
		}
		return c < 0
	}
	return false
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
	s.keys = nil
	return nil
}
