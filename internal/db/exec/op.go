package exec

import (
	"errors"
	"fmt"

	"energydb/internal/db/btree"
	"energydb/internal/db/catalog"
	"energydb/internal/db/storage"
	"energydb/internal/db/value"
)

// Operator is a Volcano iterator.
type Operator interface {
	Schema() *catalog.Schema
	Open() error
	Next() (value.Row, bool, error)
	Close() error
}

// RowIDer is a row source that can say which heap slot the row its Next last
// returned came from: the scans, and what may stand between a scan and the
// write operator that consumes the ids (the meter wrapper, the batch-to-row
// adapter).
type RowIDer interface {
	RowID() int
}

// SeqScan streams a heap file in row order, optionally filtering.
type SeqScan struct {
	Ctx    *Ctx
	File   *storage.HeapFile
	Filter Expr

	sc          *storage.Scanner
	id          int
	filterNodes int
	width       int
}

// Schema implements Operator.
func (s *SeqScan) Schema() *catalog.Schema { return s.File.Schema() }

// Open implements Operator.
func (s *SeqScan) Open() error {
	s.sc = s.File.Scan()
	s.filterNodes = ExprNodes(s.Filter)
	s.width = s.File.Schema().RowWidth()
	return nil
}

// Next implements Operator.
func (s *SeqScan) Next() (value.Row, bool, error) {
	for {
		row, id, ok := s.sc.Next()
		if !ok {
			return nil, false, nil
		}
		if chargeCandidate(s.Ctx, s.Filter, s.filterNodes, row, s.width) {
			s.id = id
			return row, true, nil
		}
	}
}

// RowID implements RowIDer.
func (s *SeqScan) RowID() int { return s.id }

// Close implements Operator.
func (s *SeqScan) Close() error { return nil }

// chargeCandidate charges one candidate row of a scan or join and reports
// whether it passes the filter (and is therefore emitted, width bytes wide).
func chargeCandidate(ctx *Ctx, filter Expr, nodes int, row value.Row, width int) bool {
	c := Card{In: 1}
	if filter == nil || Truthy(filter.Eval(row)) {
		c.Out = 1
	}
	ChargeTuples(ctx, c, nodes, width)
	return c.Out == 1
}

// IndexScan walks an index range [Lo, Hi] (inclusive bounds; nil means
// unbounded) and fetches matching heap rows in index order — random heap
// access with pointer-chasing loads, the weak-locality pattern of
// Section 3.3's index-scan analysis.
type IndexScan struct {
	Ctx  *Ctx
	File *storage.HeapFile
	Tree *btree.Tree
	Lo   *value.Value
	Hi   *value.Value
	// Filter applies residual predicates after the heap fetch.
	Filter Expr

	it          *btree.Iter
	id          int
	filterNodes int
	width       int
}

// Schema implements Operator.
func (s *IndexScan) Schema() *catalog.Schema { return s.File.Schema() }

// Open implements Operator.
func (s *IndexScan) Open() error {
	s.it = s.Tree.Range(s.Lo, s.Hi)
	s.filterNodes = ExprNodes(s.Filter)
	s.width = s.File.Schema().RowWidth()
	return nil
}

// Next implements Operator.
func (s *IndexScan) Next() (value.Row, bool, error) {
	for s.it.Valid() {
		id := s.it.RowID()
		s.it.Next()
		row, visible, err := s.File.FetchRow(id)
		if err != nil {
			return nil, false, err
		}
		if !visible {
			// Index entry for a version this snapshot cannot see (index
			// entries outlive their heap versions, as in PostgreSQL).
			ChargeTuples(s.Ctx, Card{In: 1}, 0, 0)
			continue
		}
		if chargeCandidate(s.Ctx, s.Filter, s.filterNodes, row, s.width) {
			s.id = id
			return row, true, nil
		}
	}
	return nil, false, nil
}

// RowID implements RowIDer.
func (s *IndexScan) RowID() int { return s.id }

// Close implements Operator.
func (s *IndexScan) Close() error { return nil }

// Project computes output expressions per row.
type Project struct {
	Ctx   *Ctx
	Child Operator
	Exprs []Expr
	Names []string

	schema *catalog.Schema
	nodes  int
	out    value.Row
}

// ProjectSchema is the output schema of a projection of n expressions: an
// anonymous 8-byte float slot each, named by names (col<i> where a name is
// missing or empty).
func ProjectSchema(n int, names []string) *catalog.Schema {
	cols := make([]catalog.Column, n)
	for i := range cols {
		name := fmt.Sprintf("col%d", i)
		if i < len(names) && names[i] != "" {
			name = names[i]
		}
		cols[i] = catalog.Column{Name: name, Type: value.TypeFloat, Width: 8}
	}
	return catalog.NewSchema(cols...)
}

// Schema implements Operator.
func (p *Project) Schema() *catalog.Schema {
	if p.schema == nil {
		p.schema = ProjectSchema(len(p.Exprs), p.Names)
	}
	return p.schema
}

// Open implements Operator.
func (p *Project) Open() error {
	for _, e := range p.Exprs {
		p.nodes += e.Nodes()
	}
	p.out = make(value.Row, len(p.Exprs))
	return p.Child.Open()
}

// Next implements Operator.
func (p *Project) Next() (value.Row, bool, error) {
	row, ok, err := p.Child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	ChargeProject(p.Ctx, Card{In: 1}, p.nodes, len(p.Exprs))
	for i, e := range p.Exprs {
		p.out[i] = e.Eval(row)
	}
	return p.out, true, nil
}

// Close implements Operator.
func (p *Project) Close() error { return p.Child.Close() }

// Limit stops after N rows.
type Limit struct {
	Child Operator
	N     int

	seen int
}

// Schema implements Operator.
func (l *Limit) Schema() *catalog.Schema { return l.Child.Schema() }

// Open implements Operator.
func (l *Limit) Open() error {
	l.seen = 0
	return l.Child.Open()
}

// Next implements Operator.
func (l *Limit) Next() (value.Row, bool, error) {
	if l.seen >= l.N {
		return nil, false, nil
	}
	row, ok, err := l.Child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	l.seen++
	return row, true, nil
}

// Close implements Operator.
func (l *Limit) Close() error { return l.Child.Close() }

// ErrCanceled is returned by Collect and Drain when the statement was
// abandoned through Ctx.Cancel (a statement timeout, typically).
var ErrCanceled = errors.New("exec: statement canceled")

// RecoverCanceled is the deferred guard for loops that charge tuple costs
// outside an operator tree (recovery replay): it converts the
// cancellation unwind raised by Ctx.TupleCost/Poll into ErrCanceled and
// re-panics on anything else. Usage: defer exec.RecoverCanceled(&err).
func RecoverCanceled(err *error) {
	switch r := recover(); r {
	case nil:
	case canceledPanic{}:
		*err = ErrCanceled
	default:
		panic(r)
	}
}

// Collect drains an operator into a slice (cloning rows) and closes it.
func Collect(op Operator) (rows []value.Row, err error) {
	defer RecoverCanceled(&err)
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	var out []value.Row
	for {
		row, ok, err := op.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, row.Clone())
	}
}

// Drain runs an operator to completion, discarding rows, and returns the
// row count. The top of every profiled query uses Drain: result display is
// disabled, as in the paper's measurement methodology.
func Drain(op Operator) (n int, err error) {
	defer RecoverCanceled(&err)
	if err := op.Open(); err != nil {
		return 0, err
	}
	defer op.Close()
	for {
		_, ok, err := op.Next()
		if err != nil {
			return n, err
		}
		if !ok {
			return n, nil
		}
		n++
	}
}
