package exec

import (
	"energydb/internal/db/catalog"
	"energydb/internal/db/value"
)

// Prune narrows a row to a subset of its columns, preserving their names,
// types and widths (unlike Project, which computes expressions into
// anonymous float slots). It models the cheap slot-remapping real executors
// do when a projection list is pushed below a join: one move per kept
// column plus the narrowed output-row copy. The optimizer inserts it below
// joins and sorts when the downstream width saving beats this per-row cost.
type Prune struct {
	Ctx   *Ctx
	Child Operator
	// Cols are indexes into the child schema, in output order.
	Cols []int

	schema *catalog.Schema
	out    value.Row
}

// Schema implements Operator.
func (p *Prune) Schema() *catalog.Schema {
	if p.schema == nil {
		p.schema = p.Child.Schema().Project(p.Cols)
	}
	return p.schema
}

// Open implements Operator.
func (p *Prune) Open() error {
	p.out = make(value.Row, len(p.Cols))
	return p.Child.Open()
}

// Next implements Operator.
func (p *Prune) Next() (value.Row, bool, error) {
	row, ok, err := p.Child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	// One register move per kept column, then the narrowed row copy.
	ChargePrune(p.Ctx, Card{In: 1}, len(p.Cols), p.Schema().RowWidth())
	for i, c := range p.Cols {
		p.out[i] = row[c]
	}
	return p.out, true, nil
}

// Close implements Operator.
func (p *Prune) Close() error { return p.Child.Close() }
