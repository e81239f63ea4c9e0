package exec

import (
	"energydb/internal/db/catalog"
	"energydb/internal/db/value"
)

// AggKind enumerates aggregate functions.
type AggKind int

// Aggregates.
const (
	AggSum AggKind = iota
	AggAvg
	AggCount
	AggMin
	AggMax
)

// String names the aggregate.
func (k AggKind) String() string {
	switch k {
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	case AggCount:
		return "count"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return "unknown"
	}
}

// AggSpec is one aggregate output.
type AggSpec struct {
	Kind AggKind
	// Arg is the aggregated expression (ignored for Count when nil).
	Arg  Expr
	Name string
}

// AggExprs is a hash aggregation's expression list: the GROUP BY keys, then
// one argument per aggregate (nil for COUNT(*)).
func AggExprs(groupBy []Expr, aggs []AggSpec) []Expr {
	exprs := append(make([]Expr, 0, len(groupBy)+len(aggs)), groupBy...)
	for _, a := range aggs {
		exprs = append(exprs, a.Arg)
	}
	return exprs
}

// AggAcc accumulates one aggregate for one group of a GroupTable, the table
// the row GroupBy and the vectorized aggregation both fold into.
type AggAcc struct {
	sum   float64
	count int64
	min   value.Value
	max   value.Value
}

// Update folds one input value into the accumulator.
func (a *AggAcc) Update(v value.Value) {
	a.count++
	a.sum += v.AsFloat()
	if a.min.IsNull() || value.Compare(v, a.min) < 0 {
		a.min = v
	}
	if a.max.IsNull() || value.Compare(v, a.max) > 0 {
		a.max = v
	}
}

// UpdateKind folds one input value, maintaining only the state the given
// aggregate kind reads back in Result. Sum/avg/count updates skip the two
// order comparisons Update pays for min/max tracking.
func (a *AggAcc) UpdateKind(k AggKind, v value.Value) {
	switch k {
	case AggCount:
		a.count++
	case AggSum, AggAvg:
		a.count++
		a.sum += v.AsFloat()
	default:
		a.Update(v)
	}
}

// Result finalizes the accumulator for the given aggregate kind.
func (a *AggAcc) Result(k AggKind) value.Value {
	switch k {
	case AggSum:
		if a.count == 0 {
			return value.Null()
		}
		return value.Float(a.sum)
	case AggAvg:
		if a.count == 0 {
			return value.Null()
		}
		return value.Float(a.sum / float64(a.count))
	case AggCount:
		return value.Int(a.count)
	case AggMin:
		return a.min
	case AggMax:
		return a.max
	default:
		return value.Null()
	}
}

// GroupBy is a hash aggregation: group keys are hashed into a simulated
// table; each input row probes (dependent load) and updates (store) its
// group's accumulators. With no group keys it degenerates to a single-group
// scalar aggregate.
type GroupBy struct {
	Ctx     *Ctx
	Child   Operator
	GroupBy []Expr
	Aggs    []AggSpec

	schema *catalog.Schema
	groups []value.Row
	pos    int
}

// Schema implements Operator.
func (g *GroupBy) Schema() *catalog.Schema {
	if g.schema == nil {
		g.schema = AggSchema(len(g.GroupBy), g.Aggs)
	}
	return g.schema
}

// Open implements Operator: consumes the child and builds the groups.
func (g *GroupBy) Open() error {
	if err := g.Child.Open(); err != nil {
		return err
	}
	defer g.Child.Close()

	table := NewGroupTable(g.Ctx, len(g.GroupBy), g.Aggs)
	exprs := AggExprs(g.GroupBy, g.Aggs)
	nodes := ExprNodes(exprs...)
	vals := make([]value.Value, len(exprs))
	keyVals, args := vals[:len(g.GroupBy)], vals[len(g.GroupBy):]
	for {
		row, ok, err := g.Child.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		for i, e := range exprs {
			if e != nil {
				vals[i] = e.Eval(row)
			}
		}
		slot, isNew := table.Add(keyVals, args)
		ChargeGroupInput(g.Ctx, Card{In: 1}, nodes, slot, GroupTableBytes)
		if isNew {
			ChargeGroupInsert(g.Ctx, Card{In: 1}, slot)
		}
		ChargeGroupUpdate(g.Ctx, Card{In: 1}, len(g.Aggs), AccSlot(slot), GroupTableBytes)
	}

	g.groups = make([]value.Row, table.Len())
	for i := range table.Len() {
		g.Ctx.PollEvery(i)
		ChargeGroupOutput(g.Ctx, Card{In: 1}, len(g.Aggs), 0)
		g.groups[i] = table.Row(i)
	}
	g.pos = 0
	return nil
}

// Next implements Operator.
func (g *GroupBy) Next() (value.Row, bool, error) {
	if g.pos >= len(g.groups) {
		return nil, false, nil
	}
	g.Ctx.Poll()
	row := g.groups[g.pos]
	g.pos++
	ChargeGroupOutput(g.Ctx, Card{Out: 1}, len(g.Aggs), len(row))
	return row, true, nil
}

// Close implements Operator.
func (g *GroupBy) Close() error {
	g.groups = nil
	return nil
}
