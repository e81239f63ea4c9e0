package exec

import (
	"fmt"

	"energydb/internal/db/catalog"
	"energydb/internal/db/value"
	"energydb/internal/memsim"
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

// AggAcc accumulates one aggregate for one group. It is exported so the
// vectorized aggregation in internal/db/vec folds with exactly the same
// arithmetic as the row-at-a-time GroupBy below.
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
// order comparisons Update pays for min/max tracking — a per-tuple saving
// shared by the row GroupBy and the vectorized Agg, so the two paths stay
// bit-identical.
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
	Ctx      *Ctx
	Child    Operator
	GroupBy  []Expr
	Aggs     []AggSpec
	GroupCap int // optional hint for the hash-table size

	schema *catalog.Schema
	groups []value.Row
	pos    int
}

// Schema implements Operator.
func (g *GroupBy) Schema() *catalog.Schema {
	if g.schema == nil {
		cols := make([]catalog.Column, 0, len(g.GroupBy)+len(g.Aggs))
		for i := range g.GroupBy {
			cols = append(cols, catalog.Column{
				Name: fmt.Sprintf("g%d", i), Type: value.TypeStr, Width: 16,
			})
		}
		for _, a := range g.Aggs {
			name := a.Name
			if name == "" {
				name = a.Kind.String()
			}
			cols = append(cols, catalog.Column{Name: name, Type: value.TypeFloat, Width: 8})
		}
		g.schema = catalog.NewSchema(cols...)
	}
	return g.schema
}

// Open implements Operator: consumes the child and builds the groups.
func (g *GroupBy) Open() error {
	if err := g.Child.Open(); err != nil {
		return err
	}
	defer g.Child.Close()

	cap := g.GroupCap
	if cap <= 0 {
		cap = defaultGroupCap
	}
	tableSize := uint64(cap) * hashBucketBytes * 2
	tableBase := g.Ctx.Arena.Alloc(tableSize, memsim.PageSize)
	h := g.Ctx.M.Hier

	type group struct {
		keyVals []value.Value
		states  []AggAcc
	}
	groups := make(map[value.Key]*group)
	var order []*group

	nodes := ExprNodes(g.GroupBy...)
	for _, a := range g.Aggs {
		nodes += ExprNodes(a.Arg)
	}

	for {
		row, ok, err := g.Child.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		ChargeGroupInput(g.Ctx, Card{In: 1}, nodes)
		keyVals := make([]value.Value, len(g.GroupBy))
		for i, e := range g.GroupBy {
			keyVals[i] = e.Eval(row)
		}
		key := value.MakeKey(keyVals...)
		slot := tableBase + key.Hash()%tableSize
		h.Load(slot, true) // bucket probe
		grp, found := groups[key]
		if !found {
			grp = &group{keyVals: keyVals, states: make([]AggAcc, len(g.Aggs))}
			groups[key] = grp
			order = append(order, grp)
			ChargeGroupInsert(g.Ctx, Card{In: 1}, slot)
		}
		for i, a := range g.Aggs {
			v := value.Int(1)
			if a.Arg != nil {
				v = a.Arg.Eval(row)
			}
			grp.states[i].UpdateKind(a.Kind, v)
		}
		acc := slot + hashBucketBytes
		h.Load(acc, true) // accumulator fetch
		ChargeGroupUpdate(g.Ctx, Card{In: 1}, len(g.Aggs), acc)
	}

	g.groups = make([]value.Row, len(order))
	for i, grp := range order {
		ChargeGroupOutput(g.Ctx, Card{In: 1}, len(g.Aggs), 0)
		out := make(value.Row, 0, len(grp.keyVals)+len(g.Aggs))
		out = append(out, grp.keyVals...)
		for k, a := range g.Aggs {
			out = append(out, grp.states[k].Result(a.Kind))
		}
		g.groups[i] = out
	}
	g.pos = 0
	return nil
}

// Next implements Operator.
func (g *GroupBy) Next() (value.Row, bool, error) {
	if g.pos >= len(g.groups) {
		return nil, false, nil
	}
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
