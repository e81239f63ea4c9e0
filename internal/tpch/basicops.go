package tpch

import (
	"fmt"

	"energydb/internal/db/engine"
	"energydb/internal/db/exec"
	"energydb/internal/db/value"
)

// BasicOp is one of the seven basic query operations of Section 3.2, whose
// Active-energy breakdowns Figure 6 reports.
type BasicOp struct {
	Name  string
	Build func(e *engine.Engine) (exec.Operator, error)
}

// BasicOps returns the seven operations in the paper's figure order:
// select, projection, join, sort, groupby, table scan, index scan.
func BasicOps() []BasicOp {
	return []BasicOp{
		{"select", opSelect},
		{"projection", opProjection},
		{"join", opJoin},
		{"sort", opSort},
		{"groupby", opGroupBy},
		{"table scan", opTableScan},
		{"index scan", opIndexScan},
	}
}

// Warm is the first half of warm-then-measure for a plan built by a
// function — a BasicOp's Build, or plan.Builder's for SQL text: it builds and
// runs the plan once so buffers and caches hold the working set, then returns
// a fresh build to measure.
func Warm(e *engine.Engine, build func(*engine.Engine) (exec.Operator, error)) (exec.Operator, error) {
	plan, err := build(e)
	if err != nil {
		return nil, err
	}
	if _, err := e.Run(plan); err != nil {
		return nil, err
	}
	return build(e)
}

// lineitemCol is a column of lineitem, the table every operation reads.
func lineitemCol(name string) exec.Col {
	return exec.Col{Idx: LineitemSchema.MustColIndex(name), Name: name}
}

// BasicOpByName fetches one operation.
func BasicOpByName(name string) (BasicOp, error) {
	for _, op := range BasicOps() {
		if op.Name == name {
			return op, nil
		}
	}
	return BasicOp{}, fmt.Errorf("tpch: no basic operation %q", name)
}

// opSelect: selective predicate scan over lineitem.
func opSelect(e *engine.Engine) (exec.Operator, error) {
	li, err := e.Table("lineitem")
	if err != nil {
		return nil, err
	}
	return e.Scan(li, exec.BinOp{Op: exec.OpAnd,
		L: exec.BinOp{Op: exec.OpGt, L: lineitemCol("l_quantity"), R: exec.Const{V: value.Float(45)}},
		R: exec.BinOp{Op: exec.OpLt, L: lineitemCol("l_discount"), R: exec.Const{V: value.Float(0.03)}},
	}), nil
}

// opProjection: arithmetic projection over every lineitem row.
func opProjection(e *engine.Engine) (exec.Operator, error) {
	li, err := e.Table("lineitem")
	if err != nil {
		return nil, err
	}
	revenue := exec.BinOp{Op: exec.OpMul,
		L: lineitemCol("l_extendedprice"),
		R: exec.BinOp{Op: exec.OpSub, L: exec.Const{V: value.Float(1)}, R: lineitemCol("l_discount")},
	}
	return &exec.Project{Ctx: e.Ctx, Child: e.Scan(li, nil),
		Exprs: []exec.Expr{
			lineitemCol("l_orderkey"),
			revenue,
			exec.BinOp{Op: exec.OpMul, L: lineitemCol("l_quantity"), R: lineitemCol("l_tax")},
		},
		Names: []string{"l_orderkey", "revenue", "taxed_qty"}}, nil
}

// opJoin: orders ⋈ lineitem, the workhorse equijoin.
func opJoin(e *engine.Engine) (exec.Operator, error) {
	ord, err := e.Table("orders")
	if err != nil {
		return nil, err
	}
	li := e.MustTable("lineitem")
	oScan := e.Scan(ord, nil)
	return e.EquiJoin(oScan, oScan.Schema().MustColIndex("o_orderkey"), li, "l_orderkey", nil), nil
}

// opSort: order lineitem by extended price.
func opSort(e *engine.Engine) (exec.Operator, error) {
	li, err := e.Table("lineitem")
	if err != nil {
		return nil, err
	}
	return e.Sort(e.Scan(li, nil), []exec.SortKey{
		{Expr: lineitemCol("l_extendedprice"), Desc: true},
	}), nil
}

// opGroupBy: aggregate lineitem by (returnflag, shipmode).
func opGroupBy(e *engine.Engine) (exec.Operator, error) {
	li, err := e.Table("lineitem")
	if err != nil {
		return nil, err
	}
	return e.GroupBy(e.Scan(li, nil),
		[]exec.Expr{lineitemCol("l_returnflag"), lineitemCol("l_shipmode")},
		[]exec.AggSpec{
			{Kind: exec.AggSum, Arg: lineitemCol("l_quantity"), Name: "sum_qty"},
			{Kind: exec.AggCount, Name: "n"},
		}), nil
}

// opTableScan: the full sequential scan, no predicate.
func opTableScan(e *engine.Engine) (exec.Operator, error) {
	li, err := e.Table("lineitem")
	if err != nil {
		return nil, err
	}
	return e.Scan(li, nil), nil
}

// opIndexScan: B-tree range scan with random heap fetches over the same
// rows the table scan streams — the locality contrast of Section 3.3.
func opIndexScan(e *engine.Engine) (exec.Operator, error) {
	li, err := e.Table("lineitem")
	if err != nil {
		return nil, err
	}
	lo, hi := value.Date(MkDate(1993, 0)), value.Date(MkDate(1996, 0))
	return e.IndexRange(li, "l_shipdate", &lo, &hi, nil)
}
