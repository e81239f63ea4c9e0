package tpch

import (
	"fmt"

	"energydb/internal/db/engine"
	"energydb/internal/db/exec"
	"energydb/internal/db/value"
)

// Query is one of the 22 TPC-H read queries, expressed as an executor plan
// against an engine. Plans are simplified where the original uses features
// outside this engine's scope (correlated subqueries become two-pass plans,
// anti-joins become aggregate filters); the operator mix — scans, join
// chains, hash aggregation, sorts — follows the original query structure,
// which is what determines the energy profile.
type Query struct {
	ID   int
	Name string
	// Build constructs the plan. Engines choose join strategies per
	// their profile, so the same Build yields different access patterns
	// on different systems, as in the paper.
	Build func(e *engine.Engine) (exec.Operator, error)
}

// Warm is the first half of warm-then-measure for a hand-built plan (a
// Query's or a BasicOp's Build): it builds and runs the plan once so buffers
// and caches hold the working set, then returns a fresh build to measure.
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

// Queries returns all 22 queries in order.
func Queries() []Query {
	return []Query{
		{1, "pricing summary report", q1},
		{2, "minimum cost supplier", q2},
		{3, "shipping priority", q3},
		{4, "order priority checking", q4},
		{5, "local supplier volume", q5},
		{6, "forecasting revenue change", q6},
		{7, "volume shipping", q7},
		{8, "national market share", q8},
		{9, "product type profit", q9},
		{10, "returned item reporting", q10},
		{11, "important stock identification", q11},
		{12, "shipping modes and order priority", q12},
		{13, "customer distribution", q13},
		{14, "promotion effect", q14},
		{15, "top supplier", q15},
		{16, "parts/supplier relationship", q16},
		{17, "small-quantity-order revenue", q17},
		{18, "large volume customer", q18},
		{19, "discounted revenue", q19},
		{20, "potential part promotion", q20},
		{21, "suppliers who kept orders waiting", q21},
		{22, "global sales opportunity", q22},
	}
}

// QueryByID fetches one query.
func QueryByID(id int) (Query, error) {
	for _, q := range Queries() {
		if q.ID == id {
			return q, nil
		}
	}
	return Query{}, fmt.Errorf("tpch: no query %d", id)
}

// ---- plan-building helpers ----

// col resolves a named column of an operator's output schema.
func col(op exec.Operator, name string) exec.Col {
	return exec.Col{Idx: op.Schema().MustColIndex(name), Name: name}
}

// v-shorthand constructors.
func vi(n int64) value.Value   { return value.Int(n) }
func vf(f float64) value.Value { return value.Float(f) }
func vs(s string) value.Value  { return value.Str(s) }
func vd(d int64) value.Value   { return value.Date(d) }

func ptr(v value.Value) *value.Value { return &v }

// revenue returns l_extendedprice * (1 - l_discount) over op's schema.
func revenue(op exec.Operator) exec.Expr {
	return exec.BinOp{Op: exec.OpMul,
		L: col(op, "l_extendedprice"),
		R: exec.BinOp{Op: exec.OpSub, L: exec.Const{V: vf(1)}, R: col(op, "l_discount")},
	}
}

// yearOf extracts the calendar year from an epoch-days date expression
// (the generator's calendar has 365-day years).
type yearOf struct{ E exec.Expr }

// Eval implements exec.Expr.
func (y yearOf) Eval(row value.Row) value.Value {
	return value.Int(1992 + y.E.Eval(row).AsInt()/365)
}

// Nodes implements exec.Expr.
func (y yearOf) Nodes() int { return 2 + y.E.Nodes() }

func (y yearOf) String() string { return fmt.Sprintf("year(%s)", y.E) }

// strPrefix extracts the first n bytes of a string expression (Q22's phone
// country code).
type strPrefix struct {
	E exec.Expr
	N int
}

// Eval implements exec.Expr.
func (p strPrefix) Eval(row value.Row) value.Value {
	s := p.E.Eval(row).S
	if len(s) > p.N {
		s = s[:p.N]
	}
	return value.Str(s)
}

// Nodes implements exec.Expr.
func (p strPrefix) Nodes() int { return 2 + p.E.Nodes() }

func (p strPrefix) String() string { return fmt.Sprintf("prefix(%s, %d)", p.E, p.N) }

// caseWhen returns cond ? a : b as an arithmetic expression.
func caseWhen(cond, a, b exec.Expr) exec.Expr {
	// cond*a + (1-cond)*b, with cond in {0,1}.
	return exec.BinOp{Op: exec.OpAdd,
		L: exec.BinOp{Op: exec.OpMul, L: cond, R: a},
		R: exec.BinOp{Op: exec.OpMul,
			L: exec.BinOp{Op: exec.OpSub, L: exec.Const{V: vf(1)}, R: cond},
			R: b,
		},
	}
}

// ---- the queries ----

// q1: full lineitem scan with date filter, wide aggregation, tiny sort.
func q1(e *engine.Engine) (exec.Operator, error) {
	li, err := e.Table("lineitem")
	if err != nil {
		return nil, err
	}
	scan := e.Scan(li, exec.BinOp{Op: exec.OpLe,
		L: exec.Col{Idx: li.Schema().MustColIndex("l_shipdate"), Name: "l_shipdate"},
		R: exec.Const{V: vd(MkDate(1998, 150))},
	})
	rev := revenue(scan)
	charged := exec.BinOp{Op: exec.OpMul, L: rev,
		R: exec.BinOp{Op: exec.OpAdd, L: exec.Const{V: vf(1)}, R: col(scan, "l_tax")}}
	g := e.GroupBy(scan,
		[]exec.Expr{col(scan, "l_returnflag"), col(scan, "l_linestatus")},
		[]exec.AggSpec{
			{Kind: exec.AggSum, Arg: col(scan, "l_quantity"), Name: "sum_qty"},
			{Kind: exec.AggSum, Arg: col(scan, "l_extendedprice"), Name: "sum_base_price"},
			{Kind: exec.AggSum, Arg: rev, Name: "sum_disc_price"},
			{Kind: exec.AggSum, Arg: charged, Name: "sum_charge"},
			{Kind: exec.AggAvg, Arg: col(scan, "l_quantity"), Name: "avg_qty"},
			{Kind: exec.AggAvg, Arg: col(scan, "l_extendedprice"), Name: "avg_price"},
			{Kind: exec.AggAvg, Arg: col(scan, "l_discount"), Name: "avg_disc"},
			{Kind: exec.AggCount, Name: "count_order"},
		})
	return e.Sort(g, []exec.SortKey{
		{Expr: col(g, "g0")}, {Expr: col(g, "g1")},
	}), nil
}

// q2: part/partsupp/supplier/nation/region join with min-cost aggregation.
func q2(e *engine.Engine) (exec.Operator, error) {
	part, err := e.Table("part")
	if err != nil {
		return nil, err
	}
	ps := e.MustTable("partsupp")
	sup := e.MustTable("supplier")
	nat := e.MustTable("nation")
	reg := e.MustTable("region")

	pScan := e.Scan(part, exec.BinOp{Op: exec.OpAnd,
		L: exec.BinOp{Op: exec.OpEq, L: exec.Col{Idx: part.Schema().MustColIndex("p_size"), Name: "p_size"}, R: exec.Const{V: vi(15)}},
		R: exec.Like{E: exec.Col{Idx: part.Schema().MustColIndex("p_type"), Name: "p_type"}, Pattern: "%STEEL"},
	})
	j1 := e.EquiJoin(pScan, pScan.Schema().MustColIndex("p_partkey"), ps, "ps_partkey", nil)
	j2 := e.EquiJoin(j1, j1.Schema().MustColIndex("ps_suppkey"), sup, "s_suppkey", nil)
	j3 := e.EquiJoin(j2, j2.Schema().MustColIndex("s_nationkey"), nat, "n_nationkey", nil)
	j4 := e.EquiJoin(j3, j3.Schema().MustColIndex("n_regionkey"), reg, "r_regionkey",
		exec.BinOp{Op: exec.OpEq, L: exec.Col{Idx: j3.Schema().Concat(reg.Schema()).MustColIndex("r_name"), Name: "r_name"}, R: exec.Const{V: vs("EUROPE")}})
	g := e.GroupBy(j4,
		[]exec.Expr{col(j4, "p_partkey")},
		[]exec.AggSpec{
			{Kind: exec.AggMin, Arg: col(j4, "ps_supplycost"), Name: "min_cost"},
			{Kind: exec.AggMax, Arg: col(j4, "s_acctbal"), Name: "max_bal"},
		})
	s := e.Sort(g, []exec.SortKey{{Expr: col(g, "max_bal"), Desc: true}})
	return &exec.Limit{Child: s, N: 100}, nil
}

// q3: customer/orders/lineitem join, revenue aggregation, top-10 sort.
func q3(e *engine.Engine) (exec.Operator, error) {
	cust, err := e.Table("customer")
	if err != nil {
		return nil, err
	}
	ord := e.MustTable("orders")
	li := e.MustTable("lineitem")
	cutoff := MkDate(1995, 74) // 1995-03-15

	cScan := e.Scan(cust, exec.BinOp{Op: exec.OpEq,
		L: exec.Col{Idx: cust.Schema().MustColIndex("c_mktsegment"), Name: "c_mktsegment"},
		R: exec.Const{V: vs("BUILDING")}})
	j1 := e.EquiJoin(cScan, cScan.Schema().MustColIndex("c_custkey"), ord, "o_custkey", nil)
	f1 := &exec.Filter{Ctx: e.Ctx, Child: j1, Pred: exec.BinOp{Op: exec.OpLt,
		L: col(j1, "o_orderdate"), R: exec.Const{V: vd(cutoff)}}}
	j2 := e.EquiJoin(f1, f1.Schema().MustColIndex("o_orderkey"), li, "l_orderkey", nil)
	f2 := &exec.Filter{Ctx: e.Ctx, Child: j2, Pred: exec.BinOp{Op: exec.OpGt,
		L: col(j2, "l_shipdate"), R: exec.Const{V: vd(cutoff)}}}
	g := e.GroupBy(f2,
		[]exec.Expr{col(f2, "o_orderkey"), col(f2, "o_orderdate"), col(f2, "o_shippriority")},
		[]exec.AggSpec{{Kind: exec.AggSum, Arg: revenue(f2), Name: "revenue"}})
	s := e.Sort(g, []exec.SortKey{{Expr: col(g, "revenue"), Desc: true}})
	return &exec.Limit{Child: s, N: 10}, nil
}

// q4: order-priority counts over a quarter, existence via dedup aggregate.
func q4(e *engine.Engine) (exec.Operator, error) {
	ord, err := e.Table("orders")
	if err != nil {
		return nil, err
	}
	li := e.MustTable("lineitem")
	lo, hi := MkDate(1993, 182), MkDate(1993, 274)

	oScan := e.Scan(ord, exec.Between(
		exec.Col{Idx: ord.Schema().MustColIndex("o_orderdate"), Name: "o_orderdate"}, vd(lo), vd(hi)))
	j := e.EquiJoin(oScan, oScan.Schema().MustColIndex("o_orderkey"), li, "l_orderkey",
		nil)
	f := &exec.Filter{Ctx: e.Ctx, Child: j, Pred: exec.BinOp{Op: exec.OpLt,
		L: col(j, "l_commitdate"), R: col(j, "l_receiptdate")}}
	// Deduplicate to order granularity, then count by priority.
	dedup := e.GroupBy(f,
		[]exec.Expr{col(f, "o_orderkey"), col(f, "o_orderpriority")},
		[]exec.AggSpec{{Kind: exec.AggCount, Name: "lines"}})
	g := e.GroupBy(dedup, []exec.Expr{col(dedup, "g1")},
		[]exec.AggSpec{{Kind: exec.AggCount, Name: "order_count"}})
	return e.Sort(g, []exec.SortKey{{Expr: col(g, "g0")}}), nil
}

// q5: six-table join with region filter and per-nation revenue.
func q5(e *engine.Engine) (exec.Operator, error) {
	cust, err := e.Table("customer")
	if err != nil {
		return nil, err
	}
	ord := e.MustTable("orders")
	li := e.MustTable("lineitem")
	sup := e.MustTable("supplier")
	nat := e.MustTable("nation")
	reg := e.MustTable("region")
	lo, hi := MkDate(1994, 0), MkDate(1995, 0)

	oScan := e.Scan(ord, exec.Between(
		exec.Col{Idx: ord.Schema().MustColIndex("o_orderdate"), Name: "o_orderdate"}, vd(lo), vd(hi)))
	j1 := e.EquiJoin(oScan, oScan.Schema().MustColIndex("o_custkey"), cust, "c_custkey", nil)
	j2 := e.EquiJoin(j1, j1.Schema().MustColIndex("o_orderkey"), li, "l_orderkey", nil)
	j3 := e.EquiJoin(j2, j2.Schema().MustColIndex("l_suppkey"), sup, "s_suppkey",
		exec.BinOp{Op: exec.OpEq,
			L: exec.Col{Idx: j2.Schema().Concat(sup.Schema()).MustColIndex("c_nationkey"), Name: "c_nationkey"},
			R: exec.Col{Idx: j2.Schema().Concat(sup.Schema()).MustColIndex("s_nationkey"), Name: "s_nationkey"}})
	j4 := e.EquiJoin(j3, j3.Schema().MustColIndex("s_nationkey"), nat, "n_nationkey", nil)
	j5 := e.EquiJoin(j4, j4.Schema().MustColIndex("n_regionkey"), reg, "r_regionkey",
		exec.BinOp{Op: exec.OpEq,
			L: exec.Col{Idx: j4.Schema().Concat(reg.Schema()).MustColIndex("r_name"), Name: "r_name"},
			R: exec.Const{V: vs("ASIA")}})
	g := e.GroupBy(j5, []exec.Expr{col(j5, "n_name")},
		[]exec.AggSpec{{Kind: exec.AggSum, Arg: revenue(j5), Name: "revenue"}})
	return e.Sort(g, []exec.SortKey{{Expr: col(g, "revenue"), Desc: true}}), nil
}

// q6: the pure scan-and-aggregate query.
func q6(e *engine.Engine) (exec.Operator, error) {
	li, err := e.Table("lineitem")
	if err != nil {
		return nil, err
	}
	sch := li.Schema()
	shipdate := exec.Col{Idx: sch.MustColIndex("l_shipdate"), Name: "l_shipdate"}
	disc := exec.Col{Idx: sch.MustColIndex("l_discount"), Name: "l_discount"}
	qty := exec.Col{Idx: sch.MustColIndex("l_quantity"), Name: "l_quantity"}
	pred := exec.BinOp{Op: exec.OpAnd,
		L: exec.Between(shipdate, vd(MkDate(1994, 0)), vd(MkDate(1995, 0))),
		R: exec.BinOp{Op: exec.OpAnd,
			L: exec.Between(disc, vf(0.05), vf(0.0701)),
			R: exec.BinOp{Op: exec.OpLt, L: qty, R: exec.Const{V: vf(24)}},
		},
	}
	scan := e.Scan(li, pred)
	return e.GroupBy(scan, nil, []exec.AggSpec{{
		Kind: exec.AggSum,
		Arg:  exec.BinOp{Op: exec.OpMul, L: col(scan, "l_extendedprice"), R: col(scan, "l_discount")},
		Name: "revenue",
	}}), nil
}

// q7: shipping volume between two nations by year.
func q7(e *engine.Engine) (exec.Operator, error) {
	li, err := e.Table("lineitem")
	if err != nil {
		return nil, err
	}
	sup := e.MustTable("supplier")
	ord := e.MustTable("orders")
	cust := e.MustTable("customer")
	nat := e.MustTable("nation")

	liScan := e.Scan(li, exec.Between(
		exec.Col{Idx: li.Schema().MustColIndex("l_shipdate"), Name: "l_shipdate"},
		vd(MkDate(1995, 0)), vd(MkDate(1997, 0))))
	j1 := e.EquiJoin(liScan, liScan.Schema().MustColIndex("l_suppkey"), sup, "s_suppkey", nil)
	j2 := e.EquiJoin(j1, j1.Schema().MustColIndex("l_orderkey"), ord, "o_orderkey", nil)
	j3 := e.EquiJoin(j2, j2.Schema().MustColIndex("o_custkey"), cust, "c_custkey", nil)
	j4 := e.EquiJoin(j3, j3.Schema().MustColIndex("s_nationkey"), nat, "n_nationkey", nil)
	// Restrict to the FRANCE/GERMANY pair in either direction.
	frIdx, deIdx := int64(6), int64(7) // nation keys of FRANCE and GERMANY
	cNation := col(j4, "c_nationkey")
	sNation := col(j4, "s_nationkey")
	pair := exec.BinOp{Op: exec.OpOr,
		L: exec.BinOp{Op: exec.OpAnd,
			L: exec.BinOp{Op: exec.OpEq, L: sNation, R: exec.Const{V: vi(frIdx)}},
			R: exec.BinOp{Op: exec.OpEq, L: cNation, R: exec.Const{V: vi(deIdx)}}},
		R: exec.BinOp{Op: exec.OpAnd,
			L: exec.BinOp{Op: exec.OpEq, L: sNation, R: exec.Const{V: vi(deIdx)}},
			R: exec.BinOp{Op: exec.OpEq, L: cNation, R: exec.Const{V: vi(frIdx)}}},
	}
	f := &exec.Filter{Ctx: e.Ctx, Child: j4, Pred: pair}
	g := e.GroupBy(f,
		[]exec.Expr{col(f, "n_name"), col(f, "c_nationkey"), yearOf{col(f, "l_shipdate")}},
		[]exec.AggSpec{{Kind: exec.AggSum, Arg: revenue(f), Name: "revenue"}})
	return e.Sort(g, []exec.SortKey{
		{Expr: col(g, "g0")}, {Expr: col(g, "g1")}, {Expr: col(g, "g2")},
	}), nil
}

// q8: national market share within a region by year.
func q8(e *engine.Engine) (exec.Operator, error) {
	li, err := e.Table("lineitem")
	if err != nil {
		return nil, err
	}
	part := e.MustTable("part")
	sup := e.MustTable("supplier")
	ord := e.MustTable("orders")
	nat := e.MustTable("nation")

	pScan := e.Scan(part, exec.BinOp{Op: exec.OpEq,
		L: exec.Col{Idx: part.Schema().MustColIndex("p_type"), Name: "p_type"},
		R: exec.Const{V: vs("ECONOMY ANODIZED STEEL")}})
	j1 := e.EquiJoin(pScan, pScan.Schema().MustColIndex("p_partkey"), li, "l_partkey", nil)
	j2 := e.EquiJoin(j1, j1.Schema().MustColIndex("l_orderkey"), ord, "o_orderkey", nil)
	f := &exec.Filter{Ctx: e.Ctx, Child: j2, Pred: exec.Between(
		col(j2, "o_orderdate"), vd(MkDate(1995, 0)), vd(MkDate(1997, 0)))}
	j3 := e.EquiJoin(f, f.Schema().MustColIndex("l_suppkey"), sup, "s_suppkey", nil)
	j4 := e.EquiJoin(j3, j3.Schema().MustColIndex("s_nationkey"), nat, "n_nationkey", nil)
	// Market share of BRAZIL: sum(case nation=BRAZIL)/sum(all).
	isBrazil := exec.BinOp{Op: exec.OpEq, L: col(j4, "n_name"), R: exec.Const{V: vs("BRAZIL")}}
	g := e.GroupBy(j4,
		[]exec.Expr{yearOf{col(j4, "o_orderdate")}},
		[]exec.AggSpec{
			{Kind: exec.AggSum, Arg: exec.BinOp{Op: exec.OpMul, L: isBrazil, R: revenue(j4)}, Name: "brazil_rev"},
			{Kind: exec.AggSum, Arg: revenue(j4), Name: "total_rev"},
		})
	p := &exec.Project{Ctx: e.Ctx, Child: g,
		Exprs: []exec.Expr{
			col(g, "g0"),
			exec.BinOp{Op: exec.OpDiv, L: col(g, "brazil_rev"), R: col(g, "total_rev")},
		},
		Names: []string{"o_year", "mkt_share"}}
	return e.Sort(p, []exec.SortKey{{Expr: col(p, "o_year")}}), nil
}

// q9: product type profit by nation and year.
func q9(e *engine.Engine) (exec.Operator, error) {
	li, err := e.Table("lineitem")
	if err != nil {
		return nil, err
	}
	part := e.MustTable("part")
	sup := e.MustTable("supplier")
	ps := e.MustTable("partsupp")
	ord := e.MustTable("orders")
	nat := e.MustTable("nation")

	pScan := e.Scan(part, exec.Like{
		E:       exec.Col{Idx: part.Schema().MustColIndex("p_name"), Name: "p_name"},
		Pattern: "%green%"})
	j1 := e.EquiJoin(pScan, pScan.Schema().MustColIndex("p_partkey"), li, "l_partkey", nil)
	j2 := e.EquiJoin(j1, j1.Schema().MustColIndex("l_partkey"), ps, "ps_partkey",
		exec.BinOp{Op: exec.OpEq,
			L: exec.Col{Idx: j1.Schema().Concat(ps.Schema()).MustColIndex("l_suppkey"), Name: "l_suppkey"},
			R: exec.Col{Idx: j1.Schema().Concat(ps.Schema()).MustColIndex("ps_suppkey"), Name: "ps_suppkey"}})
	j3 := e.EquiJoin(j2, j2.Schema().MustColIndex("l_suppkey"), sup, "s_suppkey", nil)
	j4 := e.EquiJoin(j3, j3.Schema().MustColIndex("l_orderkey"), ord, "o_orderkey", nil)
	j5 := e.EquiJoin(j4, j4.Schema().MustColIndex("s_nationkey"), nat, "n_nationkey", nil)
	profit := exec.BinOp{Op: exec.OpSub,
		L: revenue(j5),
		R: exec.BinOp{Op: exec.OpMul, L: col(j5, "ps_supplycost"), R: col(j5, "l_quantity")}}
	g := e.GroupBy(j5,
		[]exec.Expr{col(j5, "n_name"), yearOf{col(j5, "o_orderdate")}},
		[]exec.AggSpec{{Kind: exec.AggSum, Arg: profit, Name: "sum_profit"}})
	return e.Sort(g, []exec.SortKey{
		{Expr: col(g, "g0")}, {Expr: col(g, "g1"), Desc: true},
	}), nil
}

// q10: returned-item revenue by customer, top 20.
func q10(e *engine.Engine) (exec.Operator, error) {
	cust, err := e.Table("customer")
	if err != nil {
		return nil, err
	}
	ord := e.MustTable("orders")
	li := e.MustTable("lineitem")

	oScan := e.Scan(ord, exec.Between(
		exec.Col{Idx: ord.Schema().MustColIndex("o_orderdate"), Name: "o_orderdate"},
		vd(MkDate(1993, 274)), vd(MkDate(1994, 0))))
	j1 := e.EquiJoin(oScan, oScan.Schema().MustColIndex("o_orderkey"), li, "l_orderkey", nil)
	f := &exec.Filter{Ctx: e.Ctx, Child: j1, Pred: exec.BinOp{Op: exec.OpEq,
		L: col(j1, "l_returnflag"), R: exec.Const{V: vs("R")}}}
	j2 := e.EquiJoin(f, f.Schema().MustColIndex("o_custkey"), cust, "c_custkey", nil)
	g := e.GroupBy(j2,
		[]exec.Expr{col(j2, "c_custkey"), col(j2, "c_name")},
		[]exec.AggSpec{{Kind: exec.AggSum, Arg: revenue(j2), Name: "revenue"}})
	s := e.Sort(g, []exec.SortKey{{Expr: col(g, "revenue"), Desc: true}})
	return &exec.Limit{Child: s, N: 20}, nil
}

// q11: important stock by nation, post-aggregate filter.
func q11(e *engine.Engine) (exec.Operator, error) {
	ps, err := e.Table("partsupp")
	if err != nil {
		return nil, err
	}
	sup := e.MustTable("supplier")
	nat := e.MustTable("nation")

	psScan := e.Scan(ps, nil)
	j1 := e.EquiJoin(psScan, psScan.Schema().MustColIndex("ps_suppkey"), sup, "s_suppkey", nil)
	j2 := e.EquiJoin(j1, j1.Schema().MustColIndex("s_nationkey"), nat, "n_nationkey",
		exec.BinOp{Op: exec.OpEq,
			L: exec.Col{Idx: j1.Schema().Concat(nat.Schema()).MustColIndex("n_name"), Name: "n_name"},
			R: exec.Const{V: vs("GERMANY")}})
	stockVal := exec.BinOp{Op: exec.OpMul,
		L: col(j2, "ps_supplycost"), R: col(j2, "ps_availqty")}
	g := e.GroupBy(j2, []exec.Expr{col(j2, "ps_partkey")},
		[]exec.AggSpec{{Kind: exec.AggSum, Arg: stockVal, Name: "stock_value"}})
	// The original filters groups above a fraction of the total; a fixed
	// threshold keeps the plan single-pass with similar selectivity.
	f := &exec.Filter{Ctx: e.Ctx, Child: g, Pred: exec.BinOp{Op: exec.OpGt,
		L: col(g, "stock_value"), R: exec.Const{V: vf(1000)}}}
	return e.Sort(f, []exec.SortKey{{Expr: col(f, "stock_value"), Desc: true}}), nil
}
