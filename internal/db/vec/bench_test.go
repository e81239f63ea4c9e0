package vec_test

import (
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/db/engine"
	"energydb/internal/db/exec"
	"energydb/internal/db/value"
	"energydb/internal/db/vec"
	"energydb/internal/tpch"
)

// benchEngine loads the TPC-H 10MB subset into a SQLite-profile engine on a
// fresh machine.
func benchEngine() *engine.Engine {
	e := engine.New(engine.SQLite, cpusim.NewMachine(cpusim.IntelI7_4790()), engine.SettingBaseline)
	tpch.Setup(e, tpch.Size10MB)
	return e
}

// BenchmarkIndexJoin is the row-versus-vector pair for the index nested loop:
// lineitem ⋈ orders through the orders index on o_orderkey, the join TPC-H
// runs most, in host rows per second over the probe side. Both forms issue
// the same B-tree descent lines and heap fetches; the vector one descends a
// probe batch's keys together and replaces the per-match interpretation
// storm by one fetch and one gather dispatch per output batch. `make bench-check` and CI run it once (-benchtime=1x) to keep
// the pair compiling and finishing.
func BenchmarkIndexJoin(b *testing.B) {
	e := benchEngine()
	lineitem, orders := e.MustTable("lineitem"), e.MustTable("orders")
	index := orders.Index("o_orderkey")
	if index == nil {
		b.Fatal("orders has no index on o_orderkey")
	}
	run := func(b *testing.B, op func() exec.Operator) {
		for i := 0; i < b.N; i++ {
			if _, err := exec.Drain(op()); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)*float64(lineitem.File.RowCount())/b.Elapsed().Seconds(), "rows/sec")
	}
	b.Run("mode=row", func(b *testing.B) {
		run(b, func() exec.Operator {
			return &exec.IndexJoin{Ctx: e.Ctx, Outer: &exec.SeqScan{Ctx: e.Ctx, File: lineitem.File}, Inner: orders.File, Index: index, OuterKey: 0}
		})
	})
	b.Run("mode=vector", func(b *testing.B) {
		run(b, func() exec.Operator {
			return &vec.RowSource{Child: &vec.IndexJoin{
				Ctx: e.Ctx, Probe: &vec.Scan{Ctx: e.Ctx, File: lineitem.File},
				Inner: orders.File, Index: index, ProbeKey: 0,
			}}
		})
	})
}

// BenchmarkFusedProgram is the host cost of one fused expression loop: TPC-H
// Q1's aggregate program (CompileAgg; its keys, its shared
// l_extendedprice * (1 - l_discount) and its eight arguments) over the
// first batch of lineitem, in host ns per row, allocations per batch and
// simulated µJ per batch (the charges the loop issues are part of the
// cost). from=vectors evaluates it over columns already stored in their
// vectors; from=rows re-points the batch at its raw rows every iteration
// (Batch.SetRows), so each column goes from its row into the loop — the
// scan-fused read — inside the timed loop. `make bench-check` and CI run it
// once (-benchtime=1x) to keep it compiling and finishing.
func BenchmarkFusedProgram(b *testing.B) {
	e := benchEngine()
	lineitem := e.MustTable("lineitem")
	c := func(name string) exec.Expr { return exec.Col{Idx: tpch.LineitemSchema.MustColIndex(name), Name: name} }
	bin := func(op exec.BinOpKind, l, r exec.Expr) exec.Expr { return exec.BinOp{Op: op, L: l, R: r} }
	one := exec.Const{V: value.Int(1)}
	qty, price, disc := c("l_quantity"), c("l_extendedprice"), c("l_discount")
	rev := bin(exec.OpMul, price, bin(exec.OpSub, one, disc))
	prog := vec.CompileAgg([]exec.Expr{c("l_returnflag"), c("l_linestatus")}, []exec.AggSpec{
		{Kind: exec.AggSum, Arg: qty}, {Kind: exec.AggSum, Arg: price}, {Kind: exec.AggSum, Arg: rev},
		{Kind: exec.AggSum, Arg: bin(exec.OpMul, rev, bin(exec.OpAdd, one, c("l_tax")))},
		{Kind: exec.AggAvg, Arg: qty}, {Kind: exec.AggAvg, Arg: price}, {Kind: exec.AggAvg, Arg: disc},
		{Kind: exec.AggCount},
	})
	scan := &vec.Scan{Ctx: e.Ctx, File: lineitem.File}
	if err := scan.Open(); err != nil {
		b.Fatal(err)
	}
	batch, err := scan.Next()
	if err != nil || batch == nil {
		b.Fatalf("no first batch of lineitem: %v", err)
	}
	rows := batch.Rows()
	eval := vec.EvalEach(e.Ctx, prog)
	run := func(b *testing.B, each func()) {
		each() // the pool's scratch vectors, allocated once
		b.ReportAllocs()
		before := e.M.Hier.Counters()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			each()
		}
		b.StopTimer()
		joules := e.M.Profile.Energy.Active(e.M.Hier.Counters().Sub(before), e.M.PState()).Total()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch.Len()), "ns/row")
		b.ReportMetric(joules*1e6/float64(b.N), "µJ/batch")
	}
	b.Run("from=vectors", func(b *testing.B) {
		batch.StoreCols(e.Ctx)
		run(b, func() { eval(batch) })
	})
	b.Run("from=rows", func(b *testing.B) {
		run(b, func() {
			batch.SetRows(rows)
			eval(batch)
		})
	})
}

// BenchmarkQ1Aggregate is TPC-H Q1's aggregation over the 10MB lineitem
// (GROUP BY l_returnflag, l_linestatus, its eight aggregates over six
// accumulators, no filter), which the coded keys run code-indexed (vec.Agg).
// It reports host ns per row and simulated loads and adds per row. `make bench-check` and CI run it once
// (-benchtime=1x) to keep the code-indexed path compiling and finishing.
func BenchmarkQ1Aggregate(b *testing.B) {
	e := benchEngine()
	lineitem := e.MustTable("lineitem")
	c := func(name string) exec.Expr { return exec.Col{Idx: tpch.LineitemSchema.MustColIndex(name), Name: name} }
	bin := func(op exec.BinOpKind, l, r exec.Expr) exec.Expr { return exec.BinOp{Op: op, L: l, R: r} }
	one := exec.Const{V: value.Int(1)}
	qty, price, disc := c("l_quantity"), c("l_extendedprice"), c("l_discount")
	rev := bin(exec.OpMul, price, bin(exec.OpSub, one, disc))
	aggs := []exec.AggSpec{
		{Kind: exec.AggSum, Arg: qty}, {Kind: exec.AggSum, Arg: price}, {Kind: exec.AggSum, Arg: rev},
		{Kind: exec.AggSum, Arg: bin(exec.OpMul, rev, bin(exec.OpAdd, one, c("l_tax")))},
		{Kind: exec.AggAvg, Arg: qty}, {Kind: exec.AggAvg, Arg: price}, {Kind: exec.AggAvg, Arg: disc},
		{Kind: exec.AggCount},
	}
	keys := []exec.Expr{c("l_returnflag"), c("l_linestatus")}
	if lineitem.File.Data().Dict(tpch.LineitemSchema.MustColIndex("l_returnflag")) == nil {
		b.Fatal("l_returnflag is not coded")
	}
	rows := float64(b.N * lineitem.File.RowCount())
	before := e.M.Hier.Counters()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg := &vec.Agg{Ctx: e.Ctx, Child: &vec.Scan{Ctx: e.Ctx, File: lineitem.File}, GroupBy: keys, Aggs: aggs}
		if _, err := exec.Drain(&vec.RowSource{Child: agg}); err != nil {
			b.Fatal(err)
		}
	}
	ctr := e.M.Hier.Counters().Sub(before)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
	b.ReportMetric(float64(ctr.Loads)/rows, "loads/row")
	b.ReportMetric(float64(ctr.AddOps)/rows, "adds/row")
}
