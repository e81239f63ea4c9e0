package vec_test

import (
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/db/engine"
	"energydb/internal/db/exec"
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
