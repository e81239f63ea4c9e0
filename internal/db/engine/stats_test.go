package engine_test

import (
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/db/engine"
	"energydb/internal/db/value"
	"energydb/internal/tpch"
)

// rescanKMV is the sketch as it was before its hashes sat in a heap — the k
// smallest in a set, the largest of them found again by scanning the set on
// every replacement — kept as the oracle the heap form is held to.
type rescanKMV struct {
	k   int
	set map[uint64]struct{}
	max uint64
}

func (s *rescanKMV) add(h uint64) {
	if _, ok := s.set[h]; ok {
		return
	}
	if len(s.set) < s.k {
		s.set[h] = struct{}{}
		if h > s.max {
			s.max = h
		}
		return
	}
	if h >= s.max {
		return
	}
	delete(s.set, s.max)
	s.set[h] = struct{}{}
	s.max = 0
	for x := range s.set {
		if x > s.max {
			s.max = x
		}
	}
}

func (s *rescanKMV) estimate() int {
	if len(s.set) < s.k {
		return len(s.set)
	}
	frac := float64(s.max) / float64(^uint64(0))
	if frac <= 0 {
		return len(s.set)
	}
	return int(float64(s.k-1) / frac)
}

func tpchEngine(tb testing.TB) *engine.Engine {
	e := engine.New(engine.PostgreSQL, cpusim.NewMachine(cpusim.IntelI7_4790()), engine.SettingBaseline)
	tpch.Setup(e, tpch.Size10MB)
	return e
}

var tpchTables = []string{"region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"}

// TestDistinctEstimatesMatchRescanSketch analyzes every TPC-H table and holds
// each column's distinct count to the rescanning sketch's, bit for bit: the
// heap changes what a replacement costs, not which hashes are kept.
func TestDistinctEstimatesMatchRescanSketch(t *testing.T) {
	e := tpchEngine(t)
	columns, sketched := 0, 0
	for _, name := range tpchTables {
		tbl := e.MustTable(name)
		stats := engine.Analyze(tbl.File.Data(), tbl.Schema())
		oracle := make([]rescanKMV, len(tbl.Schema().Columns))
		for i := range oracle {
			oracle[i] = rescanKMV{k: 1024, set: make(map[uint64]struct{})}
		}
		tbl.File.Data().ForEachRaw(func(_ int, row value.Row) {
			for i, v := range row {
				if !v.IsNull() {
					oracle[i].add(value.MakeKey(v).Hash())
				}
			}
		})
		for i, c := range tbl.Schema().Columns {
			columns++
			if len(oracle[i].set) == oracle[i].k {
				sketched++
			}
			if got, want := stats.Cols[i].Distinct, oracle[i].estimate(); got != want {
				t.Errorf("%s.%s: distinct estimate %d, the rescanning sketch says %d", name, c.Name, got, want)
			}
		}
	}
	if sketched < 5 {
		t.Fatalf("only %d of %d columns have more than 1024 distinct values: the estimate path is not exercised", sketched, columns)
	}
}

// BenchmarkAnalyze is the ANALYZE pass over orders at 10MB: what a planner
// pays when a table's statistics have gone stale (engine.Stats), most of it
// the distinct sketches of the table's seven columns.
func BenchmarkAnalyze(b *testing.B) {
	e := tpchEngine(b)
	orders := e.MustTable("orders")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkStats = engine.Analyze(orders.File.Data(), orders.Schema()).RowCount
	}
}

var sinkStats int
