package vec

import (
	"fmt"
	"reflect"
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/db/catalog"
	"energydb/internal/db/engine"
	"energydb/internal/db/exec"
	"energydb/internal/db/storage"
	"energydb/internal/db/txn"
	"energydb/internal/db/value"
	"energydb/internal/memsim"
)

// codedEngine bulk-loads rows rows of (id INT, flag STR, mode STR, qty FLOAT)
// into a column heap: flag takes three values and NULL, mode five, so the
// load codes both (storage.HeapFile.Load).
func codedEngine(t testing.TB, rows int) (*engine.Engine, *engine.Table) {
	t.Helper()
	e := engine.New(engine.PostgreSQL, cpusim.NewMachine(cpusim.IntelI7_4790()), engine.SettingBaseline)
	tbl := e.CreateTable("c", catalog.NewSchema(
		catalog.Column{Name: "id", Type: value.TypeInt},
		catalog.Column{Name: "flag", Type: value.TypeStr, Width: 4},
		catalog.Column{Name: "mode", Type: value.TypeStr, Width: 12},
		catalog.Column{Name: "qty", Type: value.TypeFloat},
	))
	data := make([]value.Row, rows)
	for i := range data {
		flag := value.Str([]string{"A", "N", "R"}[i%3])
		if i%11 == 0 {
			flag = value.Null()
		}
		data[i] = value.Row{value.Int(int64(i)), flag, value.Str(fmt.Sprint("MODE", i%5)), value.Float(float64(i % 50))}
	}
	e.Load(tbl, data)
	if tbl.File.Data().Dict(1) == nil || tbl.File.Data().Dict(2) == nil {
		t.Fatal("the load did not code flag and mode")
	}
	return e, tbl
}

// codeAggs is the aggregate list the code-indexed tests group: two sharing
// one accumulator, as Q1's SUM and AVG do.
var codeAggs = []exec.AggSpec{
	{Kind: exec.AggSum, Arg: exec.Col{Idx: 3}},
	{Kind: exec.AggAvg, Arg: exec.Col{Idx: 3}},
	{Kind: exec.AggCount},
}

// TestCodeIndexedAggMatchesRowPlan groups by the two coded columns on the
// code-indexed path and by hash on the row path, over the loaded rows with
// their NULL keys, then after a transaction inserts a key value the load
// never saw, under the snapshot before it and the one after: each time the
// batch aggregation must run code-indexed and return the row GroupBy's
// groups, in its order.
func TestCodeIndexedAggMatchesRowPlan(t *testing.T) {
	e, tbl := codedEngine(t, 3000)
	keys := []exec.Expr{exec.Col{Idx: 1}, exec.Col{Idx: 2}}
	check := func(label string) {
		t.Helper()
		want, err := exec.Collect(&exec.GroupBy{Ctx: e.Ctx, Child: &exec.SeqScan{Ctx: e.Ctx, File: tbl.File}, GroupBy: keys, Aggs: codeAggs})
		if err != nil {
			t.Fatal(err)
		}
		agg := &Agg{Ctx: e.Ctx, Child: &Scan{Ctx: e.Ctx, File: tbl.File}, GroupBy: keys, Aggs: codeAggs}
		got, err := exec.Collect(&RowSource{Child: agg})
		if err != nil {
			t.Fatal(err)
		}
		if len(agg.keys) != 2 {
			t.Fatalf("%s: the aggregation grouped by hash, not by codes", label)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: code-indexed groups differ from the row plan's:\n got  %v\n want %v", label, got, want)
		}
	}
	check("loaded")

	before := e.Shared().Txns.Pin()
	tx := e.Begin()
	for i := 0; i < 4; i++ {
		e.InsertTxn(tx, tbl, value.Row{value.Int(int64(9000 + i)), value.Str("Z"), value.Str("MODE9"), value.Float(7)})
	}
	if err := e.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if n := tbl.File.Data().Dict(1).Len(); n != 4 {
		t.Fatalf("flag's dictionary holds %d values after the insert, want 4", n)
	}
	e.Dev.Snap = before
	check("snapshot before the insert")
	e.Dev.Snap = txn.Latest()
	check("snapshot after the insert")
}

// TestCodeIndexedAggLoads pins what a code-indexed aggregation loads per
// row, at two row counts in one batch each: the loop's loads of the two
// keys' codes and of the argument, and one load of the group's accumulator
// entry — no bucket head and no decode; a hash aggregation loads two probe
// lines instead. Per group it decodes each key, once. A LIKE over a coded
// column decodes it once per row.
func TestCodeIndexedAggLoads(t *testing.T) {
	keys := []exec.Expr{exec.Col{Idx: 1}, exec.Col{Idx: 2}}
	const groups = 4 * 5 // three flags and NULL, with each of five modes
	run := func(rows int, child func(*engine.Engine, *engine.Table) Operator, op func(Operator) Operator) (loads, dict uint64) {
		e, tbl := codedEngine(t, rows)
		d1, d2 := tbl.File.DictAddr(1), tbl.File.DictAddr(2)
		ms := exec.NewMeterSet(e.Ctx)
		top := &exec.Meter{Label: "op"}
		e.M.Hier.SetRecorder(func(kind memsim.AccessKind, addr, n uint64) {
			isLoad := kind == memsim.AccessLoadInd || kind == memsim.AccessLoadDep || kind == memsim.AccessLoadRepeat
			if isLoad && (addr >= d1 && addr < d1+storage.DictBytes || addr >= d2 && addr < d2+storage.DictBytes) {
				dict += n
			}
		})
		m := &Metered{Set: ms, M: top, Child: op(&Metered{Set: ms, M: &exec.Meter{Label: "scan"}, Child: child(e, tbl)})}
		if err := m.Open(); err != nil {
			t.Fatal(err)
		}
		for b, err := m.Next(); b != nil || err != nil; b, err = m.Next() {
			if err != nil {
				t.Fatal(err)
			}
		}
		e.M.Hier.SetRecorder(nil)
		return top.Own().Loads, dict
	}
	scan := func(e *engine.Engine, tbl *engine.Table) Operator {
		return &Scan{Ctx: e.Ctx, File: tbl.File, BatchSize: MaxBatch}
	}
	codes := func(child Operator) Operator {
		return &Agg{Ctx: child.(*Metered).Child.(*Scan).Ctx, Child: child, GroupBy: keys, Aggs: codeAggs}
	}
	small, dictSmall := run(1000, scan, codes)
	large, dictLarge := run(3000, scan, codes)
	if perRow := float64(large-small) / 2000; perRow != 4 {
		t.Errorf("a code-indexed aggregation loads %v a row, want 4: two key codes, the argument, the accumulator entry", perRow)
	}
	if dictSmall != 2*groups || dictLarge != 2*groups {
		t.Errorf("a code-indexed aggregation of 1000 and 3000 rows into %d groups loads %d and %d dictionary entries, want one per group and key", groups, dictSmall, dictLarge)
	}

	like := func(e *engine.Engine, tbl *engine.Table) Operator {
		return &Scan{Ctx: e.Ctx, File: tbl.File, BatchSize: MaxBatch, Pred: exec.Like{E: exec.Col{Idx: 2}, Pattern: "%3"}}
	}
	pass := func(child Operator) Operator { return child }
	_, dict := run(3000, like, pass)
	if dict != 3000 {
		t.Errorf("a LIKE over 3000 rows of a coded column loads %d dictionary entries, want one a row", dict)
	}
}
