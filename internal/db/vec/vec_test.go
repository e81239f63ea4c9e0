package vec

import (
	"reflect"
	"sync/atomic"
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/db/catalog"
	"energydb/internal/db/engine"
	"energydb/internal/db/exec"
	"energydb/internal/db/value"
	"energydb/internal/memsim"
)

func TestBatchSizeFor(t *testing.T) {
	if got := BatchSizeFor(memsim.I7_4790()); got != 1024 {
		t.Errorf("i7-4790 batch size = %d, want 1024", got)
	}
	if got := BatchSizeFor(memsim.ARM1176JZFS()); got != 512 {
		t.Errorf("ARM1176JZF-S batch size = %d, want 512", got)
	}
	tiny := memsim.Config{L1D: memsim.CacheConfig{SizeBytes: 16, Ways: 1, LatencyCycles: 1}}
	if got := BatchSizeFor(tiny); got < MinBatch || got > MaxBatch {
		t.Errorf("tiny L1D batch size = %d, out of [%d, %d]", got, MinBatch, MaxBatch)
	}
}

// testEngine builds a small SQLite-profile engine with one table covering
// every datum type, including NULLs.
func testEngine(t testing.TB, rows int) (*engine.Engine, *engine.Table) {
	t.Helper()
	return layoutEngine(t, rows, false)
}

// layoutEngine is testEngine with its table laid out row-major (rowMajor,
// as under DisableVectorExec) or in column runs.
func layoutEngine(t testing.TB, rows int, rowMajor bool) (*engine.Engine, *engine.Table) {
	t.Helper()
	m := cpusim.NewMachine(cpusim.IntelI7_4790())
	e := engine.New(engine.SQLite, m, engine.SettingBaseline)
	e.Knobs.DisableVectorExec = rowMajor
	tbl := e.CreateTable("t", catalog.NewSchema(
		catalog.Column{Name: "id", Type: value.TypeInt},
		catalog.Column{Name: "grp", Type: value.TypeInt},
		catalog.Column{Name: "price", Type: value.TypeFloat},
		catalog.Column{Name: "name", Type: value.TypeStr, Width: 8},
		catalog.Column{Name: "day", Type: value.TypeDate},
	))
	names := []string{"alpha", "beta", "gamma", ""}
	for i := 0; i < rows; i++ {
		price := value.Float(float64(i%97) / 4)
		if i%13 == 0 {
			price = value.Null()
		}
		e.Insert(tbl, value.Row{
			value.Int(int64(i)),
			value.Int(int64(i % 7)),
			price,
			value.Str(names[i%len(names)]),
			value.Date(int64(i % 365)),
		})
	}
	return e, tbl
}

func col(idx int) exec.Expr { return exec.Col{Idx: idx} }

func testPred() exec.Expr {
	// (price > 3 AND id < 900) OR name LIKE 'a%'
	return exec.BinOp{Op: exec.OpOr,
		L: exec.BinOp{Op: exec.OpAnd,
			L: exec.BinOp{Op: exec.OpGt, L: col(2), R: exec.Const{V: value.Float(3)}},
			R: exec.BinOp{Op: exec.OpLt, L: col(0), R: exec.Const{V: value.Int(900)}},
		},
		R: exec.Like{E: col(3), Pattern: "a%"},
	}
}

// collectVec drains a vectorized chain through the RowSource adapter.
func collectVec(t *testing.T, op Operator) []value.Row {
	t.Helper()
	rows, err := exec.Collect(&RowSource{Child: op})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestScanFilterProjectMatchesRow(t *testing.T) {
	for _, batch := range []int{1, 3, 64, 1024} {
		e, tbl := testEngine(t, 500)
		pred := testPred()
		exprs := []exec.Expr{
			col(0),
			exec.BinOp{Op: exec.OpMul, L: col(2), R: exec.Const{V: value.Float(2)}},
			exec.BinOp{Op: exec.OpDiv, L: col(2), R: col(1)},
			exec.Not{E: exec.InList{E: col(1), List: []value.Value{value.Int(2), value.Int(4)}}},
		}
		want, err := exec.Collect(&exec.Project{
			Ctx: e.Ctx, Child: &exec.SeqScan{Ctx: e.Ctx, File: tbl.File, Filter: pred}, Exprs: exprs,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := collectVec(t, &Project{
			Ctx:   e.Ctx,
			Child: &Scan{Ctx: e.Ctx, File: tbl.File, Pred: pred, BatchSize: batch},
			Exprs: exprs,
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("batch=%d: vector result differs from row result (%d vs %d rows)",
				batch, len(got), len(want))
		}
	}
}

func TestPruneMatchesRow(t *testing.T) {
	e, tbl := testEngine(t, 200)
	cols := []int{3, 0}
	want, err := exec.Collect(&exec.Prune{Ctx: e.Ctx, Child: &exec.SeqScan{Ctx: e.Ctx, File: tbl.File}, Cols: cols})
	if err != nil {
		t.Fatal(err)
	}
	vp := &Prune{Ctx: e.Ctx, Child: &Scan{Ctx: e.Ctx, File: tbl.File}, Cols: cols}
	got := collectVec(t, vp)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("vector prune differs from row prune")
	}
	if !reflect.DeepEqual(vp.Schema().Names(), []string{"name", "id"}) {
		t.Fatalf("prune schema = %v", vp.Schema().Names())
	}
}

func TestAggMatchesRow(t *testing.T) {
	e, tbl := testEngine(t, 700)
	groupBy := []exec.Expr{col(1)}
	aggs := []exec.AggSpec{
		{Kind: exec.AggSum, Arg: col(2), Name: "total"},
		{Kind: exec.AggCount, Name: "n"},
		{Kind: exec.AggMin, Arg: col(0), Name: "lo"},
		{Kind: exec.AggMax, Arg: col(2), Name: "hi"},
		{Kind: exec.AggAvg, Arg: col(2), Name: "mean"},
	}
	pred := testPred()
	want, err := exec.Collect(&exec.GroupBy{
		Ctx: e.Ctx, Child: &exec.SeqScan{Ctx: e.Ctx, File: tbl.File, Filter: pred}, GroupBy: groupBy, Aggs: aggs,
	})
	if err != nil {
		t.Fatal(err)
	}
	va := &Agg{
		Ctx:     e.Ctx,
		Child:   &Scan{Ctx: e.Ctx, File: tbl.File, Pred: pred, BatchSize: 64},
		GroupBy: groupBy, Aggs: aggs,
	}
	got := collectVec(t, va)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("vector agg differs from row agg:\n got %v\nwant %v", got, want)
	}
	if !reflect.DeepEqual(va.Schema().Names(), []string{"g0", "total", "n", "lo", "hi", "mean"}) {
		t.Fatalf("agg schema = %v", va.Schema().Names())
	}
}

// TestScalarAggNoGroups checks the no-group degenerate case (one output row).
func TestScalarAggNoGroups(t *testing.T) {
	e, tbl := testEngine(t, 100)
	aggs := []exec.AggSpec{{Kind: exec.AggSum, Arg: col(0), Name: "s"}}
	want, err := exec.Collect(&exec.GroupBy{Ctx: e.Ctx, Child: &exec.SeqScan{Ctx: e.Ctx, File: tbl.File}, Aggs: aggs})
	if err != nil {
		t.Fatal(err)
	}
	got := collectVec(t, &Agg{Ctx: e.Ctx, Child: &Scan{Ctx: e.Ctx, File: tbl.File}, Aggs: aggs})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scalar agg differs: got %v want %v", got, want)
	}
}

// TestVectorDemote checks that a vector demotes to the exact fallback
// payload when a kernel produces mixed types, without losing values.
func TestVectorDemote(t *testing.T) {
	arena := memsim.NewArena(1<<20, 1<<20)
	v := NewVector(arena, value.TypeNull, 8)
	v.Set(0, value.Int(4))
	v.Set(1, value.Null())
	v.Set(2, value.Float(2.5)) // mismatch with Int: demotes
	v.Set(3, value.Str("x"))
	want := []value.Value{value.Int(4), value.Null(), value.Float(2.5), value.Str("x")}
	for i, w := range want {
		if got := v.Get(i); !reflect.DeepEqual(got, w) {
			t.Errorf("Get(%d) = %v, want %v", i, got, w)
		}
	}
}

// TestMeterPartition checks the EXPLAIN ENERGY invariant on a metered
// vectorized chain: the per-operator exclusive counters sum exactly to the
// statement's counter delta.
func TestMeterPartition(t *testing.T) {
	e, tbl := testEngine(t, 400)
	ms := exec.NewMeterSet(e.Ctx)
	mScan := &exec.Meter{Label: "scan"}
	mProj := &exec.Meter{Label: "proj", Kids: []*exec.Meter{mScan}}
	mTop := &exec.Meter{Label: "top", Kids: []*exec.Meter{mProj}}
	chain := &Metered{Set: ms, M: mProj, Child: &Project{
		Ctx: e.Ctx,
		Child: &Metered{Set: ms, M: mScan, Child: &Scan{
			Ctx: e.Ctx, File: tbl.File, Pred: testPred(), BatchSize: 128,
		}},
		Exprs: []exec.Expr{col(0), exec.BinOp{Op: exec.OpAdd, L: col(2), R: col(1)}},
	}}
	top := &exec.Metered{Set: ms, M: mTop, Child: &RowSource{Child: chain}}

	before := e.M.Hier.Counters()
	n, err := exec.Drain(top)
	if err != nil {
		t.Fatal(err)
	}
	delta := e.M.Hier.Counters().Sub(before)
	sum := mScan.Own().Add(mProj.Own()).Add(mTop.Own())
	if sum != delta {
		t.Fatalf("metered sum %+v != statement delta %+v", sum, delta)
	}
	if inc := mTop.Inclusive(); inc != delta {
		t.Fatalf("root inclusive %+v != statement delta %+v", inc, delta)
	}
	if mProj.Rows() != n || mTop.Rows() != n {
		t.Fatalf("meter rows scan=%d proj=%d top=%d, drained %d",
			mScan.Rows(), mProj.Rows(), mTop.Rows(), n)
	}
}

// TestCancelVecScan checks that a pre-armed cancel flag stops a vectorized
// scan at its per-batch checkpoint.
func TestCancelVecScan(t *testing.T) {
	e, tbl := testEngine(t, 300)
	var flag atomic.Bool
	flag.Store(true)
	e.Ctx.Cancel = &flag
	_, err := exec.Drain(&RowSource{Child: &Scan{Ctx: e.Ctx, File: tbl.File, BatchSize: 32}})
	if err != exec.ErrCanceled {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestVecCheaperPerRow checks the premise of the planner's mode choice: on a
// full-table filter the vector path advances strictly fewer counters per row
// than the row path, while a tiny input keeps the row path cheaper in total
// (batch dispatch overhead dominates).
func TestVecCheaperPerRow(t *testing.T) {
	e, tbl := testEngine(t, 2000)
	pred := testPred()

	before := e.M.Hier.Counters()
	if _, err := exec.Drain(&exec.SeqScan{Ctx: e.Ctx, File: tbl.File, Filter: pred}); err != nil {
		t.Fatal(err)
	}
	rowDelta := e.M.Hier.Counters().Sub(before)

	before = e.M.Hier.Counters()
	if _, err := exec.Drain(&RowSource{Child: &Scan{Ctx: e.Ctx, File: tbl.File, Pred: pred}}); err != nil {
		t.Fatal(err)
	}
	vecDelta := e.M.Hier.Counters().Sub(before)

	if vecDelta.L1DAccesses >= rowDelta.L1DAccesses {
		t.Errorf("vector L1D %d >= row L1D %d on 2000 rows", vecDelta.L1DAccesses, rowDelta.L1DAccesses)
	}
	if vecDelta.Instructions() >= rowDelta.Instructions() {
		t.Errorf("vector instructions %d >= row instructions %d on 2000 rows",
			vecDelta.Instructions(), rowDelta.Instructions())
	}
}
