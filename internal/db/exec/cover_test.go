package exec

import (
	"strings"
	"testing"

	"energydb/internal/db/btree"
	"energydb/internal/db/value"
	"energydb/internal/memsim"
)

func TestIndexJoinOperator(t *testing.T) {
	f := newFixture(t, 60)
	idx := btree.New(f.ctx.M.Hier, f.ctx.Arena, 4096)
	for i := 0; i < f.file.RowCount(); i++ {
		row, _, err := f.file.ReadRow(i)
		if err != nil {
			t.Fatal(err)
		}
		idx.Insert(row[0], i) // index on id
	}
	j := &IndexJoin{
		Ctx:      f.ctx,
		Outer:    &SeqScan{Ctx: f.ctx, File: f.file},
		Inner:    f.file,
		Index:    idx,
		OuterKey: 0,
	}
	if got := len(j.Schema().Columns); got != 8 {
		t.Fatalf("joined schema width = %d, want 8", got)
	}
	n, err := Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	if n != 60 { // self-join on unique key: one match each
		t.Fatalf("index join produced %d rows, want 60", n)
	}
}

func TestIndexJoinResidual(t *testing.T) {
	f := newFixture(t, 40)
	idx := btree.New(f.ctx.M.Hier, f.ctx.Arena, 4096)
	for i := 0; i < f.file.RowCount(); i++ {
		row, _, err := f.file.ReadRow(i)
		if err != nil {
			t.Fatal(err)
		}
		idx.Insert(row[1], i) // index on grp
	}
	j := &IndexJoin{
		Ctx:      f.ctx,
		Outer:    &SeqScan{Ctx: f.ctx, File: f.file},
		Inner:    f.file,
		Index:    idx,
		OuterKey: 1,
		Residual: BinOp{OpLt, Col{Idx: 0}, Col{Idx: 4}}, // outer.id < inner.id
	}
	n, err := Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	// 40 rows, 5 groups of 8: pairs within group with outer<inner = 8*7/2
	// per group * 5 groups = 140.
	if n != 140 {
		t.Fatalf("residual index join produced %d rows, want 140", n)
	}
}

func TestExpressionStrings(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{Col{Idx: 2}, "$2"},
		{Col{Idx: 2, Name: "amt"}, "amt"},
		{Const{value.Int(5)}, "5"},
		{BinOp{OpAdd, Col{Name: "a", Idx: 0}, Const{value.Int(1)}}, "(a + 1)"},
		{Not{Const{value.Int(0)}}, "NOT 0"},
		{Like{Col{Name: "s", Idx: 0}, "x%"}, `s LIKE "x%"`},
		{InList{Col{Name: "c", Idx: 0}, []value.Value{value.Int(1)}}, "c IN (...1)"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	if n := (InList{Col{Idx: 0}, []value.Value{value.Int(1), value.Int(2)}}).Nodes(); n != 4 {
		t.Errorf("InList nodes = %d, want 1 + expr + list", n)
	}
	if n := (Like{Col{Idx: 0}, "x"}).Nodes(); n != 3 {
		t.Errorf("Like nodes = %d", n)
	}
}

func TestAggKindStrings(t *testing.T) {
	names := map[AggKind]string{
		AggSum: "sum", AggAvg: "avg", AggCount: "count", AggMin: "min", AggMax: "max",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("AggKind(%d) = %q", k, k.String())
		}
	}
	if AggKind(99).String() != "unknown" {
		t.Error("out-of-range agg kind")
	}
}

func TestGroupBySchemaNames(t *testing.T) {
	f := newFixture(t, 10)
	g := &GroupBy{
		Ctx:     f.ctx,
		Child:   &SeqScan{Ctx: f.ctx, File: f.file},
		GroupBy: []Expr{Col{Idx: 1}},
		Aggs:    []AggSpec{{Kind: AggSum, Arg: Col{Idx: 2}, Name: "total"}},
	}
	names := g.Schema().Names()
	if names[0] != "g0" || names[1] != "total" {
		t.Fatalf("group schema names = %v", names)
	}
}

func TestTruthy(t *testing.T) {
	cases := []struct {
		v    value.Value
		want bool
	}{
		{value.Int(0), false}, {value.Int(1), true},
		{value.Float(0), false}, {value.Float(0.1), true},
		{value.Str(""), false}, {value.Str("x"), true},
		{value.Null(), false}, {value.Date(3), true},
	}
	for _, c := range cases {
		if Truthy(c.v) != c.want {
			t.Errorf("Truthy(%v) != %v", c.v, c.want)
		}
	}
}

func TestCtxHotRelocation(t *testing.T) {
	f := newFixture(t, 1)
	ctx := NewCtx(f.ctx.M, f.dev.Arena,
		CostModel{TupleLoads: 30, TupleStores: 10, TupleInstr: 5})
	ctx.RelocateHot(0x7000_0000)
	if ctx.HotBytes() == 0 {
		t.Fatal("hot bytes zero")
	}
	before := ctx.M.Hier.Counters()
	ctx.TupleCost()
	d := ctx.M.Hier.Counters().Sub(before)
	if d.Loads != 30 || d.Stores != 10 {
		t.Fatalf("TupleCost issued %d loads, %d stores", d.Loads, d.Stores)
	}
}

func TestHashJoinSchemaAndClose(t *testing.T) {
	f := newFixture(t, 10)
	j := &HashJoin{
		Ctx:      f.ctx,
		Build:    &SeqScan{Ctx: f.ctx, File: f.file},
		Probe:    &SeqScan{Ctx: f.ctx, File: f.file},
		BuildKey: 1,
		ProbeKey: 1,
	}
	names := j.Schema().Names()
	if len(names) != 8 || !strings.Contains(strings.Join(names, ","), "id") {
		t.Fatalf("hash join schema = %v", names)
	}
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestNestedLoopJoinSchema(t *testing.T) {
	f := newFixture(t, 5)
	j := &NestedLoopJoin{
		Ctx:   f.ctx,
		Outer: &SeqScan{Ctx: f.ctx, File: f.file},
		Inner: &SeqScan{Ctx: f.ctx, File: f.file},
	}
	if got := len(j.Schema().Columns); got != 8 {
		t.Fatalf("NLJ schema width = %d", got)
	}
	// No predicate: full cross product.
	n, err := Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	if n != 25 {
		t.Fatalf("cross product = %d rows, want 25", n)
	}
}

func TestLoadRepeatKindSanity(t *testing.T) {
	// Guard: the ctx hot path must stay within its allocation.
	f := newFixture(t, 1)
	for i := 0; i < 100; i++ {
		f.ctx.TupleCost()
		f.ctx.EvalCost(3)
		f.ctx.Compute(2)
	}
	if f.ctx.M.Hier.Counters().Loads == 0 {
		t.Fatal("no loads issued")
	}
	_ = memsim.LineSize
}
