package exec

import (
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/db/catalog"
	"energydb/internal/db/storage"
	"energydb/internal/db/value"
)

type fixture struct {
	dev  *storage.Device
	ctx  *Ctx
	file *storage.HeapFile
}

func newFixture(t *testing.T, rows int) *fixture {
	t.Helper()
	m := cpusim.NewMachine(cpusim.IntelI7_4790())
	dev := storage.NewDevice(m, 512<<20)
	pool := storage.NewBufferPool(dev, 8<<20, 8<<10)
	schema := catalog.NewSchema(
		catalog.Column{Name: "id", Type: value.TypeInt},
		catalog.Column{Name: "grp", Type: value.TypeInt},
		catalog.Column{Name: "amt", Type: value.TypeFloat},
		catalog.Column{Name: "tag", Type: value.TypeStr, Width: 16},
	)
	hf := storage.NewHeapFile(dev, pool, schema, 8, storage.Rows)
	tags := []string{"alpha", "beta", "gamma"}
	for i := 0; i < rows; i++ {
		hf.Append(value.Row{
			value.Int(int64(i)),
			value.Int(int64(i % 5)),
			value.Float(float64(i) * 0.5),
			value.Str(tags[i%3]),
		})
	}
	cost := CostModel{TupleInstr: 4, EvalInstr: 2, EvalStores: 1}
	return &fixture{
		dev:  dev,
		ctx:  NewCtx(m, dev.Arena, cost),
		file: hf,
	}
}

func TestSeqScanAll(t *testing.T) {
	f := newFixture(t, 100)
	n, err := Drain(&SeqScan{Ctx: f.ctx, File: f.file})
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("scanned %d rows, want 100", n)
	}
}

func TestSeqScanFilter(t *testing.T) {
	f := newFixture(t, 100)
	pred := BinOp{OpLt, Col{Idx: 0}, Const{value.Int(10)}}
	rows, err := Collect(&SeqScan{Ctx: f.ctx, File: f.file, Filter: pred})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("filtered to %d rows, want 10", len(rows))
	}
}

func TestProjectComputes(t *testing.T) {
	f := newFixture(t, 10)
	p := &Project{
		Ctx:   f.ctx,
		Child: &SeqScan{Ctx: f.ctx, File: f.file},
		Exprs: []Expr{
			BinOp{OpMul, Col{Idx: 2}, Const{value.Float(2)}},
			Col{Idx: 0},
		},
		Names: []string{"double_amt", "id"},
	}
	rows, err := Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	if rows[4][0].AsFloat() != 4.0 { // amt=2.0 doubled
		t.Fatalf("projected value = %v", rows[4][0])
	}
	if p.Schema().Columns[0].Name != "double_amt" {
		t.Fatalf("schema name = %q", p.Schema().Columns[0].Name)
	}
}

func TestGroupByAggregates(t *testing.T) {
	f := newFixture(t, 100)
	g := &GroupBy{
		Ctx:     f.ctx,
		Child:   &SeqScan{Ctx: f.ctx, File: f.file},
		GroupBy: []Expr{Col{Idx: 1}},
		Aggs: []AggSpec{
			{Kind: AggCount},
			{Kind: AggSum, Arg: Col{Idx: 2}},
			{Kind: AggMin, Arg: Col{Idx: 0}},
			{Kind: AggMax, Arg: Col{Idx: 0}},
			{Kind: AggAvg, Arg: Col{Idx: 2}},
		},
	}
	rows, err := Collect(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("groups = %d, want 5", len(rows))
	}
	for _, r := range rows {
		if r[1].AsInt() != 20 {
			t.Fatalf("count = %v, want 20 per group", r[1])
		}
		grp := r[0].AsInt()
		if r[3].AsInt() != grp {
			t.Fatalf("min of group %d = %v", grp, r[3])
		}
		if r[4].AsInt() != 95+grp {
			t.Fatalf("max of group %d = %v", grp, r[4])
		}
	}
}

func TestScalarAggregate(t *testing.T) {
	f := newFixture(t, 100)
	g := &GroupBy{
		Ctx:   f.ctx,
		Child: &SeqScan{Ctx: f.ctx, File: f.file},
		Aggs:  []AggSpec{{Kind: AggSum, Arg: Col{Idx: 0}}},
	}
	rows, err := Collect(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].AsFloat() != 4950 {
		t.Fatalf("sum = %v", rows)
	}
}

func TestSortOrders(t *testing.T) {
	f := newFixture(t, 50)
	s := &Sort{
		Ctx:   f.ctx,
		Child: &SeqScan{Ctx: f.ctx, File: f.file},
		Keys:  []SortKey{{Expr: Col{Idx: 2}, Desc: true}},
	}
	rows, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 50 {
		t.Fatalf("sorted %d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i][2].AsFloat() > rows[i-1][2].AsFloat() {
			t.Fatal("descending sort violated")
		}
	}
}

func TestSortMultiKey(t *testing.T) {
	f := newFixture(t, 30)
	s := &Sort{
		Ctx:   f.ctx,
		Child: &SeqScan{Ctx: f.ctx, File: f.file},
		Keys: []SortKey{
			{Expr: Col{Idx: 1}},             // grp asc
			{Expr: Col{Idx: 0}, Desc: true}, // id desc within grp
		},
	}
	rows, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		a, b := rows[i-1], rows[i]
		if a[1].AsInt() > b[1].AsInt() {
			t.Fatal("primary key order violated")
		}
		if a[1].AsInt() == b[1].AsInt() && a[0].AsInt() < b[0].AsInt() {
			t.Fatal("secondary descending order violated")
		}
	}
}

func TestLimit(t *testing.T) {
	f := newFixture(t, 100)
	n, err := Drain(&Limit{Child: &SeqScan{Ctx: f.ctx, File: f.file}, N: 7})
	if err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Fatalf("limit produced %d rows", n)
	}
}

func TestHashJoin(t *testing.T) {
	f := newFixture(t, 60)
	// Self-join on grp: each of 60 rows matches 12 rows (60/5 per group).
	j := &HashJoin{
		Ctx:      f.ctx,
		Build:    &SeqScan{Ctx: f.ctx, File: f.file},
		Probe:    &SeqScan{Ctx: f.ctx, File: f.file},
		BuildKey: 1,
		ProbeKey: 1,
	}
	n, err := Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	if n != 60*12 {
		t.Fatalf("join produced %d rows, want %d", n, 60*12)
	}
}

func TestHashJoinResidual(t *testing.T) {
	f := newFixture(t, 60)
	// Join on grp but keep only probe.id < build.id.
	j := &HashJoin{
		Ctx:      f.ctx,
		Build:    &SeqScan{Ctx: f.ctx, File: f.file},
		Probe:    &SeqScan{Ctx: f.ctx, File: f.file},
		BuildKey: 1,
		ProbeKey: 1,
		Residual: BinOp{OpLt, Col{Idx: 0}, Col{Idx: 4}},
	}
	n, err := Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	// Per group: 12 rows, pairs with probe<build: 12*11/2 = 66; 5 groups.
	if n != 5*66 {
		t.Fatalf("residual join produced %d rows, want %d", n, 5*66)
	}
}

func TestNestedLoopJoin(t *testing.T) {
	f := newFixture(t, 20)
	j := &NestedLoopJoin{
		Ctx:   f.ctx,
		Outer: &SeqScan{Ctx: f.ctx, File: f.file},
		Inner: &SeqScan{Ctx: f.ctx, File: f.file},
		Pred:  BinOp{OpEq, Col{Idx: 1}, Col{Idx: 5}},
	}
	n, err := Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	if n != 20*4 {
		t.Fatalf("NLJ produced %d rows, want 80", n)
	}
}

func TestMemTableRescan(t *testing.T) {
	f := newFixture(t, 10)
	rows, err := Collect(&SeqScan{Ctx: f.ctx, File: f.file})
	if err != nil {
		t.Fatal(err)
	}
	mt := NewMemTable(f.ctx, f.file.Schema(), rows)
	for pass := 0; pass < 2; pass++ {
		n, err := Drain(mt.Scan())
		if err != nil {
			t.Fatal(err)
		}
		if n != 10 {
			t.Fatalf("pass %d scanned %d", pass, n)
		}
	}
}

func TestExpressions(t *testing.T) {
	row := value.Row{value.Int(5), value.Str("SHIP"), value.Float(2.5)}
	cases := []struct {
		e    Expr
		want value.Value
	}{
		{BinOp{OpAdd, Col{Idx: 0}, Const{value.Int(3)}}, value.Int(8)},
		{BinOp{OpMul, Col{Idx: 2}, Const{value.Float(4)}}, value.Float(10)},
		{BinOp{OpDiv, Col{Idx: 0}, Const{value.Int(0)}}, value.Null()},
		{BinOp{OpEq, Col{Idx: 1}, Const{value.Str("SHIP")}}, value.Int(1)},
		{BinOp{OpAnd, Const{value.Int(1)}, Const{value.Int(0)}}, value.Int(0)},
		{BinOp{OpOr, Const{value.Int(0)}, Const{value.Int(1)}}, value.Int(1)},
		{Not{Const{value.Int(0)}}, value.Int(1)},
		{Like{Col{Idx: 1}, "SH%"}, value.Int(1)},
		{Like{Col{Idx: 1}, "%IP"}, value.Int(1)},
		{Like{Col{Idx: 1}, "%HI%"}, value.Int(1)},
		{Like{Col{Idx: 1}, "AIR"}, value.Int(0)},
		{InList{Col{Idx: 0}, []value.Value{value.Int(4), value.Int(5)}}, value.Int(1)},
		{InList{Col{Idx: 0}, []value.Value{value.Int(4)}}, value.Int(0)},
	}
	for i, c := range cases {
		if got := c.e.Eval(row); !value.Equal(got, c.want) && !(got.IsNull() && c.want.IsNull()) {
			t.Errorf("case %d (%s): got %v, want %v", i, c.e, got, c.want)
		}
	}
}

func TestScanEnergyPatternIsL1DHeavy(t *testing.T) {
	// The structural claim of the paper: a warm sequential scan's access
	// stream is dominated by L1D hits and stores.
	f := newFixture(t, 5000)
	if _, err := Drain(&SeqScan{Ctx: f.ctx, File: f.file}); err != nil {
		t.Fatal(err) // warm pages
	}
	m := f.ctx.M
	before := m.Hier.Counters()
	if _, err := Drain(&SeqScan{Ctx: f.ctx, File: f.file}); err != nil {
		t.Fatal(err)
	}
	d := m.Hier.Counters().Sub(before)
	if d.StoreL1DHitRate() < 0.99 {
		t.Fatalf("store L1D hit rate = %.4f, paper reports 99.86%%", d.StoreL1DHitRate())
	}
	if d.Stores == 0 || d.Loads == 0 {
		t.Fatal("scan issued no stores or loads")
	}
	ratio := float64(d.Stores) / float64(d.Loads)
	if ratio < 0.2 || ratio > 1.5 {
		t.Fatalf("store/load ratio = %.2f, want the paper's ~0.66 regime", ratio)
	}
}
