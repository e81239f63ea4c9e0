package tpch

import (
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/db/engine"
	"energydb/internal/db/exec"
	"energydb/internal/db/plan"
	"energydb/internal/db/value"
)

// testEngine loads the smallest class into an engine of the given kind.
func testEngine(t *testing.T, kind engine.Kind) *engine.Engine {
	t.Helper()
	m := cpusim.NewMachine(cpusim.IntelI7_4790())
	e := engine.New(kind, m, engine.SettingBaseline)
	Setup(e, Size10MB)
	return e
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Size10MB, 7421)
	b := Generate(Size10MB, 7421)
	if a.Rows() != b.Rows() {
		t.Fatalf("row counts differ: %d vs %d", a.Rows(), b.Rows())
	}
	for i := range a.Lineitem {
		for j := range a.Lineitem[i] {
			if a.Lineitem[i][j] != b.Lineitem[i][j] {
				t.Fatalf("lineitem[%d][%d] differs", i, j)
			}
		}
	}
}

func TestCardinalitiesScale(t *testing.T) {
	small := CardinalitiesFor(Size100MB)
	big := CardinalitiesFor(Size1GB)
	if big.Lineitem <= small.Lineitem*5 {
		t.Fatalf("1GB lineitem %d should be ~10x of 100MB %d", big.Lineitem, small.Lineitem)
	}
	if small.Nation != 25 || small.Region != 5 {
		t.Fatal("fixed tables must keep TPC-H cardinalities")
	}
}

func TestGeneratedKeysAreValid(t *testing.T) {
	d := Generate(Size10MB, 1)
	card := CardinalitiesFor(Size10MB)
	for _, r := range d.Lineitem {
		if k := r[0].AsInt(); k < 0 || k >= int64(len(d.Orders)) {
			t.Fatalf("l_orderkey %d out of range", k)
		}
		if k := r[1].AsInt(); k < 0 || k >= int64(len(d.Part)) {
			t.Fatalf("l_partkey %d out of range", k)
		}
		if k := r[2].AsInt(); k < 0 || k >= int64(len(d.Supplier)) {
			t.Fatalf("l_suppkey %d out of range", k)
		}
	}
	for _, r := range d.Orders {
		if k := r[1].AsInt(); k < 0 || k >= int64(card.Customer) {
			t.Fatalf("o_custkey %d out of range", k)
		}
	}
}

func TestLoadBuildsTablesAndIndexes(t *testing.T) {
	e := testEngine(t, engine.SQLite)
	if e.Tables() != 8 {
		t.Fatalf("tables = %d, want 8", e.Tables())
	}
	li := e.MustTable("lineitem")
	if li.File.RowCount() == 0 {
		t.Fatal("lineitem empty")
	}
	if li.Index("l_orderkey") == nil || li.Index("l_shipdate") == nil {
		t.Fatal("lineitem indexes missing")
	}
}

// TestAllQueriesRunOnAllEngines is the big integration check: every query
// text plans and drains on every engine profile, and row counts agree
// across engines (same data, same semantics, different physical plans).
func TestAllQueriesRunOnAllEngines(t *testing.T) {
	counts := make(map[int]map[engine.Kind]int)
	for _, kind := range engine.Kinds() {
		e := testEngine(t, kind)
		for _, q := range SQLQueries() {
			rows, _, err := plan.Run(e, q.Text)
			if err != nil {
				t.Fatalf("%v Q%d: %v", kind, q.ID, err)
			}
			if counts[q.ID] == nil {
				counts[q.ID] = make(map[engine.Kind]int)
			}
			counts[q.ID][kind] = len(rows)
		}
	}
	for id, byKind := range counts {
		pg := byKind[engine.PostgreSQL]
		for kind, n := range byKind {
			if n != pg {
				t.Errorf("Q%d row count differs: %v=%d PostgreSQL=%d", id, kind, n, pg)
			}
		}
	}
}

// runText plans and drains TPC-H query id's text on the engine.
func runText(t *testing.T, e *engine.Engine, id int) []value.Row {
	t.Helper()
	q, err := SQLByID(id)
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := plan.Run(e, q.Text)
	if err != nil {
		t.Fatalf("Q%d: %v", id, err)
	}
	return rows
}

func TestQ1ProducesKnownGroups(t *testing.T) {
	rows := runText(t, testEngine(t, engine.PostgreSQL), 1)
	// returnflag in {A,N,R} x linestatus in {F,O}: at most 6, at least 3.
	if len(rows) < 3 || len(rows) > 6 {
		t.Fatalf("Q1 groups = %d", len(rows))
	}
	for _, r := range rows {
		count := r[len(r)-1].AsInt()
		if count <= 0 {
			t.Fatalf("Q1 group with non-positive count: %v", r)
		}
	}
}

func TestQ6SelectivityIsPlausible(t *testing.T) {
	rows := runText(t, testEngine(t, engine.SQLite), 6)
	if len(rows) != 1 {
		t.Fatalf("Q6 rows = %d, want 1 scalar", len(rows))
	}
	if rows[0][0].AsFloat() <= 0 {
		t.Fatalf("Q6 revenue = %v, want positive", rows[0][0])
	}
}

// basicOpResults10MB pins each basic operation's row count and resultDigest
// (no column names; ordered only for sort) on the deterministic 10MB dataset.
var basicOpResults10MB = map[string]struct {
	rows   int
	digest uint64
}{
	"select":     {170, 0x47bd2588c5a05d26},
	"projection": {5937, 0x076c677ef9feba7f},
	"join":       {5937, 0x59029d9bd8f2a252},
	"sort":       {5937, 0xd61ac68a4408e0e5},
	"groupby":    {21, 0x8ca32dc36002eb59},
	"table scan": {5937, 0xf85118b3a20f6a5d},
	"index scan": {2828, 0xf7649e62c3fe6b60},
}

// TestBasicOpsRun holds every basic operation's text, on every profile, free
// and under DisableVectorExec, to its pinned row count and digest.
func TestBasicOpsRun(t *testing.T) {
	for _, kind := range engine.Kinds() {
		e := testEngine(t, kind)
		for _, op := range BasicOps() {
			for _, row := range []bool{false, true} {
				e.Knobs.DisableVectorExec = row
				rows, _, err := plan.Run(e, op.Text)
				if err != nil {
					t.Fatalf("%v %s row=%v: %v", kind, op.Name, row, err)
				}
				want := basicOpResults10MB[op.Name]
				if got := resultDigest(nil, rows, op.Name == "sort"); len(rows) != want.rows || got != want.digest {
					t.Errorf("%v %s row=%v: %d rows, digest %#016x; want %d, %#016x",
						kind, op.Name, row, len(rows), got, want.rows, want.digest)
				}
			}
		}
	}
	if _, err := BasicOpByName("bogus"); err == nil {
		t.Fatal("expected error for unknown op")
	}
}

func TestIndexScanMatchesTableScanFilterCount(t *testing.T) {
	e := testEngine(t, engine.PostgreSQL)
	li := e.MustTable("lineitem")
	lo, hi := value.Date(MkDate(1993, 0)), value.Date(MkDate(1996, 0))
	nIdx, err := e.Run(&exec.IndexScan{Ctx: e.Ctx, File: li.File, Tree: li.Index("l_shipdate"), Lo: &lo, Hi: &hi})
	if err != nil {
		t.Fatal(err)
	}
	shipdate := exec.Col{Idx: li.Schema().MustColIndex("l_shipdate")}
	nScan, err := e.Run(&exec.SeqScan{Ctx: e.Ctx, File: li.File, Filter: exec.BinOp{Op: exec.OpAnd,
		L: exec.BinOp{Op: exec.OpGe, L: shipdate, R: exec.Const{V: lo}},
		R: exec.BinOp{Op: exec.OpLe, L: shipdate, R: exec.Const{V: hi}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if nIdx != nScan {
		t.Fatalf("index scan %d rows, table scan %d rows", nIdx, nScan)
	}
	if nIdx == 0 {
		t.Fatal("range matched nothing")
	}
}

func TestMkDate(t *testing.T) {
	if MkDate(1992, 0) != 0 {
		t.Fatal("epoch wrong")
	}
	if MkDate(1995, 74) != 3*365+74 {
		t.Fatal("1995-03-15 wrong")
	}
}
