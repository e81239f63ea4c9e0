package engine

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/db/catalog"
	"energydb/internal/db/exec"
	"energydb/internal/db/txn"
	"energydb/internal/db/value"
)

func newEngine(t *testing.T, kind Kind, setting Setting) *Engine {
	t.Helper()
	m := cpusim.NewMachine(cpusim.IntelI7_4790())
	return New(kind, m, setting)
}

func loadSample(t *testing.T, e *Engine, rows int) *Table {
	t.Helper()
	schema := catalog.NewSchema(
		catalog.Column{Name: "k", Type: value.TypeInt},
		catalog.Column{Name: "grp", Type: value.TypeInt},
		catalog.Column{Name: "v", Type: value.TypeFloat},
	)
	tbl := e.CreateTable("sample", schema)
	for i := 0; i < rows; i++ {
		e.Insert(tbl, value.Row{value.Int(int64(i)), value.Int(int64(i % 7)), value.Float(float64(i))})
	}
	e.CreateIndex(tbl, "k")
	return tbl
}

func TestKnobsMatchTable4(t *testing.T) {
	// PostgreSQL baseline: shared_buffers 128MB (1:10).
	k := KnobsFor(PostgreSQL, SettingBaseline)
	if k.BufferBytes != 128<<20/10 {
		t.Fatalf("PG baseline knobs = %+v", k)
	}
	if k.PageBytes != 8<<10 {
		t.Fatalf("PG page size = %d", k.PageBytes)
	}
	// SQLite small: 2000 pages x 4KB.
	k = KnobsFor(SQLite, SettingSmall)
	if k.PageBytes != 4<<10 || k.BufferBytes != 2000*(4<<10)/10 {
		t.Fatalf("SQLite small knobs = %+v", k)
	}
	// MySQL large: 16KB pages, 1024MB pool.
	k = KnobsFor(MySQL, SettingLarge)
	if k.PageBytes != 16<<10 || k.BufferBytes != 1024<<20/10 {
		t.Fatalf("MySQL large knobs = %+v", k)
	}
	// Settings must be ordered: small < baseline < large.
	for _, kind := range Kinds() {
		s := KnobsFor(kind, SettingSmall).BufferBytes
		b := KnobsFor(kind, SettingBaseline).BufferBytes
		l := KnobsFor(kind, SettingLarge).BufferBytes
		if !(s < b && b < l) {
			t.Errorf("%v buffer knobs not increasing: %d/%d/%d", kind, s, b, l)
		}
	}
}

func TestInsertAndScan(t *testing.T) {
	e := newEngine(t, SQLite, SettingBaseline)
	tbl := loadSample(t, e, 500)
	n, err := e.Run(&exec.SeqScan{Ctx: e.Ctx, File: tbl.File})
	if err != nil {
		t.Fatal(err)
	}
	if n != 500 {
		t.Fatalf("scanned %d rows", n)
	}
}

func TestIndexScanRange(t *testing.T) {
	e := newEngine(t, PostgreSQL, SettingBaseline)
	tbl := loadSample(t, e, 500)
	lo, hi := value.Int(100), value.Int(199)
	n, err := e.Run(&exec.IndexScan{Ctx: e.Ctx, File: tbl.File, Tree: tbl.Index("k"), Lo: &lo, Hi: &hi})
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("index range returned %d rows, want 100", n)
	}
	if tbl.Index("v") != nil {
		t.Fatal("unindexed column has an index")
	}
}

// TestJoinStrategiesAgreeOnResults joins a table's grp column to its indexed
// key both ways, on every profile: the index nested loop and the hash join
// must return the same rows.
func TestJoinStrategiesAgreeOnResults(t *testing.T) {
	for _, kind := range Kinds() {
		e := newEngine(t, kind, SettingBaseline)
		tbl := loadSample(t, e, 300)
		scan := func() exec.Operator { return &exec.SeqScan{Ctx: e.Ctx, File: tbl.File} }
		e.BeginRead()
		index, err := exec.Collect(&exec.IndexJoin{
			Ctx: e.Ctx, Outer: scan(), Inner: tbl.File, Index: tbl.Index("k"), OuterKey: 1, // grp
		})
		if err != nil {
			t.Fatal(err)
		}
		hash, err := exec.Collect(&exec.HashJoin{
			Ctx: e.Ctx, Build: scan(), Probe: scan(), BuildKey: 0, ProbeKey: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(index) == 0 || !sameRows(index, hash) {
			t.Fatalf("%v: index join %d rows, hash join %d rows, or their rows differ", kind, len(index), len(hash))
		}
	}
}

// sameRows says whether a and b hold the same rows, in any order.
func sameRows(a, b []value.Row) bool {
	key := func(rows []value.Row) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprint(r)
		}
		slices.Sort(out)
		return out
	}
	return slices.Equal(key(a), key(b))
}

func TestUnknownTable(t *testing.T) {
	e := newEngine(t, MySQL, SettingSmall)
	if _, err := e.Table("missing"); err == nil {
		t.Fatal("expected error")
	}
}

func TestKindAndSettingStrings(t *testing.T) {
	if PostgreSQL.String() != "PostgreSQL" || SQLite.String() != "SQLite" || MySQL.String() != "MySQL" {
		t.Fatal("kind names wrong")
	}
	if SettingSmall.String() != "small" || SettingBaseline.String() != "baseline" || SettingLarge.String() != "large" {
		t.Fatal("setting names wrong")
	}
}

func TestUpdateWhere(t *testing.T) {
	e := newEngine(t, PostgreSQL, SettingBaseline)
	tbl := loadSample(t, e, 400)
	n, err := updateWhere(e, tbl,
		exec.BinOp{Op: exec.OpLt, L: exec.Col{Idx: 0}, R: exec.Const{V: value.Int(100)}},
		func(r value.Row) value.Row {
			r[2] = value.Float(r[2].AsFloat() + 1000)
			return r
		})
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("updated %d rows, want 100", n)
	}
	// Values visible through a scan.
	rows, err := exec.Collect(&exec.SeqScan{Ctx: e.Ctx, File: tbl.File, Filter: exec.BinOp{Op: exec.OpGe,
		L: exec.Col{Idx: 2}, R: exec.Const{V: value.Float(1000)}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 {
		t.Fatalf("scan sees %d updated rows, want 100", len(rows))
	}
	// WAL recorded the statement.
	if e.WAL() == nil || e.WAL().Records.Load() == 0 || e.WAL().Syncs.Load() == 0 {
		t.Fatalf("WAL not written: records=%d syncs=%d",
			e.WAL().Records.Load(), e.WAL().Syncs.Load())
	}
	// Dirty pages exist until checkpoint.
	if e.Pool.DirtyCount() == 0 {
		t.Fatal("no dirty pages after updates")
	}
	written := e.Checkpoint()
	if written == 0 || e.Pool.DirtyCount() != 0 {
		t.Fatalf("checkpoint wrote %d, dirty left %d", written, e.Pool.DirtyCount())
	}
}

func TestUpdateWhereRejectsIndexedColumn(t *testing.T) {
	e := newEngine(t, SQLite, SettingBaseline)
	tbl := loadSample(t, e, 50)
	_, err := updateWhere(e, tbl, nil, func(r value.Row) value.Row {
		r[0] = value.Int(r[0].AsInt() + 1) // k is indexed
		return r
	})
	if err == nil {
		t.Fatal("expected error for indexed-column update")
	}
}

func TestJournalModesByProfile(t *testing.T) {
	if newEngine(t, SQLite, SettingSmall).Journal() != JournalRollback {
		t.Fatal("SQLite should use the rollback journal")
	}
	if newEngine(t, PostgreSQL, SettingSmall).Journal() != JournalWAL {
		t.Fatal("PostgreSQL should use WAL")
	}
}

func TestRollbackJournalCopiesPagesOnce(t *testing.T) {
	e := newEngine(t, SQLite, SettingBaseline)
	tbl := loadSample(t, e, 400)
	if _, err := updateWhere(e, tbl, nil, func(r value.Row) value.Row {
		r[2] = value.Float(0)
		return r
	}); err != nil {
		t.Fatal(err)
	}
	// Rollback journal: every row logs a logical record for replay (400
	// updates + the commit), but only the first touch of each page pays a
	// full page image — later rows on the same page journal just their
	// after-image, so bytes stay page-granular, not row-count-granular.
	if got := e.WAL().Records.Load(); got != 401 {
		t.Fatalf("journal records = %d, want 401 (400 rows + commit)", got)
	}
	pages := uint64(tbl.File.PageCount())
	minBytes := pages * uint64(e.Knobs.PageBytes)
	maxBytes := minBytes + 400*uint64(tbl.Schema().RowWidth()) + 401*64
	got := e.WAL().Bytes.Load()
	if got < minBytes || got > maxBytes {
		t.Fatalf("journal bytes = %d, want one page image per touched page plus row records (%d..%d)",
			got, minBytes, maxBytes)
	}
}

// TestLogBytesMatchesJournal holds the planner's log estimate to the bytes a
// write appends under the rollback journal, on both heap layouts: a column
// heap's UPDATE journals a page image per run, its DELETE the tuple header's
// page alone, and a row-major heap one image per page either way. A keyed
// write is exact. Over many rows a column heap's estimate may fall short by
// a few row records: a row whose change opens pages in several runs at once
// (slot 0 opens one in each) gives up one record for all its images.
func TestLogBytesMatchesJournal(t *testing.T) {
	const rows = 4000
	key := func(k int64) exec.Expr {
		return exec.BinOp{Op: exec.OpEq, L: exec.Col{Idx: 0}, R: exec.Const{V: value.Int(k)}}
	}
	grp3 := exec.BinOp{Op: exec.OpEq, L: exec.Col{Idx: 1}, R: exec.Const{V: value.Int(3)}}
	setV := func(r value.Row) (value.Row, error) {
		r[2] = value.Float(17)
		return r, nil
	}
	for _, layout := range []struct {
		name     string
		rowMajor bool
	}{{"row-major", true}, {"column", false}} {
		for _, c := range []struct {
			name string
			pred exec.Expr
			del  bool
		}{
			{"keyed update", key(7), false},
			{"keyed delete", key(7), true},
			{"unindexed update", grp3, false},
			{"unindexed delete", grp3, true},
			{"update every row", nil, false},
		} {
			e := newEngine(t, SQLite, SettingBaseline)
			e.Knobs.DisableVectorExec = layout.rowMajor
			tbl := loadSample(t, e, rows)
			w := &Write{E: e, T: tbl, Child: &exec.SeqScan{Ctx: e.Ctx, File: tbl.File, Filter: c.pred}}
			if !c.del {
				w.Set = setV
			}
			tx := e.Begin()
			e.Bind(tx)
			before := e.WAL().Bytes.Load()
			n, err := exec.Drain(w)
			if err != nil {
				t.Fatal(err)
			}
			got := float64(e.WAL().Bytes.Load() - before)
			est := e.LogBytes(tbl, float64(n), c.del)
			if tol := 0.01 * got; n == 0 || math.Abs(est-got) > tol || n == 1 && est != got {
				t.Errorf("%s heap, %s: %d rows journaled %.0f bytes, estimated %.0f", layout.name, c.name, n, got, est)
			}
			if err := e.Rollback(tx); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// updateWhere runs the write operator over a sequential scan of t filtered by
// pred, as a transaction of its own: the by-hand form of an UPDATE.
func updateWhere(e *Engine, t *Table, pred exec.Expr, set func(value.Row) value.Row) (int, error) {
	return e.Autocommit(func(*txn.Txn) (int, error) {
		return exec.Drain(&Write{E: e, T: t, Child: &exec.SeqScan{Ctx: e.Ctx, File: t.File, Filter: pred},
			Set: func(r value.Row) (value.Row, error) { return set(r), nil }})
	})
}
