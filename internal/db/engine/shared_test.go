package engine

import (
	"sync"
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/db/catalog"
	"energydb/internal/db/exec"
	"energydb/internal/db/value"
)

// TestSharedView checks the per-worker engine path: a second engine view
// over one store sees tables, rows and indexes created through the first,
// and scanning through it drives only its own machine.
func TestSharedView(t *testing.T) {
	e := newEngine(t, SQLite, SettingBaseline)
	tbl := loadSample(t, e, 200)

	m2 := cpusim.NewMachine(cpusim.IntelI7_4790())
	e2 := e.Shared().View(m2)
	if e2.Tables() != e.Tables() {
		t.Fatalf("view sees %d tables, base %d", e2.Tables(), e.Tables())
	}
	tbl2, err := e2.Table("sample")
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.File.RowCount() != tbl.File.RowCount() {
		t.Fatalf("view rows %d != base rows %d", tbl2.File.RowCount(), tbl.File.RowCount())
	}
	if tbl2.Index("k") == nil {
		t.Fatal("view does not see the index built through the base engine")
	}

	before := e.M.Hier.Counters()
	before2 := m2.Hier.Counters()
	n, err := e2.Run(&exec.SeqScan{Ctx: e2.Ctx, File: tbl2.File})
	if err != nil {
		t.Fatal(err)
	}
	if n != 200 {
		t.Fatalf("view scan returned %d rows, want 200", n)
	}
	if e.M.Hier.Counters() != before {
		t.Fatal("view scan advanced the base engine's machine")
	}
	if m2.Hier.Counters() == before2 {
		t.Fatal("view scan did not advance the view's machine")
	}

	// Index lookups through the view hit the shared structure.
	lo := value.Int(50)
	hi := value.Int(59)
	op := &exec.IndexScan{Ctx: e2.Ctx, File: tbl2.File, Tree: tbl2.Index("k"), Lo: &lo, Hi: &hi}
	if n, err := e2.Run(op); err != nil || n != 10 {
		t.Fatalf("view index range = (%d, %v), want 10 rows", n, err)
	}
}

// TestSharedViewSeesLaterDDL checks a view built before an index existed
// picks it up afterwards (the view's table cache refreshes).
func TestSharedViewSeesLaterDDL(t *testing.T) {
	e := newEngine(t, PostgreSQL, SettingBaseline)
	schema := catalog.NewSchema(
		catalog.Column{Name: "k", Type: value.TypeInt},
		catalog.Column{Name: "grp", Type: value.TypeInt},
		catalog.Column{Name: "v", Type: value.TypeFloat},
	)
	tbl := e.CreateTable("sample", schema)
	for i := 0; i < 50; i++ {
		e.Insert(tbl, value.Row{value.Int(int64(i)), value.Int(int64(i % 7)), value.Float(float64(i))})
	}

	m2 := cpusim.NewMachine(cpusim.IntelI7_4790())
	e2 := e.Shared().View(m2)
	t2, err := e2.Table("sample")
	if err != nil {
		t.Fatal(err)
	}
	if t2.Index("k") != nil {
		t.Fatal("index exists before CreateIndex")
	}
	e.CreateIndex(tbl, "k")
	t2, err = e2.Table("sample")
	if err != nil {
		t.Fatal(err)
	}
	if t2.Index("k") == nil {
		t.Fatal("view table cache did not refresh after CreateIndex on the base")
	}
}

// TestSharedParallelReaders checks the MVCC statement contract: many
// workers scanning under per-statement snapshots while a writer inserts
// concurrently, race-free, with no reader ever blocking on the writer and a
// consistent final count.
func TestSharedParallelReaders(t *testing.T) {
	e := newEngine(t, SQLite, SettingBaseline)
	tbl := loadSample(t, e, 300)
	sh := e.Shared()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := cpusim.NewMachine(cpusim.IntelI7_4790())
			ev := sh.View(m)
			for i := 0; i < 5; i++ {
				vt, err := ev.Table("sample")
				if err != nil {
					t.Error(err)
					return
				}
				n, err := ev.Run(&exec.SeqScan{Ctx: ev.Ctx, File: vt.File})
				if err != nil {
					t.Error(err)
					return
				}
				if n < 300 {
					t.Errorf("scan saw %d rows, want >= 300", n)
					return
				}
			}
		}()
	}
	// Concurrent writer: Insert publishes committed versions internally.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			e.Insert(tbl, value.Row{value.Int(int64(1000 + i)), value.Int(0), value.Float(0)})
		}
	}()
	wg.Wait()
	if got := tbl.File.RowCount(); got != 320 {
		t.Fatalf("final row count %d, want 320", got)
	}
}

// TestUpdateWhereStillWorks guards the write operator over a full scan.
func TestUpdateWhereStillWorks(t *testing.T) {
	e := newEngine(t, PostgreSQL, SettingBaseline)
	tbl := loadSample(t, e, 50)
	n, err := updateWhere(e, tbl, nil, func(r value.Row) value.Row {
		r[2] = value.Float(1.5)
		return r
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Fatalf("updated %d rows, want 50", n)
	}
	row, visible, err := tbl.File.ReadRow(7)
	if err != nil {
		t.Fatal(err)
	}
	if !visible {
		t.Fatal("committed update not visible to a fresh snapshot")
	}
	if row[2].F != 1.5 {
		t.Fatalf("row not updated: %v", row)
	}
}

// TestScanDirectionUnderConcurrentWrites: a reader inside a transaction batch-
// scans a table longer than its machine's L3 six times — so front to back and
// back to front in turn — while another view commits deletes, updates and
// inserts to it. Every scan returns the rows of the reader's snapshot, slot
// for slot, whichever way it walked; the writer's view, which ran no batch
// scan, still points forward. Run under -race this is also the proof that a
// direction belongs to one view.
func TestScanDirectionUnderConcurrentWrites(t *testing.T) {
	small := cpusim.IntelI7_4790()
	small.Mem.L2.SizeBytes, small.Mem.L3.SizeBytes = 64<<10, 256<<10
	e := New(PostgreSQL, cpusim.NewMachine(small), SettingBaseline)
	const rows = 12000
	tbl := loadSample(t, e, rows)
	if !tbl.File.Alternates() {
		t.Fatal("sample fits the L3")
	}
	reader := e.Shared().View(cpusim.NewMachine(small))
	rt, err := reader.Table("sample")
	if err != nil {
		t.Fatal(err)
	}
	rtx := reader.Begin()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			tx := e.Begin()
			if err := tbl.File.DeleteTxn(tx, i*37); err != nil {
				t.Error(err)
			}
			if _, err := tbl.File.UpdateTxn(tx, i*37+1, value.Row{value.Int(-1), value.Int(0), value.Float(0)}); err != nil {
				t.Error(err)
			}
			e.InsertTxn(tx, tbl, value.Row{value.Int(int64(rows + i)), value.Int(0), value.Float(0)})
			if err := e.Commit(tx); err != nil {
				t.Error(err)
			}
		}
	}()
	for i := 0; i < 6; i++ {
		sc := rt.File.BatchScan(500)
		seen, first := 0, -1
		for {
			batch, base, ok := sc.NextBatch()
			if !ok {
				break
			}
			if first < 0 {
				first = base
			}
			for j, r := range batch {
				id := base + j
				switch {
				case id >= rows && r != nil:
					t.Fatalf("scan %d: slot %d, inserted after the snapshot, is visible", i, id)
				case id < rows && (r == nil || r[0].I != int64(id)):
					t.Fatalf("scan %d: slot %d reads %v under the reader's snapshot", i, id, r)
				case id < rows:
					seen++
				}
			}
		}
		if seen != rows {
			t.Fatalf("scan %d saw %d rows, want %d", i, seen, rows)
		}
		if want := i%2 == 1; sc.Reverse() != want || (first == 0) == want {
			t.Fatalf("scan %d: reverse=%v, first batch at %d", i, sc.Reverse(), first)
		}
	}
	wg.Wait()
	if err := reader.Commit(rtx); err != nil {
		t.Fatal(err)
	}
	sc := tbl.File.BatchScan(500)
	if _, base, ok := sc.NextBatch(); !ok || base != 0 || sc.Reverse() {
		t.Fatalf("the writer's first batch scan starts at %d, reverse=%v", base, sc.Reverse())
	}
	if f, r := tbl.File.Data().ScanCounts(); f != 4 || r != 3 {
		t.Fatalf("scan counts forward %d reverse %d, want 4 and 3", f, r)
	}
}
