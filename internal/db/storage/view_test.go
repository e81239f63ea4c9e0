package storage

import (
	"sync"
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/db/txn"
	"energydb/internal/db/value"
)

// TestTableDataView checks the per-worker view path: two HeapFile views
// over one TableData see identical rows while driving their own machines.
func TestTableDataView(t *testing.T) {
	devA := newDev(t)
	poolA := NewBufferPool(devA, 64<<10, 8<<10)
	hf := NewHeapFile(devA, poolA, testSchema(), 8)
	for i := 0; i < 100; i++ {
		hf.Append(value.Row{value.Int(int64(i)), value.Float(float64(i)), value.Str("x")})
	}

	devB := newDev(t)
	poolB := NewBufferPool(devB, 64<<10, 8<<10)
	view := hf.Data().View(devB, poolB)

	if view.RowCount() != hf.RowCount() {
		t.Fatalf("view rows %d != base rows %d", view.RowCount(), hf.RowCount())
	}
	if view.RowsPerPage() != hf.RowsPerPage() || view.TupleOverhead() != hf.TupleOverhead() {
		t.Fatal("view geometry differs from base")
	}

	beforeA := devA.M.Hier.Counters()
	beforeB := devB.M.Hier.Counters()
	row, _, err := view.FetchRow(42)
	if err != nil {
		t.Fatal(err)
	}
	if row[0].I != 42 {
		t.Fatalf("view read wrong row: %v", row)
	}
	if devA.M.Hier.Counters() != beforeA {
		t.Fatal("reading through the view advanced the base machine's counters")
	}
	if devB.M.Hier.Counters() == beforeB {
		t.Fatal("reading through the view did not advance the view machine's counters")
	}

	// Committed writes through one view are visible to the other.
	mgr := txn.NewManager()
	tx := mgr.Begin()
	if _, err := view.UpdateTxn(tx, 42, value.Row{value.Int(-1), value.Float(0), value.Str("y")}); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Commit(tx); err != nil {
		t.Fatal(err)
	}
	devA.Snap = mgr.Pin()
	row, _, err = hf.FetchRow(42)
	if err != nil {
		t.Fatal(err)
	}
	if row[0].I != -1 {
		t.Fatalf("update through view not visible to base: %v", row)
	}
}

// TestTableDataConcurrentReaders checks raw TableData locking: many
// goroutines scanning their own views of one table race-free.
func TestTableDataConcurrentReaders(t *testing.T) {
	devA := newDev(t)
	poolA := NewBufferPool(devA, 64<<10, 8<<10)
	hf := NewHeapFile(devA, poolA, testSchema(), 8)
	const rows = 500
	for i := 0; i < rows; i++ {
		hf.Append(value.Row{value.Int(int64(i)), value.Float(float64(i)), value.Str("x")})
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dev := NewDevice(cpusim.NewMachine(cpusim.IntelI7_4790()), 256<<20)
			view := hf.Data().View(dev, NewBufferPool(dev, 64<<10, 8<<10))
			n := 0
			for sc := view.Scan(); ; n++ {
				if _, _, ok := sc.Next(); !ok {
					break
				}
			}
			if n != rows {
				t.Errorf("concurrent scan saw %d rows, want %d", n, rows)
			}
		}()
	}
	wg.Wait()
}
