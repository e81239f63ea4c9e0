package storage

import (
	"testing"

	"energydb/internal/db/txn"
	"energydb/internal/db/value"
)

func newHeap(t *testing.T) (*Device, *HeapFile) {
	t.Helper()
	dev := newDev(t)
	bp := NewBufferPool(dev, 1<<20, 8<<10)
	hf := NewHeapFile(dev, bp, testSchema(), 8)
	for i := 0; i < 10; i++ {
		hf.Append(value.Row{value.Int(int64(i)), value.Float(float64(i)), value.Str("x")})
	}
	return dev, hf
}

func TestInsertTxnInvisibleUntilCommit(t *testing.T) {
	dev, hf := newHeap(t)
	mgr := txn.NewManager()
	tx := mgr.Begin()
	id := hf.InsertTxn(tx, value.Row{value.Int(99), value.Float(0), value.Str("n")})
	if id != 10 {
		t.Fatalf("insert id = %d", id)
	}

	// An autocommit snapshot taken now must not see it; the writer must.
	dev.Snap = mgr.Pin()
	if _, visible, err := hf.ReadRow(id); err != nil || visible {
		t.Fatalf("uncommitted insert visible to other snapshot (err=%v)", err)
	}
	dev.Snap = tx.Snap()
	if row, visible, _ := hf.ReadRow(id); !visible || row[0].I != 99 {
		t.Fatalf("writer cannot read own insert: %v %v", row, visible)
	}

	if _, err := mgr.Commit(tx); err != nil {
		t.Fatal(err)
	}
	dev.Snap = mgr.Pin()
	if _, visible, _ := hf.ReadRow(id); !visible {
		t.Fatal("committed insert invisible to fresh snapshot")
	}
}

func TestInsertTxnAbortLeavesTombstone(t *testing.T) {
	dev, hf := newHeap(t)
	mgr := txn.NewManager()
	tx := mgr.Begin()
	id := hf.InsertTxn(tx, value.Row{value.Int(99), value.Float(0), value.Str("n")})
	if err := mgr.Abort(tx); err != nil {
		t.Fatal(err)
	}
	if hf.RowCount() != 11 {
		t.Fatalf("row ids must not be reused; count = %d", hf.RowCount())
	}
	dev.Snap = txn.Latest()
	if _, visible, _ := hf.ReadRow(id); visible {
		t.Fatal("aborted insert visible")
	}
	if hf.Data().LiveCount() != 10 {
		t.Fatalf("live count = %d, want 10", hf.Data().LiveCount())
	}
}

func TestUpdateTxnSnapshotStability(t *testing.T) {
	dev, hf := newHeap(t)
	mgr := txn.NewManager()

	// Reader snapshots before the update commits.
	reader := mgr.Pin()

	tx := mgr.Begin()
	if _, err := hf.UpdateTxn(tx, 3, value.Row{value.Int(3), value.Float(99), value.Str("u")}); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Commit(tx); err != nil {
		t.Fatal(err)
	}

	// Old snapshot walks the chain to the pre-update version.
	dev.Snap = reader
	row, visible, err := hf.ReadRow(3)
	if err != nil || !visible {
		t.Fatalf("old snapshot lost the row: %v", err)
	}
	if row[1].F != 3 {
		t.Fatalf("old snapshot sees new version: %v", row)
	}
	// New snapshot sees the update.
	dev.Snap = mgr.Pin()
	row, _, _ = hf.ReadRow(3)
	if row[1].F != 99 {
		t.Fatalf("new snapshot missed the update: %v", row)
	}
}

func TestWriteWriteConflictFirstUpdaterWins(t *testing.T) {
	_, hf := newHeap(t)
	mgr := txn.NewManager()
	t1 := mgr.Begin()
	t2 := mgr.Begin()
	if _, err := hf.UpdateTxn(t1, 5, value.Row{value.Int(5), value.Float(1), value.Str("a")}); err != nil {
		t.Fatal(err)
	}
	if _, err := hf.UpdateTxn(t2, 5, value.Row{value.Int(5), value.Float(2), value.Str("b")}); err != txn.ErrWriteConflict {
		t.Fatalf("second updater got %v, want ErrWriteConflict", err)
	}
	// Conflict persists after t1 commits (committed past t2's snapshot).
	if _, err := mgr.Commit(t1); err != nil {
		t.Fatal(err)
	}
	if _, err := hf.UpdateTxn(t2, 5, value.Row{value.Int(5), value.Float(2), value.Str("b")}); err != txn.ErrWriteConflict {
		t.Fatalf("post-commit update got %v, want ErrWriteConflict", err)
	}
	// A transaction begun after the commit may update.
	t3 := mgr.Begin()
	if _, err := hf.UpdateTxn(t3, 5, value.Row{value.Int(5), value.Float(3), value.Str("c")}); err != nil {
		t.Fatalf("fresh-snapshot update failed: %v", err)
	}
}

func TestUpdateTxnAbortRestoresHead(t *testing.T) {
	dev, hf := newHeap(t)
	mgr := txn.NewManager()
	tx := mgr.Begin()
	if _, err := hf.UpdateTxn(tx, 3, value.Row{value.Int(3), value.Float(99), value.Str("u")}); err != nil {
		t.Fatal(err)
	}
	// Second update in the same txn chains on the first.
	if _, err := hf.UpdateTxn(tx, 3, value.Row{value.Int(3), value.Float(100), value.Str("v")}); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Abort(tx); err != nil {
		t.Fatal(err)
	}
	dev.Snap = txn.Latest()
	row, visible, _ := hf.ReadRow(3)
	if !visible || row[1].F != 3 || row[2].S != "x" {
		t.Fatalf("abort did not restore original: %v %v", row, visible)
	}
	// The slot is writable again.
	t2 := mgr.Begin()
	if _, err := hf.UpdateTxn(t2, 3, value.Row{value.Int(3), value.Float(7), value.Str("w")}); err != nil {
		t.Fatalf("post-abort update failed: %v", err)
	}
}

func TestDeleteTxnLifecycle(t *testing.T) {
	dev, hf := newHeap(t)
	mgr := txn.NewManager()

	// Abort path: row survives.
	tx := mgr.Begin()
	if err := hf.DeleteTxn(tx, 2); err != nil {
		t.Fatal(err)
	}
	dev.Snap = tx.Snap()
	if _, visible, _ := hf.ReadRow(2); visible {
		t.Fatal("deleter still sees deleted row")
	}
	dev.Snap = mgr.Pin()
	if _, visible, _ := hf.ReadRow(2); !visible {
		t.Fatal("uncommitted delete visible to others")
	}
	if err := mgr.Abort(tx); err != nil {
		t.Fatal(err)
	}
	dev.Snap = txn.Latest()
	if _, visible, _ := hf.ReadRow(2); !visible {
		t.Fatal("aborted delete removed the row")
	}

	// Commit path: old snapshots keep the row, new ones lose it.
	before := mgr.Pin()
	tx2 := mgr.Begin()
	if err := hf.DeleteTxn(tx2, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Commit(tx2); err != nil {
		t.Fatal(err)
	}
	dev.Snap = before
	if _, visible, _ := hf.ReadRow(2); !visible {
		t.Fatal("pre-delete snapshot lost the row")
	}
	dev.Snap = mgr.Pin()
	if _, visible, _ := hf.ReadRow(2); visible {
		t.Fatal("committed delete still visible")
	}
	// Deleted head conflicts for any later writer.
	t3 := mgr.Begin()
	if _, err := hf.UpdateTxn(t3, 2, value.Row{value.Int(2), value.Float(0), value.Str("z")}); err != txn.ErrWriteConflict {
		t.Fatalf("update of deleted row got %v, want ErrWriteConflict", err)
	}
}

func TestScannerSkipsInvisible(t *testing.T) {
	dev, hf := newHeap(t)
	mgr := txn.NewManager()
	tx := mgr.Begin()
	hf.InsertTxn(tx, value.Row{value.Int(100), value.Float(0), value.Str("n")})
	if err := hf.DeleteTxn(tx, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Commit(tx); err != nil {
		t.Fatal(err)
	}

	// Pre-txn snapshot: 10 original rows.
	dev.Snap = txn.Snap{}
	n := 0
	for sc := hf.Scan(); ; n++ {
		if _, _, ok := sc.Next(); !ok {
			break
		}
	}
	if n != 10 {
		t.Fatalf("zero snapshot scan saw %d rows, want 10", n)
	}
	// Fresh snapshot: row 0 deleted, one insert added.
	dev.Snap = mgr.Pin()
	ids := []int{}
	for sc := hf.Scan(); ; {
		_, id, ok := sc.Next()
		if !ok {
			break
		}
		ids = append(ids, id)
	}
	if len(ids) != 10 || ids[0] != 1 || ids[len(ids)-1] != 10 {
		t.Fatalf("fresh snapshot scan ids = %v", ids)
	}
}

func TestBatchScannerNilHoles(t *testing.T) {
	dev, hf := newHeap(t)
	mgr := txn.NewManager()
	tx := mgr.Begin()
	if err := hf.DeleteTxn(tx, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Commit(tx); err != nil {
		t.Fatal(err)
	}
	dev.Snap = mgr.Pin()
	rows, base, ok := hf.BatchScan(64).NextBatch()
	if !ok || base != 0 || len(rows) != 10 {
		t.Fatalf("batch = %d rows at %d (ok=%v)", len(rows), base, ok)
	}
	for i, r := range rows {
		if i == 4 && r != nil {
			t.Fatal("deleted slot not a nil hole")
		}
		if i != 4 && r == nil {
			t.Fatalf("live slot %d is a nil hole", i)
		}
	}
}

func TestChainWalkChargesReader(t *testing.T) {
	dev, hf := newHeap(t)
	mgr := txn.NewManager()
	old := mgr.Pin()
	for i := 0; i < 3; i++ {
		tx := mgr.Begin()
		if _, err := hf.UpdateTxn(tx, 0, value.Row{value.Int(0), value.Float(float64(i)), value.Str("u")}); err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.Commit(tx); err != nil {
			t.Fatal(err)
		}
	}
	// Reading through the old snapshot walks 3 chain hops; a fresh
	// snapshot reads the head directly. Same row payload width, so the
	// load-count difference is the chain traversal.
	dev.Snap = mgr.Pin()
	before := dev.M.Hier.Counters()
	if _, visible, _ := hf.ReadRow(0); !visible {
		t.Fatal("head invisible to fresh snapshot")
	}
	headLoads := dev.M.Hier.Counters().Sub(before).Loads

	dev.Snap = old
	before = dev.M.Hier.Counters()
	row, visible, _ := hf.ReadRow(0)
	if !visible || row[1].F != 0 {
		t.Fatalf("old snapshot read = %v (visible=%v)", row, visible)
	}
	oldLoads := dev.M.Hier.Counters().Sub(before).Loads
	if oldLoads < headLoads+3 {
		t.Fatalf("chain walk charged %d loads vs head %d, want >= +3", oldLoads, headLoads)
	}
}
