package storage

import (
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/db/catalog"
	"energydb/internal/db/txn"
	"energydb/internal/db/value"
)

func TestWALAppendAndCommit(t *testing.T) {
	dev := newDev(t)
	w := NewWAL()
	for i := 0; i < 10; i++ {
		w.Append(dev, LogRecord{Kind: RecUpdate, Txn: 1, Table: "t", Row: i}, 100)
	}
	if w.Records.Load() != 10 {
		t.Fatalf("records = %d", w.Records.Load())
	}
	if w.Syncs.Load() != 0 {
		t.Fatal("no commit yet, no sync expected")
	}
	if len(w.Durable()) != 0 {
		t.Fatal("records durable before any flush")
	}
	idle0 := dev.M.IdleSeconds()
	w.Commit(dev, 1)
	if w.Syncs.Load() != 1 {
		t.Fatalf("syncs = %d after commit", w.Syncs.Load())
	}
	if dev.M.IdleSeconds()-idle0 < w.FsyncSec*0.99 {
		t.Fatal("commit did not pay fsync latency")
	}
	recs := w.Durable()
	if len(recs) != 11 {
		t.Fatalf("durable records = %d, want 11 (10 data + commit)", len(recs))
	}
	if last := recs[len(recs)-1]; last.Kind != RecCommit || last.Txn != 1 {
		t.Fatalf("last durable record = %+v, want commit of txn 1", last)
	}
}

func TestWALGroupCommit(t *testing.T) {
	dev := newDev(t)
	w := NewWAL()
	w.GroupCommit = 4
	for i := 0; i < 8; i++ {
		w.Append(dev, LogRecord{Kind: RecUpdate, Txn: uint64(i), Table: "t"}, 64)
		w.Commit(dev, uint64(i))
	}
	if w.Syncs.Load() != 2 {
		t.Fatalf("syncs = %d, want 2 (group commit of 4)", w.Syncs.Load())
	}
}

func TestWALBufferWrapFlushes(t *testing.T) {
	dev := newDev(t)
	w := NewWAL()
	// Fill past the 64KB buffer: background flushes must happen.
	for i := 0; i < 200; i++ {
		w.Append(dev, LogRecord{Kind: RecInsert, Txn: 1, Table: "t", Row: i}, 1<<10)
	}
	if w.Syncs.Load() == 0 {
		t.Fatal("buffer wrap never flushed")
	}
	if w.Bytes.Load() < 200*(1<<10) {
		t.Fatalf("bytes = %d", w.Bytes.Load())
	}
	// Wrap-flushed records are durable even without a commit.
	if len(w.Durable())+w.PendingLen() != 200 {
		t.Fatalf("durable %d + pending %d != 200", len(w.Durable()), w.PendingLen())
	}
}

func TestWALEmptyCommitIsFree(t *testing.T) {
	dev := newDev(t)
	w := NewWAL()
	w.Sync(dev)
	if w.Bytes.Load() != 0 || w.Syncs.Load() != 0 {
		t.Fatalf("empty sync: bytes=%d syncs=%d", w.Bytes.Load(), w.Syncs.Load())
	}
}

// TestWALCrashLosesUnflushedTail is the crash contract: records never
// flushed are not in Durable(), and a transaction whose data records are
// durable but whose commit record is not must be treated as unclosed by
// replay.
func TestWALCrashLosesUnflushedTail(t *testing.T) {
	dev := newDev(t)
	w := NewWAL()
	w.Append(dev, LogRecord{Kind: RecInsert, Txn: 1, Table: "t", Row: 0}, 64)
	w.Commit(dev, 1)
	// Txn 2 appends and flushes its data (buffer pressure), then "crashes"
	// before commit.
	w.Append(dev, LogRecord{Kind: RecUpdate, Txn: 2, Table: "t", Row: 0}, 64)
	w.Sync(dev)
	w.Append(dev, LogRecord{Kind: RecUpdate, Txn: 2, Table: "t", Row: 1}, 64)

	recs := w.Durable()
	if len(recs) != 3 {
		t.Fatalf("durable = %d records, want 3", len(recs))
	}
	committed := map[uint64]bool{}
	for _, r := range recs {
		if r.Kind == RecCommit {
			committed[r.Txn] = true
		}
	}
	if !committed[1] || committed[2] {
		t.Fatalf("committed set = %v, want {1}", committed)
	}
}

func newTxnPair() (*txn.Manager, *txn.Txn) {
	m := txn.NewManager()
	return m, m.Begin()
}

func TestHeapFileUpdateRoundTrip(t *testing.T) {
	dev := newDev(t)
	bp := NewBufferPool(dev, 1<<20, 8<<10)
	hf := NewHeapFile(dev, bp, testSchema(), 8, Rows)
	for i := 0; i < 100; i++ {
		hf.Append(value.Row{value.Int(int64(i)), value.Float(0), value.Str("x")})
	}
	mgr, tx := newTxnPair()
	if _, err := hf.UpdateTxn(tx, 42, value.Row{value.Int(42), value.Float(9.5), value.Str("y")}); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Commit(tx); err != nil {
		t.Fatal(err)
	}
	dev.Snap = mgr.Pin()
	r, visible, err := hf.ReadRow(42, Reads{})
	if err != nil {
		t.Fatal(err)
	}
	if !visible || r[1].F != 9.5 || r[2].S != "y" {
		t.Fatalf("updated row = %v (visible=%v)", r, visible)
	}
	if bp.DirtyCount() == 0 {
		t.Fatal("update left no dirty page")
	}
	tx2 := mgr.Begin()
	if _, err := hf.UpdateTxn(tx2, 100, nil); err == nil {
		t.Fatal("out-of-range update must error")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	dev := newDev(t)
	bp := NewBufferPool(dev, 32<<10, 8<<10) // 4 frames
	// Dirty 4 pages, then fault 4 more: evictions must write back.
	for i := 0; i < 4; i++ {
		bp.Fetch(PageID{9, i}, true)
		bp.MarkDirty(PageID{9, i})
	}
	for i := 4; i < 8; i++ {
		bp.Fetch(PageID{9, i}, true)
	}
	if bp.WriteBacks == 0 {
		t.Fatal("dirty evictions did not write back")
	}
}

func TestCheckpointIdempotent(t *testing.T) {
	dev := newDev(t)
	bp := NewBufferPool(dev, 64<<10, 8<<10)
	bp.Fetch(PageID{3, 0}, true)
	bp.MarkDirty(PageID{3, 0})
	if n := bp.Checkpoint(); n != 1 {
		t.Fatalf("checkpoint wrote %d, want 1", n)
	}
	if n := bp.Checkpoint(); n != 0 {
		t.Fatalf("second checkpoint wrote %d, want 0", n)
	}
}

func TestMarkDirtyNonResidentIsNoop(t *testing.T) {
	dev := newDev(t)
	bp := NewBufferPool(dev, 64<<10, 8<<10)
	bp.MarkDirty(PageID{5, 77})
	if bp.DirtyCount() != 0 {
		t.Fatal("non-resident mark dirtied something")
	}
}

func TestRelocateFrames(t *testing.T) {
	dev := newDev(t)
	bp := NewBufferPool(dev, 64<<10, 8<<10) // 8 frames
	budget := uint64(3 * 8 << 10)
	used := uint64(0)
	moved := bp.RelocateFrames(func(size uint64) (uint64, bool) {
		if used+size > budget {
			return 0, false
		}
		addr := uint64(0x2000_0000) + used
		used += size
		return addr, true
	})
	if moved != 3 {
		t.Fatalf("moved %d frames, want 3", moved)
	}
	// Fetches into relocated frames return the new addresses.
	if addr := bp.Fetch(PageID{1, 0}, true); addr < 0x2000_0000 || addr >= 0x2000_0000+budget {
		t.Fatalf("frame 0 address %#x not relocated", addr)
	}
}

func TestScannerEmptyFile(t *testing.T) {
	dev := newDev(t)
	bp := NewBufferPool(dev, 64<<10, 8<<10)
	hf := NewHeapFile(dev, bp, testSchema(), 0, Rows)
	if _, _, ok := hf.Scan(Reads{}).Next(); ok {
		t.Fatal("empty file scanner returned a row")
	}
	if hf.PageCount() != 0 {
		t.Fatalf("page count = %d", hf.PageCount())
	}
}

func testSchemaWide() *catalog.Schema {
	return catalog.NewSchema(
		catalog.Column{Name: "a", Type: value.TypeStr, Width: 128},
		catalog.Column{Name: "b", Type: value.TypeStr, Width: 128},
	)
}

func TestWideRowsSpanMultipleLines(t *testing.T) {
	dev := newDev(t)
	bp := NewBufferPool(dev, 1<<20, 8<<10)
	hf := NewHeapFile(dev, bp, testSchemaWide(), 0, Rows)
	hf.Append(value.Row{value.Str("x"), value.Str("y")})
	before := dev.M.Hier.Counters()
	if _, _, err := hf.FetchRow(0, Reads{}); err != nil {
		t.Fatal(err)
	}
	d := dev.M.Hier.Counters().Sub(before)
	// 256-byte rows cover 4+ cache lines plus the page-header touch.
	if d.Loads < 5 {
		t.Fatalf("wide-row read issued %d loads, want >= 5", d.Loads)
	}
}

func TestMachineAccessor(t *testing.T) {
	m := cpusim.NewMachine(cpusim.IntelI7_4790())
	dev := NewDevice(m, 64<<20)
	bp := NewBufferPool(dev, 64<<10, 8<<10)
	hf := NewHeapFile(dev, bp, testSchema(), 0, Rows)
	if hf.Machine() != m {
		t.Fatal("Machine() accessor wrong")
	}
	if hf.Pool() != bp {
		t.Fatal("Pool() accessor wrong")
	}
	if hf.Device() != dev {
		t.Fatal("Device() accessor wrong")
	}
}
