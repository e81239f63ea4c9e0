package storage

import (
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/db/catalog"
	"energydb/internal/db/value"
)

func newDev(t *testing.T) *Device {
	t.Helper()
	return NewDevice(cpusim.NewMachine(cpusim.IntelI7_4790()), 256<<20)
}

func testSchema() *catalog.Schema {
	return catalog.NewSchema(
		catalog.Column{Name: "id", Type: value.TypeInt},
		catalog.Column{Name: "val", Type: value.TypeFloat},
		catalog.Column{Name: "tag", Type: value.TypeStr, Width: 16},
	)
}

func TestBufferPoolHitAndMiss(t *testing.T) {
	dev := newDev(t)
	bp := NewBufferPool(dev, 64<<10, 8<<10) // 8 frames
	id := PageID{1, 0}
	a1 := bp.Fetch(id, false)
	if bp.Misses != 1 || bp.Hits != 0 {
		t.Fatalf("first fetch: hits=%d misses=%d", bp.Hits, bp.Misses)
	}
	a2 := bp.Fetch(id, false)
	if a1 != a2 {
		t.Fatal("same page must return the same frame")
	}
	if bp.Hits != 1 {
		t.Fatalf("second fetch should hit, hits=%d", bp.Hits)
	}
}

func TestBufferPoolEvicts(t *testing.T) {
	dev := newDev(t)
	bp := NewBufferPool(dev, 32<<10, 8<<10) // 4 frames
	for i := 0; i < 6; i++ {
		bp.Fetch(PageID{1, i}, true)
	}
	if bp.Contains(PageID{1, 0}) && bp.Contains(PageID{1, 1}) {
		t.Fatal("pool of 4 frames cannot hold 6 pages")
	}
	resident := 0
	for i := 0; i < 6; i++ {
		if bp.Contains(PageID{1, i}) {
			resident++
		}
	}
	if resident != 4 {
		t.Fatalf("resident pages = %d, want 4", resident)
	}
}

func TestBufferMissAddsIdleTime(t *testing.T) {
	dev := newDev(t)
	bp := NewBufferPool(dev, 64<<10, 8<<10)
	bp.Fetch(PageID{1, 0}, false)
	if got := dev.M.IdleSeconds(); got < dev.Disk.RandomReadSec*0.99 {
		t.Fatalf("idle = %v, want at least the random read latency", got)
	}
	before := dev.M.IdleSeconds()
	bp.Fetch(PageID{1, 0}, false)
	if dev.M.IdleSeconds() != before {
		t.Fatal("buffer hit must not add idle time")
	}
}

func TestPageCacheServesRereads(t *testing.T) {
	dev := newDev(t)
	bp := NewBufferPool(dev, 32<<10, 8<<10) // 4 frames
	// Read 8 pages: all first-ever -> disk latency each.
	for i := 0; i < 8; i++ {
		bp.Fetch(PageID{1, i}, false)
	}
	afterCold := dev.M.IdleSeconds()
	if afterCold < 8*dev.Disk.RandomReadSec*0.99 {
		t.Fatalf("cold reads too cheap: %v", afterCold)
	}
	// Page 0 was evicted (4 frames); re-fetching it must hit the OS page
	// cache, not the disk.
	bp.Fetch(PageID{1, 0}, false)
	delta := dev.M.IdleSeconds() - afterCold
	if delta > dev.Disk.PageCacheSec*1.5 {
		t.Fatalf("re-read cost %v, want page-cache cost ~%v", delta, dev.Disk.PageCacheSec)
	}
}

func TestSequentialMissIsCheaper(t *testing.T) {
	dev := newDev(t)
	bp := NewBufferPool(dev, 64<<10, 8<<10)
	bp.Fetch(PageID{1, 0}, true)
	seqIdle := dev.M.IdleSeconds()
	bp.Fetch(PageID{1, 1}, false)
	randIdle := dev.M.IdleSeconds() - seqIdle
	if randIdle <= seqIdle {
		t.Fatalf("random read (%v) should cost more than sequential (%v)", randIdle, seqIdle)
	}
}

func TestHeapFileRoundTrip(t *testing.T) {
	dev := newDev(t)
	bp := NewBufferPool(dev, 1<<20, 8<<10)
	hf := NewHeapFile(dev, bp, testSchema(), 24)
	for i := 0; i < 1000; i++ {
		id := hf.Append(value.Row{value.Int(int64(i)), value.Float(float64(i) * 1.5), value.Str("x")})
		if id != i {
			t.Fatalf("row id = %d, want %d", id, i)
		}
	}
	if hf.RowCount() != 1000 {
		t.Fatalf("row count = %d", hf.RowCount())
	}
	r, visible, err := hf.ReadRow(500)
	if err != nil {
		t.Fatal(err)
	}
	if !visible {
		t.Fatal("bulk-loaded row invisible to zero snapshot")
	}
	if r[0].I != 500 || r[1].F != 750 {
		t.Fatalf("row 500 = %v", r)
	}
	if _, _, err := hf.ReadRow(1000); err == nil {
		t.Fatal("out-of-range read must error")
	}
}

func TestHeapFileGeometry(t *testing.T) {
	dev := newDev(t)
	bp := NewBufferPool(dev, 1<<20, 8<<10)
	hf := NewHeapFile(dev, bp, testSchema(), 24)
	// Row width = 8+8+16+24 = 56; (8192-24)/56 = 145 rows per page.
	if hf.RowsPerPage() != 145 {
		t.Fatalf("rows per page = %d, want 145", hf.RowsPerPage())
	}
	for i := 0; i < 300; i++ {
		hf.Append(value.Row{value.Int(int64(i)), value.Float(0), value.Str("x")})
	}
	if hf.PageCount() != 3 {
		t.Fatalf("page count = %d, want 3", hf.PageCount())
	}
}

func TestSequentialScanLoadsStreamIndependently(t *testing.T) {
	dev := newDev(t)
	bp := NewBufferPool(dev, 4<<20, 8<<10)
	hf := NewHeapFile(dev, bp, testSchema(), 0)
	for i := 0; i < 2000; i++ {
		hf.Append(value.Row{value.Int(int64(i)), value.Float(0), value.Str("abcdefgh")})
	}
	// Warm: scan everything once so pages are resident.
	for sc := hf.Scan(); ; {
		if _, _, ok := sc.Next(); !ok {
			break
		}
	}
	before := dev.M.Hier.Counters()
	n := 0
	for sc := hf.Scan(); ; n++ {
		if _, _, ok := sc.Next(); !ok {
			break
		}
	}
	if n != 2000 {
		t.Fatalf("scanned %d rows", n)
	}
	d := dev.M.Hier.Counters().Sub(before)
	// Warm sequential scan: the 64KB file exceeds L1D, so first-touch
	// line misses happen, but every miss is served by L2 (no DRAM) and
	// streaming keeps stalls low.
	if mr := d.L1DMissRate(); mr > 0.45 {
		t.Fatalf("warm scan L1D miss rate = %.3f, want < 0.45", mr)
	}
	if d.MemAccesses != 0 {
		t.Fatalf("warm scan went to DRAM %d times", d.MemAccesses)
	}
	if d.StallCycles > d.Loads {
		t.Fatalf("scan stalls too much: %d stalls over %d loads", d.StallCycles, d.Loads)
	}
}
