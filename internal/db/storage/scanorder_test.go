package storage

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/db/txn"
	"energydb/internal/db/value"
	"energydb/internal/memsim"
)

// smallL3 keeps the synthetic heaps of these tests small: what a scan hands
// out does not depend on the size of the cache it spills.
const smallL3 = 1 << 20

// longHeap builds a heap of the given layout whose pages a full batch scan
// fetches take ratio × L3 on a machine with an L3 of smallL3 bytes, streamer
// on, behind a pool that holds all of it.
func longHeap(tb testing.TB, ratio float64, layout Layout) (*Device, *HeapFile) {
	tb.Helper()
	p := cpusim.IntelI7_4790()
	p.Mem.L3.SizeBytes = smallL3
	dev := NewDevice(cpusim.NewMachine(p), 256<<20)
	dev.M.Hier.SetPrefetchEnabled(true)
	const pageSize = 8 << 10
	bytes := int(ratio * smallL3)
	hf := NewHeapFile(dev, NewBufferPool(dev, 2*bytes+(1<<20), pageSize), testSchema(), 8, layout)
	for i := 0; fetchedPages(hf)*pageSize < bytes; i++ {
		hf.Append(value.Row{value.Int(int64(i)), value.Float(float64(i)), value.Str("x")})
	}
	return dev, hf
}

// fetchedPages is what a full batch scan fetches: every page of every run,
// less the header pages the visibility map stands in for.
func fetchedPages(hf *HeapFile) int {
	n := hf.PageCount()
	if hf.data.Layout() == Columns {
		n -= int(hf.data.visible.Load())
	}
	return n
}

// scanPass is one full batch scan: the bases handed out, every slot's row in
// the order it arrived (nil for a hole), and what the device counted.
type scanPass struct {
	bases []int
	rows  []value.Row
	c     memsim.Counters
}

func batchPass(hf *HeapFile, width int) scanPass {
	before := hf.dev.M.Hier.Counters()
	var p scanPass
	for sc := hf.BatchScan(width, Reads{}); ; {
		rows, base, ok := sc.NextBatch()
		if !ok {
			break
		}
		p.bases = append(p.bases, base)
		p.rows = append(p.rows, rows...)
	}
	p.c = hf.dev.M.Hier.Counters().Sub(before)
	return p
}

// inSlotOrder reports whether bases are 0, w, 2w, … and cover n slots.
func inSlotOrder(bases []int, w, n int) bool {
	if len(bases) != (n+w-1)/w {
		return false
	}
	for i, b := range bases {
		if b != i*w {
			return false
		}
	}
	return true
}

// TestScanOrderRepeatsOnLongHeaps: a column heap longer than the last-level
// cache is scanned front to back every time, so consecutive scans through one
// view hand out the same batches with the same rows and, once warm, cost the
// same: every pass refills what the one before it evicted.
func TestScanOrderRepeatsOnLongHeaps(t *testing.T) {
	_, hf := longHeap(t, 1.3, Columns)
	if fetchedPages(hf)*(8<<10) <= smallL3 {
		t.Fatal("the heap fits the L3")
	}
	const width = 512
	var passes []scanPass
	for i := range 4 {
		p := batchPass(hf, width)
		if !inSlotOrder(p.bases, width, hf.RowCount()) {
			t.Fatalf("pass %d handed out bases %v … %d, want 0, %d, … in slot order",
				i, p.bases[:min(3, len(p.bases))], p.bases[len(p.bases)-1], width)
		}
		if i > 0 && !reflect.DeepEqual(p.rows, passes[0].rows) {
			t.Fatalf("pass %d returned other rows than pass 0", i)
		}
		passes = append(passes, p)
	}
	warm := passes[1].c
	if warm.PrefetchL3 == 0 {
		t.Fatal("a warm pass over a heap longer than L3 refilled nothing from DRAM")
	}
	for i, p := range passes[2:] {
		if p.c != warm {
			t.Fatalf("warm pass %d counted\n%+v\nafter\n%+v", i+2, p.c, warm)
		}
	}
	t.Logf("warm pass: %d loads, %d DRAM→L3 prefetches, %d stall cycles", warm.Loads, warm.PrefetchL3, warm.StallCycles)
}

// TestScanOrderSameRowsUnderMVCC: over deleted, aborted-insert, reaped and
// multi-version slots, on both layouts, two consecutive batch scans under one
// snapshot hand out the same slots and holes in slot order, and their
// visible rows are the row-at-a-time Scanner's — under the snapshot taken
// before the writes, the one after them, and the latter again once the dead
// slots are reaped.
func TestScanOrderSameRowsUnderMVCC(t *testing.T) {
	for _, heap := range []struct {
		name   string
		layout Layout
	}{{"row-major", Rows}, {"column", Columns}} {
		dev, hf := longHeap(t, 1.3, heap.layout)
		n := hf.RowCount()
		mgr := txn.NewManager()
		old := mgr.Pin()

		tx := mgr.Begin()
		for id := 3; id < n; id += 97 {
			if err := hf.DeleteTxn(tx, id); err != nil {
				t.Fatal(err)
			}
		}
		for id := 5; id < n; id += 89 {
			if id%97 == 3 {
				continue // deleted above
			}
			for v := 0; v < 2; v++ {
				if _, err := hf.UpdateTxn(tx, id, value.Row{value.Int(int64(-id)), value.Float(float64(v)), value.Str("u")}); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 700; i++ {
			hf.InsertTxn(tx, value.Row{value.Int(int64(n + i)), value.Float(1), value.Str("i")})
		}
		if _, err := mgr.Commit(tx); err != nil {
			t.Fatal(err)
		}
		ab := mgr.Begin()
		for i := 0; i < 300; i++ {
			hf.InsertTxn(ab, value.Row{value.Int(-1), value.Float(0), value.Str("a")})
		}
		mgr.Abort(ab)
		fresh := mgr.Pin()

		const width = 1000 // not a divisor of the page's row count: batches straddle pages
		check := func(label string, snap txn.Snap, wantLive int) {
			t.Helper()
			label = heap.name + " heap, " + label
			dev.Snap = snap
			a, b := batchPass(hf, width), batchPass(hf, width)
			if !inSlotOrder(a.bases, width, hf.RowCount()) || !reflect.DeepEqual(a.bases, b.bases) {
				t.Fatalf("%s: bases %v and %v are not both in slot order", label, a.bases, b.bases)
			}
			if !reflect.DeepEqual(a.rows, b.rows) {
				t.Fatalf("%s: two scans returned different slots", label)
			}
			var live []string
			for id, r := range a.rows {
				if r != nil {
					live = append(live, fmt.Sprintf("%d: %v", id, r))
				}
			}
			if len(live) != wantLive {
				t.Fatalf("%s: %d visible rows, want %d", label, len(live), wantLive)
			}
			var scanned []string
			for sc := hf.Scan(Reads{}); ; {
				r, id, ok := sc.Next()
				if !ok {
					break
				}
				scanned = append(scanned, fmt.Sprintf("%d: %v", id, r))
			}
			if !reflect.DeepEqual(live, scanned) {
				t.Fatalf("%s: the batch scan and the row scan returned different rows", label)
			}
		}
		deleted := (n - 3 + 96) / 97
		check("snapshot before the writes", old, n)
		check("snapshot after the writes", fresh, n-deleted+700)
		if got := len(hf.Reap(fresh.TS)); got != deleted+300 {
			t.Fatalf("reaped %d slots, want %d deleted and 300 aborted", got, deleted)
		}
		check("after the reap", fresh, n-deleted+700)
	}
}

// TestScanOrderPerView: two views of one table scan it concurrently, one
// twice as often as the other, and every scan of either hands out the same
// batches in slot order. Under -race this is also the proof that a scan
// shares no state between views.
func TestScanOrderPerView(t *testing.T) {
	devA, a := longHeap(t, 1.3, Columns)
	devB := NewDevice(cpusim.NewMachine(devA.M.Profile), 64<<20)
	b := a.Data().View(devB, NewBufferPool(devB, 4<<20, 8<<10))
	want := batchPass(a, 512).rows
	var wg sync.WaitGroup
	for _, v := range []struct {
		hf    *HeapFile
		scans int
	}{{a, 2}, {b, 3}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < v.scans; i++ {
				p := batchPass(v.hf, 512)
				if !inSlotOrder(p.bases, 512, len(want)) || !reflect.DeepEqual(p.rows, want) {
					t.Errorf("scan %d of a view: bases from %d, %d rows, not the first scan's", i, p.bases[0], len(p.rows))
				}
			}
		}()
	}
	wg.Wait()
}
