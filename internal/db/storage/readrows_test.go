package storage

import (
	"slices"
	"testing"

	"energydb/internal/db/value"
	"energydb/internal/memsim"
)

// wideHeap bulk-loads n rows of testSchema behind a 100-byte tuple header,
// so a row spans three cache lines and ReadRows streams the rest of each.
func wideHeap(t *testing.T, poolBytes, n int) (*Device, *HeapFile) {
	t.Helper()
	dev := newDev(t)
	hf := NewHeapFile(dev, NewBufferPool(dev, poolBytes, 8<<10), testSchema(), 100, Rows)
	for i := 0; i < n; i++ {
		hf.Append(value.Row{value.Int(int64(i)), value.Float(float64(i)), value.Str("x")})
	}
	return dev, hf
}

// TestReadRowsIssuesReadRowsLoads runs readRows' two modes over one id list
// on twin heaps: grouped, as one batch (ReadRows), and dependent, one id at a
// time (FetchRow). Both must return the same rows and issue the same loads
// and stores: only the schedule differs, so the grouped mode stalls less and
// nothing else differs.
func TestReadRowsIssuesReadRowsLoads(t *testing.T) {
	ids := []int{5, 900, 901, 17, 4000, 2222, 5, 3999, 64, 1500}
	devRow, row := wideHeap(t, 1<<20, 4096)
	devBatch, batch := wideHeap(t, 1<<20, 4096)
	want := make([]value.Row, len(ids))
	before := devRow.M.Hier.Counters()
	for i, id := range ids {
		r, ok, err := row.FetchRow(id, Reads{})
		if err != nil || !ok {
			t.Fatalf("FetchRow(%d): visible %v, err %v", id, ok, err)
		}
		want[i] = r
	}
	rowCtr := devRow.M.Hier.Counters().Sub(before)

	got := make([]value.Row, len(ids))
	before = devBatch.M.Hier.Counters()
	if err := batch.ReadRows(ids, got, Reads{}, nil); err != nil {
		t.Fatal(err)
	}
	batchCtr := devBatch.M.Hier.Counters().Sub(before)
	for i := range ids {
		if !slices.EqualFunc(got[i], want[i], value.Equal) {
			t.Errorf("row %d: grouped %v, dependent %v", ids[i], got[i], want[i])
		}
	}
	if batchCtr.Loads != rowCtr.Loads || batchCtr.Stores != rowCtr.Stores {
		t.Errorf("grouped loads/stores %d/%d, dependent %d/%d", batchCtr.Loads, batchCtr.Stores, rowCtr.Loads, rowCtr.Stores)
	}
	if batchCtr.StallCycles >= rowCtr.StallCycles {
		t.Errorf("grouped stalls %d cycles, dependent %d: the batch schedule should overlap its loads", batchCtr.StallCycles, rowCtr.StallCycles)
	}
	if err := batch.ReadRows([]int{3, 4096}, got, Reads{}, nil); err == nil {
		t.Error("an out-of-range id must fail the batch")
	}
}

// TestReadRowsRefetchesEvictedFrames runs a batch over more distinct pages
// than the pool has frames: resolving the later ids' pages evicts the frames
// the earlier ids resolved, so the row pass must fetch those pages again
// rather than load from a frame that now holds another page. Every load the
// batch issues into a frame must land in the frame holding, at that moment,
// the page of a row the batch asked for, at that row's slot (or the header).
func TestReadRowsRefetchesEvictedFrames(t *testing.T) {
	dev, hf := wideHeap(t, 4*8<<10, 61*16) // 4 frames; 61 rows per page, 16 pages
	per := hf.data.runs()[0].perPage
	if per != 61 {
		t.Fatalf("rows per page = %d, want 61", per)
	}
	// One id per page, each at its own slot, so a load into a frame that has
	// moved on to another page of the batch hits a slot nobody asked for.
	var ids []int
	asked := map[int]bool{}
	for p := 0; p < 12; p++ {
		ids = append(ids, p*per+p)
		asked[p*per+p] = true
	}
	bp, d := hf.pool, hf.data
	if bp.Frames() >= len(ids) {
		t.Fatalf("%d frames hold all %d pages of the batch: nothing is evicted under it", bp.Frames(), len(ids))
	}
	misses := bp.Misses
	var bad []string
	dev.M.Hier.SetRecorder(func(kind memsim.AccessKind, addr uint64, _ uint64) {
		if kind != memsim.AccessLoadDep && kind != memsim.AccessLoadInd {
			return
		}
		for f, base := range bp.frameAddr {
			if addr < base || addr >= base+uint64(bp.pageSize) {
				continue
			}
			page := bp.framePage[f]
			off := int(addr - base)
			switch {
			case !bp.frameUsed[f] || page.File != d.runs()[0].file:
				bad = append(bad, "load into a frame holding no page of the heap")
			case off == 0:
				if !asked[page.Page*per+page.Page] {
					bad = append(bad, "header load of a page the batch did not ask for")
				}
			case !asked[page.Page*per+(off-pageHeaderBytes)/d.runs()[0].width]:
				bad = append(bad, "row load at a slot the batch did not ask for")
			}
		}
	})
	got := make([]value.Row, len(ids))
	err := hf.ReadRows(ids, got, Reads{}, nil)
	dev.M.Hier.SetRecorder(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bad {
		t.Error(b)
	}
	if n := bp.Misses - misses; n <= uint64(len(ids)) {
		t.Errorf("%d pool misses for %d distinct pages on %d frames: the row pass fetched no evicted page again", n, len(ids), bp.Frames())
	}
	for i, id := range ids {
		want, _, _ := hf.FetchRow(id, Reads{})
		if !slices.EqualFunc(got[i], want, value.Equal) {
			t.Errorf("row %d: ReadRows %v, FetchRow %v", id, got[i], want)
		}
	}
}
