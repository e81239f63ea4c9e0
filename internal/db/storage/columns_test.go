package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"energydb/internal/db/catalog"
	"energydb/internal/db/txn"
	"energydb/internal/db/value"
	"energydb/internal/memsim"
)

// colSchema has a column narrower than a line and one wider, so a column
// heap of it streams the rest of a slot in one run and not in the other.
func colSchema() *catalog.Schema {
	return catalog.NewSchema(
		catalog.Column{Name: "id", Type: value.TypeInt},
		catalog.Column{Name: "val", Type: value.TypeFloat},
		catalog.Column{Name: "tag", Type: value.TypeStr, Width: 100},
	)
}

// colRow is row i of the heaps the tests below load.
func colRow(i int) value.Row {
	return value.Row{value.Int(int64(i)), value.Float(float64(i) / 4), value.Str(fmt.Sprint("t", i%7))}
}

// loadHeap bulk-loads n rows of colSchema behind a 24-byte tuple header, laid
// out as layout says.
func loadHeap(dev *Device, poolBytes, n int, layout Layout) *HeapFile {
	hf := NewHeapFile(dev, NewBufferPool(dev, poolBytes, 8<<10), colSchema(), 24, layout)
	for i := 0; i < n; i++ {
		hf.Append(colRow(i))
	}
	return hf
}

// access is one load or store a recorder saw.
type access struct {
	kind memsim.AccessKind
	addr uint64
}

func (a access) String() string {
	return fmt.Sprintf("%v %#x", map[memsim.AccessKind]string{
		memsim.AccessLoadDep: "dep", memsim.AccessLoadInd: "ind", memsim.AccessStore: "st",
	}[a.kind], a.addr)
}

// record runs fn with a recorder on dev's hierarchy and returns its loads and
// stores in issue order.
func record(dev *Device, fn func()) []access {
	var got []access
	dev.M.Hier.SetRecorder(func(kind memsim.AccessKind, addr, _ uint64) {
		if kind == memsim.AccessLoadDep || kind == memsim.AccessLoadInd || kind == memsim.AccessStore {
			got = append(got, access{kind, addr})
		}
	})
	fn()
	dev.M.Hier.SetRecorder(nil)
	return got
}

// slot returns slot id's address in run k, whose page must be resident.
func slot(t *testing.T, hf *HeapFile, k, id int) uint64 {
	t.Helper()
	f, ok := hf.pool.pageTable[hf.data.page(k, id)]
	if !ok {
		t.Fatalf("run %d: page of slot %d not resident", k, id)
	}
	return hf.data.slotAddr(k, hf.pool.frameAddr[f], id)
}

// header returns the header line of the frame holding slot id's page in run k.
func header(t *testing.T, hf *HeapFile, k, id int) uint64 {
	t.Helper()
	return hf.pool.frameAddr[hf.pool.pageTable[hf.data.page(k, id)]]
}

// lines appends one access of kind per line of [addr, addr+n).
func lines(seq []access, kind memsim.AccessKind, addr, n uint64) []access {
	for l := addr / memsim.LineSize; l <= (addr+n-1)/memsim.LineSize; l++ {
		seq = append(seq, access{kind, l * memsim.LineSize})
	}
	return seq
}

// TestColumnRunSequences pins the exact loads and stores each access path
// issues on a column heap: only the header run's pages cost a header load,
// and only the runs of the columns read are touched.
func TestColumnRunSequences(t *testing.T) {
	dev := newDev(t)
	hf := loadHeap(dev, 1<<20, 2000, Columns)
	d := hf.data
	if d.Layout() != Columns || len(d.runs) != 4 {
		t.Fatalf("layout %v with %d runs, want a header run and three columns", d.Layout(), len(d.runs))
	}
	hdr, val, tag := 0, d.colRun[1], d.colRun[2]
	valOnly, tagOnly := d.Reads([]int{1}), d.Reads([]int{2})
	mgr := txn.NewManager()
	dev.Snap = mgr.Pin()
	drainBatches(hf.BatchScan(512, Reads{})) // every page resident

	t.Run("scan batch", func(t *testing.T) {
		sc := hf.BatchScan(512, valOnly)
		sc.NextBatch() // the first batch leaves the edge pages behind
		var want []access
		base := 512
		for _, k := range []int{hdr, val} {
			r := d.runs[k]
			for id := base; id < base+512; {
				n := min(r.perPage-id%r.perPage, base+512-id)
				// The page the first batch ended on is not fetched again.
				if k == hdr && id/r.perPage != (base-1)/r.perPage {
					want = append(want, access{memsim.AccessLoadDep, header(t, hf, k, id)})
				}
				want = lines(want, memsim.AccessLoadInd, slot(t, hf, k, id), uint64(n*r.width))
				id += n
			}
		}
		got := record(dev, func() { sc.NextBatch() })
		if !slices.Equal(got, want) {
			t.Errorf("issued\n%v\nwant\n%v", got, want)
		}
		if at := sc.At(); at.Col(1) != slot(t, hf, val, base) {
			t.Errorf("the batch's val column is at %#x, its run's slot at %#x", at.Col(1), slot(t, hf, val, base))
		}
	})

	t.Run("grouped fetch", func(t *testing.T) {
		ids := []int{1500, 3, 700}
		var want []access
		for _, id := range ids {
			want = append(want, access{memsim.AccessLoadInd, header(t, hf, hdr, id)})
		}
		for _, id := range ids {
			want = append(want, access{memsim.AccessLoadInd, slot(t, hf, hdr, id)}, access{memsim.AccessLoadInd, slot(t, hf, val, id)})
		}
		var at At
		got := record(dev, func() {
			if err := hf.ReadRows(ids, make([]value.Row, len(ids)), valOnly, &at); err != nil {
				t.Fatal(err)
			}
		})
		if !slices.Equal(got, want) {
			t.Errorf("issued\n%v\nwant\n%v", got, want)
		}
		if at.Col(1) != slot(t, hf, val, 1500) {
			t.Errorf("the first row's val column is at %#x, its slot at %#x", at.Col(1), slot(t, hf, val, 1500))
		}
	})

	t.Run("lone fetch", func(t *testing.T) {
		id := 1234
		at := slot(t, hf, tag, id)
		want := []access{
			{memsim.AccessLoadDep, header(t, hf, hdr, id)},
			{memsim.AccessLoadDep, slot(t, hf, hdr, id)},
			{memsim.AccessLoadInd, at},
		}
		want = lines(want, memsim.AccessLoadInd, at+memsim.LineSize, uint64(d.runs[tag].width-memsim.LineSize))
		got := record(dev, func() {
			if _, ok, err := hf.FetchRow(id, tagOnly); err != nil || !ok {
				t.Fatalf("visible %v, err %v", ok, err)
			}
		})
		if !slices.Equal(got, want) {
			t.Errorf("issued\n%v\nwant\n%v", got, want)
		}
	})

	t.Run("slot store", func(t *testing.T) {
		id := 42
		want := []access{{memsim.AccessLoadDep, header(t, hf, hdr, id)}}
		for _, k := range d.all {
			want = lines(want, memsim.AccessStore, slot(t, hf, k, id), uint64(d.runs[k].width))
		}
		tx := mgr.Begin()
		got := record(dev, func() {
			if _, err := hf.UpdateTxn(tx, id, colRow(9)); err != nil {
				t.Fatal(err)
			}
		})
		if _, err := mgr.Commit(tx); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("issued\n%v\nwant\n%v", got, want)
		}
	})

	t.Run("delete stamp", func(t *testing.T) {
		id := 43
		want := lines([]access{{memsim.AccessLoadDep, header(t, hf, hdr, id)}}, memsim.AccessStore, slot(t, hf, hdr, id), uint64(d.runs[hdr].width))
		tx := mgr.Begin()
		got := record(dev, func() {
			if err := hf.DeleteTxn(tx, id); err != nil {
				t.Fatal(err)
			}
		})
		if _, err := mgr.Commit(tx); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("issued\n%v\nwant\n%v", got, want)
		}
	})

	t.Run("invisible slot", func(t *testing.T) {
		id := 43 // deleted above: the head is invisible, and so one hop
		dev.Snap = mgr.Pin()
		off := dev.verOff
		got := record(dev, func() {
			if _, ok, err := hf.FetchRow(id, tagOnly); err != nil || ok {
				t.Fatalf("visible %v, err %v", ok, err)
			}
		})
		want := []access{
			{memsim.AccessLoadDep, header(t, hf, hdr, id)},
			{memsim.AccessLoadDep, dev.verBase + off},
			{memsim.AccessLoadDep, slot(t, hf, hdr, id)},
		}
		if !slices.Equal(got, want) {
			t.Errorf("issued\n%v\nwant\n%v", got, want)
		}
	})
}

// drainBatches runs a batch scan to its end.
func drainBatches(sc *BatchScanner) {
	for _, _, ok := sc.NextBatch(); ok; _, _, ok = sc.NextBatch() {
	}
}

// TestRowAndColumnHeapsAgree loads the same rows into a row-major and a
// column heap, runs the same seeded inserts, updates, deletes and aborts on
// both, and reads them back on every access path — Scan, BatchScan, ReadRow,
// FetchRow and ReadRows — under every column set and several snapshots: the
// rows, the ids and what each snapshot sees must be the same.
func TestRowAndColumnHeapsAgree(t *testing.T) {
	const n = 600
	rng := rand.New(rand.NewSource(7))
	dev := newDev(t)
	heaps := [2]*HeapFile{loadHeap(dev, 256<<10, n, Rows), loadHeap(dev, 256<<10, n, Columns)}
	mgr := txn.NewManager()
	snaps := []txn.Snap{mgr.Pin()}
	for round := 0; round < 6; round++ {
		tx := mgr.Begin()
		for i := 0; i < 40; i++ {
			id := rng.Intn(heaps[0].RowCount())
			switch rng.Intn(3) {
			case 0:
				for _, hf := range heaps {
					hf.InsertTxn(tx, colRow(1000+round*100+i))
				}
			case 1:
				for _, hf := range heaps {
					_, err := hf.UpdateTxn(tx, id, colRow(5000+i))
					if err != nil && err != txn.ErrWriteConflict {
						t.Fatal(err)
					}
				}
			default:
				for _, hf := range heaps {
					if err := hf.DeleteTxn(tx, id); err != nil && err != txn.ErrWriteConflict {
						t.Fatal(err)
					}
				}
			}
		}
		if round%3 == 2 {
			if err := mgr.Abort(tx); err != nil {
				t.Fatal(err)
			}
		} else if _, err := mgr.Commit(tx); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, mgr.Pin())
	}
	for _, snap := range snaps {
		dev.Snap = snap
		for _, cols := range [][]int{nil, {}, {0}, {2}, {1, 2}} {
			var dump [2][]string
			for h, hf := range heaps {
				r := hf.Data().Reads(cols)
				var out []string
				for sc := hf.Scan(r); ; {
					row, id, ok := sc.Next()
					if !ok {
						break
					}
					out = append(out, fmt.Sprint("scan ", id, row))
				}
				sc := hf.BatchScan(64, r)
				for rows, base, ok := sc.NextBatch(); ok; rows, base, ok = sc.NextBatch() {
					out = append(out, fmt.Sprint("batch ", base, rows))
				}
				ids := make([]int, hf.RowCount())
				for id := range ids {
					row, vis, err := hf.ReadRow(id, r)
					out = append(out, fmt.Sprint("read ", id, row, vis, err))
					row, vis, err = hf.FetchRow(id, r)
					out = append(out, fmt.Sprint("fetch ", id, row, vis, err))
					ids[id] = (id * 7919) % len(ids)
				}
				got := make([]value.Row, len(ids))
				err := hf.ReadRows(ids, got, r, nil)
				out = append(out, fmt.Sprint("rows ", got, err))
				dump[h] = out
			}
			if !slices.Equal(dump[0], dump[1]) {
				for i := range dump[0] {
					if i >= len(dump[1]) || dump[0][i] != dump[1][i] {
						t.Fatalf("columns %v: row-major and column heaps differ at %d:\n rows    %s\n columns %s", cols, i, dump[0][i], dump[1][min(i, len(dump[1])-1)])
					}
				}
				t.Fatalf("columns %v: the column heap read %d entries, the row-major one %d", cols, len(dump[1]), len(dump[0]))
			}
		}
	}
}
