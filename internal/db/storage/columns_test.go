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

// loadHeap bulk-loads n rows of colSchema behind a 24-byte tuple header into
// pages of pageBytes, laid out as layout says.
func loadHeap(dev *Device, poolBytes, pageBytes, n int, layout Layout) *HeapFile {
	hf := NewHeapFile(dev, NewBufferPool(dev, poolBytes, pageBytes), colSchema(), 24, layout)
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
// issues on a column heap when it reads tuple headers — a write's read, which
// does whatever the visibility map says: only the header run's pages cost a
// header load, and only the runs of the columns read are touched. The first
// write to an all-visible page stores the map's line before the slot.
func TestColumnRunSequences(t *testing.T) {
	dev := newDev(t)
	hf := loadHeap(dev, 1<<20, 8<<10, 2000, Columns)
	d := hf.data
	if d.Layout() != Columns || len(d.runs()) != 4 {
		t.Fatalf("layout %v with %d runs, want a header run and three columns", d.Layout(), len(d.runs()))
	}
	hdr, val, tag := 0, d.colRun[1], d.colRun[2]
	valOnly, tagOnly := d.Reads([]int{1}).Writing(), d.Reads([]int{2}).Writing()
	mgr := txn.NewManager()
	dev.Snap = mgr.Pin()
	drainBatches(hf.BatchScan(512, Reads{})) // every page resident

	t.Run("scan batch", func(t *testing.T) {
		sc := hf.BatchScan(512, valOnly)
		sc.NextBatch() // the first batch leaves the edge pages behind
		var want []access
		base := 512
		for _, k := range []int{hdr, val} {
			r := d.runs()[k]
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
		want = lines(want, memsim.AccessLoadInd, at+memsim.LineSize, uint64(d.runs()[tag].width-memsim.LineSize))
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
		want := []access{{memsim.AccessStore, hf.mapLine(0)}, {memsim.AccessLoadDep, header(t, hf, hdr, id)}}
		for _, k := range d.all {
			want = lines(want, memsim.AccessStore, slot(t, hf, k, id), uint64(d.runs()[k].width))
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
		want := lines([]access{{memsim.AccessLoadDep, header(t, hf, hdr, id)}}, memsim.AccessStore, slot(t, hf, hdr, id), uint64(d.runs()[hdr].width))
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

// TestStagedFetchSequences pins the exact loads of a staged batch fetch on a
// column heap: a first ReadRows of the tuple headers and one column for every
// id, then a later stage (Later) of two more columns for the ids a filter
// kept. The later stage loads no page header, no map line, no tuple header
// and no chain hop — not even for a row read past two of them — and reads
// only its runs' slots, only for the kept ids; it resolves nothing, and the
// At the stages share places every column read at its stage's first id.
func TestStagedFetchSequences(t *testing.T) {
	dev := newDev(t)
	hf := loadHeap(dev, 1<<20, 8<<10, 2000, Columns)
	d := hf.data
	mgr := txn.NewManager()
	old := mgr.Pin()
	for i := 0; i < 2; i++ { // row 42 gains two versions the old snapshot reads past
		tx := mgr.Begin()
		if _, err := hf.UpdateTxn(tx, 42, colRow(9000+i)); err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.Commit(tx); err != nil {
			t.Fatal(err)
		}
	}
	dev.Snap = old
	drainBatches(hf.BatchScan(512, Reads{})) // every page resident

	ids, kept := []int{1500, 3, 42, 700, 1999}, []int{42, 700, 1999}
	first, later := d.Reads([]int{1}), d.Later([]int{0, 2})
	rows := make([]value.Row, len(ids))
	var at At
	if err := hf.ReadRows(ids, rows, first, &at); err != nil {
		t.Fatal(err)
	}
	var want []access
	for _, id := range kept {
		for _, c := range []int{0, 2} {
			k := d.colRun[c]
			want = append(want, access{memsim.AccessLoadInd, slot(t, hf, k, id)})
			if w := uint64(d.runs()[k].width); w > memsim.LineSize {
				want = lines(want, memsim.AccessLoadInd, slot(t, hf, k, id)+memsim.LineSize, w-memsim.LineSize)
			}
		}
	}
	off, hits := dev.verOff, hf.pool.Hits
	got := record(dev, func() {
		if err := hf.ReadRows(kept, nil, later, &at); err != nil {
			t.Fatal(err)
		}
	})
	if !slices.Equal(got, want) {
		t.Errorf("the later stage issued\n%v\nwant\n%v", got, want)
	}
	if dev.verOff != off || hf.pool.Hits-hits != uint64(2*len(kept)) {
		t.Errorf("the later stage walked %d bytes of version store and made %d frame lookups, want none and %d", dev.verOff-off, hf.pool.Hits-hits, 2*len(kept))
	}
	for i, id := range ids {
		if !slices.Equal(rows[i], colRow(id)) {
			t.Errorf("row %d reads %v under the old snapshot, want %v", id, rows[i], colRow(id))
		}
	}
	for c, id := range map[int]int{0: kept[0], 1: ids[0], 2: kept[0]} {
		if a, s := at.Col(c), slot(t, hf, d.colRun[c], id); a != s {
			t.Errorf("column %d is at %#x, want row %d's slot at %#x", c, a, id, s)
		}
	}
	if got := record(dev, func() { hf.ReadRows(nil, nil, later, &at) }); len(got) != 0 {
		t.Errorf("a later stage of no rows issued %v", got)
	}
}

// drainBatches runs a batch scan to its end.
func drainBatches(sc *BatchScanner) {
	for _, _, ok := sc.NextBatch(); ok; _, _, ok = sc.NextBatch() {
	}
}

// TestVisibilityMapSequences pins the exact loads and stores of the reads
// the visibility map changes. On an all-visible page a scan batch, a grouped
// fetch and a lone fetch load the map's line in place of the header run's
// page and tuple headers, and read only their columns' runs. A page an
// UPDATE, a DELETE, an INSERT or an aborted INSERT has written is read with
// its headers again, as a write's read always is. A row-major heap keeps no
// map and issues what it always did.
func TestVisibilityMapSequences(t *testing.T) {
	load := func(layout Layout) (*Device, *HeapFile, *txn.Manager) {
		dev := newDev(t)
		hf := loadHeap(dev, 1<<20, 8<<10, 2000, layout)
		mgr := txn.NewManager()
		dev.Snap = mgr.Pin()
		drainBatches(hf.BatchScan(512, Reads{})) // every page resident
		return dev, hf, mgr
	}
	// check records fn and compares what it issued with want.
	check := func(t *testing.T, dev *Device, want []access, fn func()) {
		t.Helper()
		if got := record(dev, fn); !slices.Equal(got, want) {
			t.Errorf("issued\n%v\nwant\n%v", got, want)
		}
	}
	fetch := func(t *testing.T, hf *HeapFile, id int, r Reads) {
		if _, ok, err := hf.FetchRow(id, r); err != nil || !ok {
			t.Fatalf("row %d: visible %v, err %v", id, ok, err)
		}
	}
	// headerFetch is a lone fetch of tag that reads slot id's tuple header.
	headerFetch := func(t *testing.T, hf *HeapFile, id int) []access {
		tag := hf.data.colRun[2]
		at := slot(t, hf, tag, id)
		want := []access{
			{memsim.AccessLoadDep, header(t, hf, 0, id)},
			{memsim.AccessLoadDep, slot(t, hf, 0, id)},
			{memsim.AccessLoadInd, at},
		}
		return lines(want, memsim.AccessLoadInd, at+memsim.LineSize, uint64(hf.data.runs()[tag].width-memsim.LineSize))
	}

	t.Run("all-visible", func(t *testing.T) {
		dev, hf, _ := load(Columns)
		d := hf.data
		val, tag := d.colRun[1], d.colRun[2]
		valOnly, tagOnly := d.Reads([]int{1}), d.Reads([]int{2})
		per := d.runs()[0].perPage

		t.Run("scan batch", func(t *testing.T) {
			sc := hf.BatchScan(512, valOnly)
			sc.NextBatch()
			// Header pages 2 and 3 are new to the second batch; page 1 it
			// shares with the first, which loaded its map line already.
			var want []access
			for p := 512 / per; p <= 1023/per; p++ {
				if p != 511/per {
					want = append(want, access{memsim.AccessLoadDep, hf.mapLine(p)})
				}
			}
			r := d.runs()[val]
			for id := 512; id < 1024; {
				n := min(r.perPage-id%r.perPage, 1024-id)
				want = lines(want, memsim.AccessLoadInd, slot(t, hf, val, id), uint64(n*r.width))
				id += n
			}
			check(t, dev, want, func() { sc.NextBatch() })
		})

		t.Run("grouped fetch", func(t *testing.T) {
			ids := []int{1500, 3, 700}
			var want []access
			for _, id := range ids {
				want = append(want, access{memsim.AccessLoadInd, hf.mapLine(id / per)}, access{memsim.AccessLoadInd, slot(t, hf, val, id)})
			}
			check(t, dev, want, func() {
				if err := hf.ReadRows(ids, make([]value.Row, len(ids)), valOnly, nil); err != nil {
					t.Fatal(err)
				}
			})
		})

		t.Run("lone fetch", func(t *testing.T) {
			id := 1234
			at := slot(t, hf, tag, id)
			want := []access{{memsim.AccessLoadDep, hf.mapLine(id / per)}, {memsim.AccessLoadInd, at}}
			want = lines(want, memsim.AccessLoadInd, at+memsim.LineSize, uint64(d.runs()[tag].width-memsim.LineSize))
			check(t, dev, want, func() { fetch(t, hf, id, tagOnly) })
		})

		t.Run("write's read", func(t *testing.T) {
			check(t, dev, headerFetch(t, hf, 1234), func() { fetch(t, hf, 1234, tagOnly.Writing()) })
		})
	})

	// Each write clears its page's bit, storing the map's line first; the
	// page is then read with its headers, and its neighbours still are not.
	for _, c := range []struct {
		name  string
		id    int // a slot of the written page to read back
		write func(*HeapFile, *txn.Manager) error
	}{
		{"committed update", 420, func(hf *HeapFile, mgr *txn.Manager) error {
			tx := mgr.Begin()
			if _, err := hf.UpdateTxn(tx, 400, colRow(9)); err != nil {
				return err
			}
			_, err := mgr.Commit(tx)
			return err
		}},
		{"delete stamp", 420, func(hf *HeapFile, mgr *txn.Manager) error {
			tx := mgr.Begin()
			if err := hf.DeleteTxn(tx, 400); err != nil {
				return err
			}
			_, err := mgr.Commit(tx)
			return err
		}},
		{"insert onto the load's last page", 1999, func(hf *HeapFile, mgr *txn.Manager) error {
			tx := mgr.Begin()
			hf.InsertTxn(tx, colRow(2000))
			_, err := mgr.Commit(tx)
			return err
		}},
		{"aborted insert", 1999, func(hf *HeapFile, mgr *txn.Manager) error {
			tx := mgr.Begin()
			hf.InsertTxn(tx, colRow(2000))
			return mgr.Abort(tx)
		}},
		{"replayed insert past the end", 1999, func(hf *HeapFile, mgr *txn.Manager) error {
			tx := mgr.Begin()
			if err := hf.InsertAtTxn(tx, 2800, colRow(2800)); err != nil {
				return err
			}
			_, err := mgr.Commit(tx)
			return err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dev, hf, mgr := load(Columns)
			per := hf.data.runs()[0].perPage
			page := c.id / per
			got := record(dev, func() {
				if err := c.write(hf, mgr); err != nil {
					t.Fatal(err)
				}
			})
			if len(got) == 0 || got[0] != (access{memsim.AccessStore, hf.mapLine(page)}) {
				t.Errorf("the write issued %v first, want the store of the map's line %#x", got[:min(len(got), 1)], hf.mapLine(page))
			}
			dev.Snap = mgr.Pin()
			checkAllVisible(t, hf.data, []txn.Snap{dev.Snap})
			// Of the load's pages, all but the written one stay all-visible.
			loaded, pages := (2000+per-1)/per, (hf.RowCount()+per-1)/per
			if got, want := hf.data.Span(Reads{}).Mapped, float64(loaded-1)/float64(pages); got != want {
				t.Errorf("the planner sees %v of the pages all-visible, want %v", got, want)
			}
			tagOnly := hf.data.Reads([]int{2})
			check(t, dev, headerFetch(t, hf, c.id), func() { fetch(t, hf, c.id, tagOnly) })
			other := (page - 1) * per
			at := slot(t, hf, hf.data.colRun[2], other)
			want := lines([]access{{memsim.AccessLoadDep, hf.mapLine(page - 1)}, {memsim.AccessLoadInd, at}}, memsim.AccessLoadInd, at+memsim.LineSize, uint64(hf.data.runs()[hf.data.colRun[2]].width-memsim.LineSize))
			check(t, dev, want, func() { fetch(t, hf, other, tagOnly) })
		})
	}

	// A row-major heap issues the sequences it always did: a header load per
	// page, the whole slot streamed, and no map anywhere.
	t.Run("row-major", func(t *testing.T) {
		dev, hf, mgr := load(Rows)
		r := hf.data.runs()[0]
		all := hf.data.Reads([]int{1})
		if !slices.Equal(hf.data.touched(all), []int{0}) {
			t.Fatalf("a row-major read touches runs %v", hf.data.touched(all))
		}
		tx := mgr.Begin()
		if _, err := hf.UpdateTxn(tx, 700, colRow(9)); err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.Commit(tx); err != nil {
			t.Fatal(err)
		}
		dev.Snap = mgr.Pin()
		sc := hf.BatchScan(512, all)
		sc.NextBatch()
		var want []access
		for id := 512; id < 1024; {
			n := min(r.perPage-id%r.perPage, 1024-id)
			if id/r.perPage != 511/r.perPage {
				want = append(want, access{memsim.AccessLoadDep, header(t, hf, 0, id)})
			}
			want = lines(want, memsim.AccessLoadInd, slot(t, hf, 0, id), uint64(n*r.width))
			id += n
		}
		check(t, dev, want, func() { sc.NextBatch() })

		ids := []int{1500, 3, 700}
		want = nil
		for _, id := range ids {
			want = append(want, access{memsim.AccessLoadInd, header(t, hf, 0, id)})
		}
		for _, id := range ids {
			at := slot(t, hf, 0, id)
			want = lines(append(want, access{memsim.AccessLoadInd, at}), memsim.AccessLoadInd, at+memsim.LineSize, uint64(r.width-memsim.LineSize))
		}
		check(t, dev, want, func() {
			if err := hf.ReadRows(ids, make([]value.Row, len(ids)), all, nil); err != nil {
				t.Fatal(err)
			}
		})

		at := slot(t, hf, 0, 1234)
		want = lines([]access{{memsim.AccessLoadDep, header(t, hf, 0, 1234)}, {memsim.AccessLoadDep, at}}, memsim.AccessLoadInd, at+memsim.LineSize, uint64(r.width-memsim.LineSize))
		check(t, dev, want, func() { fetch(t, hf, 1234, all) })
		if hf.data.vm != nil || len(dev.maps) != 0 || hf.data.Span(all).Mapped != 0 {
			t.Errorf("a row-major heap keeps a visibility map: %d entries, %d placed, share %v", len(hf.data.vm), len(dev.maps), hf.data.Span(all).Mapped)
		}
	})
}

// heapOps encodes as bytes the operations TestRowAndColumnHeapsAgree draws
// from a math/rand source of the given seed, two bytes a draw, so that
// checkHeapLayouts decodes them into the same sequence.
func heapOps(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	var ops []byte
	draw := func(n int) int {
		v := rng.Intn(n)
		ops = append(ops, byte(v>>8), byte(v))
		return v
	}
	rows := heapOpsRows
	for round := 0; round < heapOpsRounds; round++ {
		for i := 0; i < heapOpsPerRound; i++ {
			draw(rows)
			if draw(3) == 0 {
				rows++
			}
		}
	}
	return ops
}

// The shape of checkHeapLayouts' runs: the rows loaded, and at most this
// many transactions of this many operations each, every third one aborted.
const heapOpsRows, heapOpsRounds, heapOpsPerRound = 600, 6, 40

// TestRowAndColumnHeapsAgree runs checkHeapLayouts on the operations of
// math/rand seed 7.
func TestRowAndColumnHeapsAgree(t *testing.T) { checkHeapLayouts(t, heapOps(7)) }

// FuzzHeapLayouts runs checkHeapLayouts on operation sequences drawn from
// fuzz bytes; the seed corpus holds TestRowAndColumnHeapsAgree's.
func FuzzHeapLayouts(f *testing.F) {
	for _, seed := range []int64{7, 1, 2} {
		f.Add(heapOps(seed))
	}
	f.Fuzz(checkHeapLayouts)
}

// checkHeapLayouts loads the same rows into a row-major and a column heap,
// runs the same inserts, updates, deletes and aborts, decoded from ops, on
// both, and reads them back on every access path — Scan, BatchScan,
// ReadRow, FetchRow and ReadRows — under every column set and every
// snapshot taken between transactions: the rows, the ids and what each
// snapshot sees must be the same. After every operation each slot of a page
// the column heap's visibility map marks all-visible must resolve visible,
// with no chain hop, under every snapshot there is.
//
// The column heap's load codes its tag column (seven values); the inserts
// write tags it has not seen, which its dictionary takes, and every version
// of every slot must keep a code that stands for its tag (checkCodes). Then
// one transaction writes more new tags than the code space holds: the
// column turns plain, and the heaps must still read alike.
func checkHeapLayouts(t *testing.T, ops []byte) {
	dev := newDev(t)
	// 1 KiB pages: 41 tuple headers a page, so the column heap's map has
	// fifteen bits and most of them outlive the first writes.
	var heaps [2]*HeapFile
	for h, layout := range []Layout{Rows, Columns} {
		heaps[h] = NewHeapFile(dev, NewBufferPool(dev, 256<<10, 1<<10), colSchema(), 24, layout)
		rows := make([]value.Row, heapOpsRows)
		for i := range rows {
			rows[i] = colRow(i)
		}
		heaps[h].Load(rows)
	}
	if heaps[1].data.Dict(2) == nil || heaps[0].data.Dict(2) != nil {
		t.Fatal("the column heap's load must code its tag column, and the row-major one's must not")
	}
	// draw decodes the next draw of one of n values; ok is false once ops
	// are spent.
	draw := func(n int) (int, bool) {
		if len(ops) < 2 {
			return 0, false
		}
		v := int(ops[0])<<8 | int(ops[1])
		ops = ops[2:]
		return v % n, true
	}
	mgr := txn.NewManager()
	snaps := []txn.Snap{mgr.Pin()}
	for round := 0; round < heapOpsRounds && len(ops) > 0; round++ {
		tx := mgr.Begin()
		for i := 0; i < heapOpsPerRound; i++ {
			id, ok := draw(heaps[0].RowCount())
			kind, ok2 := draw(3)
			if !ok || !ok2 {
				break
			}
			switch kind {
			case 0:
				for _, hf := range heaps {
					hf.InsertTxn(tx, newTagRow(1000+round*100+i))
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
			checkAllVisible(t, heaps[1].data, append(snaps, tx.Snap(), txn.Latest()))
			checkCodes(t, heaps[1].data)
		}
		if round%3 == 2 {
			if err := mgr.Abort(tx); err != nil {
				t.Fatal(err)
			}
		} else if _, err := mgr.Commit(tx); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, mgr.Pin())
		checkAllVisible(t, heaps[1].data, append(snaps, txn.Latest()))
	}
	readHeapsAlike(t, dev, heaps, snaps)
	tx := mgr.Begin()
	for i := 0; i <= MaxCodes; i++ {
		for _, hf := range heaps {
			hf.InsertTxn(tx, newTagRow(9000+i))
		}
	}
	if _, err := mgr.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if heaps[1].data.Dict(2) != nil {
		t.Fatalf("%d distinct tags left the tag column coded", heaps[1].data.Dict(2).Len())
	}
	readHeapsAlike(t, dev, heaps, []txn.Snap{mgr.Pin()})
}

// newTagRow is colRow(i) with a tag no loaded row has.
func newTagRow(i int) value.Row {
	r := colRow(i)
	r[2] = value.Str(fmt.Sprint("n", i))
	return r
}

// checkCodes fails t unless every version of every slot of d holds, in each
// coded column, a value its dictionary has a code for that stands for it.
func checkCodes(t *testing.T, d *TableData) {
	t.Helper()
	d.mu.RLock()
	defer d.mu.RUnlock()
	for j := range d.schema.Columns {
		dc := d.Dict(j)
		if dc == nil {
			continue
		}
		for id, v := range d.slots {
			for ; v != nil; v = v.prev {
				if v.row == nil {
					continue
				}
				c, ok := dc.Code(v.row[j])
				if !ok || (c == NullCode) != v.row[j].IsNull() || c != NullCode && dc.vals[c] != v.row[j].S {
					t.Fatalf("slot %d column %d holds %v, which the dictionary codes as %d (ok %v)", id, j, v.row[j], c, ok)
				}
			}
		}
	}
}

// readHeapsAlike reads both heaps back on every access path, under each of
// snaps and every column set, and fails t unless they read the same.
func readHeapsAlike(t *testing.T, dev *Device, heaps [2]*HeapFile, snaps []txn.Snap) {
	t.Helper()
	for _, snap := range snaps {
		dev.Snap = snap
		for _, cols := range [][]int{nil, {}, {0}, {2}, {1, 2}} {
			var dump [2][]readBack
			for h, hf := range heaps {
				r := hf.Data().Reads(cols)
				var out []readBack
				for sc := hf.Scan(r); ; {
					row, id, ok := sc.Next()
					if !ok {
						break
					}
					out = append(out, readBack{"scan", id, []value.Row{row}, true, nil})
				}
				sc := hf.BatchScan(64, r)
				for rows, base, ok := sc.NextBatch(); ok; rows, base, ok = sc.NextBatch() {
					out = append(out, readBack{"batch", base, slices.Clone(rows), true, nil})
				}
				ids := make([]int, hf.RowCount())
				for id := range ids {
					row, vis, err := hf.ReadRow(id, r)
					out = append(out, readBack{"read", id, []value.Row{row}, vis, err})
					row, vis, err = hf.FetchRow(id, r)
					out = append(out, readBack{"fetch", id, []value.Row{row}, vis, err})
					ids[id] = (id * 7919) % len(ids)
				}
				got := make([]value.Row, len(ids))
				err := hf.ReadRows(ids, got, r, nil)
				out = append(out, readBack{"rows", 0, got, true, err})
				if cols != nil {
					out = append(out, stagedRead(t, hf, ids, cols, got))
				}
				dump[h] = out
			}
			for i := range min(len(dump[0]), len(dump[1])) {
				if a, b := dump[0][i], dump[1][i]; !a.same(b) {
					t.Fatalf("columns %v: row-major and column heaps differ at %d:\n rows    %+v\n columns %+v", cols, i, a, b)
				}
			}
			if len(dump[1]) != len(dump[0]) {
				t.Fatalf("columns %v: the column heap read %d entries, the row-major one %d", cols, len(dump[1]), len(dump[0]))
			}
		}
	}
}

// stagedRead reads the rows ids name in two stages, the columns of cols but
// the last first and the last later (Later) for the rows found visible, and
// fails t unless that returns union, what one ReadRows of all of cols
// returned, and places every column of cols at a slot of its stage.
func stagedRead(t *testing.T, hf *HeapFile, ids, cols []int, union []value.Row) readBack {
	t.Helper()
	d := hf.Data()
	split := max(len(cols)-1, 0)
	got := make([]value.Row, len(ids))
	var at At
	err := hf.ReadRows(ids, got, d.Reads(cols[:split]), &at)
	var vis []int
	for i, row := range got {
		if row != nil {
			vis = append(vis, ids[i])
		}
	}
	if err == nil {
		err = hf.ReadRows(vis, nil, d.Later(cols[split:]), &at)
	}
	staged := readBack{"staged", 0, got, true, err}
	if !staged.same(readBack{"staged", 0, union, true, nil}) {
		t.Fatalf("columns %v read in two stages differ from one read of them:\n staged %+v\n one    %v", cols, staged, union)
	}
	if len(vis) > 0 {
		for _, c := range cols {
			at.Col(c)
		}
	}
	return staged
}

// readBack is one read checkHeapLayouts makes of a heap: the access path,
// the slot id (a batch's base; 0 for ReadRows), the rows it returned (one,
// or a batch with nil holes, or ReadRows' all), whether a single-row read
// found its row visible, and its error.
type readBack struct {
	path string
	at   int
	rows []value.Row
	vis  bool
	err  error
}

// same reports whether two reads returned the same: a hole matches only a
// hole, and errors match by message.
func (a readBack) same(b readBack) bool {
	return a.path == b.path && a.at == b.at && a.vis == b.vis &&
		(a.err == nil) == (b.err == nil) && (a.err == nil || a.err.Error() == b.err.Error()) &&
		slices.EqualFunc(a.rows, b.rows, func(x, y value.Row) bool {
			return (x == nil) == (y == nil) && slices.Equal(x, y)
		})
}

// checkAllVisible fails t if a slot of a page d's visibility map marks
// all-visible resolves invisible, or past a chain hop, under one of snaps.
func checkAllVisible(t *testing.T, d *TableData, snaps []txn.Snap) {
	t.Helper()
	d.mu.RLock()
	defer d.mu.RUnlock()
	per := d.runs()[0].perPage
	for id, v := range d.slots {
		if !d.allVisible(id / per) {
			continue
		}
		for _, snap := range snaps {
			if row, hops := resolve(v, snap); row == nil || hops != 0 {
				t.Fatalf("slot %d of all-visible page %d resolves to %v after %d hops under snapshot %+v", id, id/per, row, hops, snap)
			}
		}
	}
}

// TestBatchScanBesideWriter batch-scans a column heap on one view while a
// writer on a second view of the same TableData updates, deletes and inserts
// rows, clearing map bits as it goes. Under the snapshot the scan pinned
// before the writes every pass must see exactly the loaded rows; under -race
// it also checks that the map is read and written only under the table lock.
func TestBatchScanBesideWriter(t *testing.T) {
	const n = 3000
	devR, devW := newDev(t), newDev(t)
	scan := loadHeap(devR, 1<<20, 8<<10, n, Columns)
	write := scan.Data().View(devW, NewBufferPool(devW, 1<<20, 8<<10))
	mgr := txn.NewManager()
	devR.Snap = mgr.Pin()
	done := make(chan error, 1)
	go func() {
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 300; i++ {
			tx := mgr.Begin()
			id := rng.Intn(n / 2) // the pages of the second half stay all-visible
			var err error
			switch i % 3 {
			case 0:
				_, err = write.UpdateTxn(tx, id, colRow(n+i))
			case 1:
				err = write.DeleteTxn(tx, id)
			default:
				write.InsertTxn(tx, colRow(n+i))
			}
			if err == txn.ErrWriteConflict {
				err = mgr.Abort(tx)
			} else if err == nil {
				_, err = mgr.Commit(tx)
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	r := scan.Data().Reads([]int{0, 2})
	for passes, writing := 0, true; writing; passes++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			writing = false
		default:
		}
		sc := scan.BatchScan(256, r)
		for rows, base, ok := sc.NextBatch(); ok; rows, base, ok = sc.NextBatch() {
			for i, row := range rows {
				if id := base + i; id < n && !slices.EqualFunc(row, colRow(id), value.Equal) || id >= n && row != nil {
					t.Fatalf("pass %d: slot %d reads %v under the snapshot before the writes", passes, id, row)
				}
			}
		}
	}
	if v := scan.Data().visible.Load(); v == 0 || int(v) == len(scan.Data().vm) {
		t.Errorf("%d of %d header pages all-visible after the writes: the writer cleared none, or every one", v, len(scan.Data().vm))
	}
}

// TestCodedRunSequences pins what a coded column costs on each path: a batch
// scan of it streams one byte a slot (a 2000-slot batch of the tag run spans
// 32 lines where the plain run's 100-byte slots span 3125), and a row
// operator's read of it — a fetch, here — loads its value's dictionary entry
// after the slot's lines. A write of a value the dictionary lacks stores the
// new entry after looking it up.
func TestCodedRunSequences(t *testing.T) {
	dev := newDev(t)
	hf := NewHeapFile(dev, NewBufferPool(dev, 1<<20, 8<<10), colSchema(), 24, Columns)
	rows := make([]value.Row, 2000)
	for i := range rows {
		rows[i] = colRow(i)
	}
	hf.Load(rows)
	d := hf.data
	tag := d.colRun[2]
	if r := d.runs()[tag]; r.width != 1 || d.Dict(2).Len() != 7 {
		t.Fatalf("tag run %+v with %d codes, want one byte a slot and seven codes", r, d.Dict(2).Len())
	}
	mgr := txn.NewManager()
	dev.Snap = mgr.Pin()
	tagOnly := d.Reads([]int{2}).Writing()
	drainBatches(hf.BatchScan(2000, Reads{})) // every page resident

	t.Run("scan batch", func(t *testing.T) {
		var want []access
		want = append(want, access{memsim.AccessLoadDep, header(t, hf, 0, 0)})
		for id := 0; id < 2000; id += d.runs()[0].perPage {
			if id > 0 {
				want = append(want, access{memsim.AccessLoadDep, header(t, hf, 0, id)})
			}
			n := min(d.runs()[0].perPage, 2000-id)
			want = lines(want, memsim.AccessLoadInd, slot(t, hf, 0, id), uint64(n*24))
		}
		want = lines(want, memsim.AccessLoadInd, slot(t, hf, tag, 0), 2000)
		got := record(dev, func() { hf.BatchScan(2000, tagOnly).NextBatch() })
		if !slices.Equal(got, want) {
			t.Errorf("issued\n%v\nwant\n%v", got, want)
		}
	})

	t.Run("row fetch", func(t *testing.T) {
		const id = 1234
		c, _ := d.Dict(2).Code(colRow(id)[2])
		want := []access{
			{memsim.AccessLoadDep, header(t, hf, 0, id)},
			{memsim.AccessLoadDep, slot(t, hf, 0, id)},
			{memsim.AccessLoadInd, slot(t, hf, tag, id)},
			{memsim.AccessLoadInd, hf.DictAddr(2) + uint64(c)*DictEntryBytes},
		}
		got := record(dev, func() { hf.FetchRow(id, tagOnly) })
		if !slices.Equal(got, want) {
			t.Errorf("issued\n%v\nwant\n%v", got, want)
		}
	})

	t.Run("write of a new value", func(t *testing.T) {
		tx := mgr.Begin()
		got := record(dev, func() { hf.InsertTxn(tx, newTagRow(5000)) })
		entry := hf.DictAddr(2) + uint64(d.Dict(2).Len()-1)*DictEntryBytes
		at := slices.Index(got, access{memsim.AccessLoadInd, entry})
		if d.Dict(2).Len() != 8 || at < 0 || !slices.Contains(got[at:], access{memsim.AccessStore, entry}) {
			t.Errorf("the insert of a new tag (%d codes after it) issued no lookup of its entry %#x followed by its store:\n%v", d.Dict(2).Len(), entry, got)
		}
		if err := mgr.Abort(tx); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCodedRunTurnsPlainBesideScan batch-scans a coded column on one view
// while a writer on a second view inserts more new tags than the code space
// holds, so the tag column's dictionary grows and then its run is rewritten
// plain under the scan. Under the snapshot the scan pinned before the writes
// every pass must see exactly the loaded rows; under -race it also checks
// that readers take the geometry only as the writer publishes it.
func TestCodedRunTurnsPlainBesideScan(t *testing.T) {
	const n = 3000
	devR, devW := newDev(t), newDev(t)
	scan := NewHeapFile(devR, NewBufferPool(devR, 1<<20, 8<<10), colSchema(), 24, Columns)
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = colRow(i)
	}
	scan.Load(rows)
	write := scan.Data().View(devW, NewBufferPool(devW, 1<<20, 8<<10))
	mgr := txn.NewManager()
	devR.Snap = mgr.Pin()
	done := make(chan error, 1)
	go func() {
		for i := 0; i <= MaxCodes; i++ {
			tx := mgr.Begin()
			write.InsertTxn(tx, newTagRow(n+i))
			if _, err := mgr.Commit(tx); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	r := scan.Data().Reads([]int{0, 2})
	for passes, writing := 0, true; writing; passes++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			writing = false
		default:
		}
		sc := scan.BatchScan(256, r)
		for rows, base, ok := sc.NextBatch(); ok; rows, base, ok = sc.NextBatch() {
			for i, row := range rows {
				if id := base + i; id < n && !slices.EqualFunc(row, colRow(id), value.Equal) || id >= n && row != nil {
					t.Fatalf("pass %d: slot %d reads %v under the snapshot before the writes", passes, id, row)
				}
			}
		}
	}
	if d := scan.Data(); d.Dict(2) != nil || d.runs()[d.colRun[2]].width != colSchema().Columns[2].Width {
		t.Errorf("after %d new tags the tag run is %+v, coded %v", MaxCodes+1, d.runs()[d.colRun[2]], d.Dict(2) != nil)
	}
}
