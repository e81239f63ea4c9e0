package storage

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/db/txn"
	"energydb/internal/db/value"
	"energydb/internal/memsim"
)

// longHeap builds a heap whose pages take ratio × L3 on a machine with an L3
// of l3 bytes, streamer on, behind a pool that holds all of it.
func longHeap(tb testing.TB, l3 int, ratio float64) (*Device, *HeapFile) {
	tb.Helper()
	p := cpusim.IntelI7_4790()
	p.Mem.L3.SizeBytes = l3
	dev := NewDevice(cpusim.NewMachine(p), 256<<20)
	dev.M.Hier.SetPrefetchEnabled(true)
	const pageSize = 8 << 10
	bytes := int(ratio * float64(l3))
	hf := NewHeapFile(dev, NewBufferPool(dev, bytes+(1<<20), pageSize), testSchema(), 8, Rows)
	for i := 0; hf.PageCount()*pageSize < bytes; i++ {
		hf.Append(value.Row{value.Int(int64(i)), value.Float(float64(i)), value.Str("x")})
	}
	return dev, hf
}

// testL3 keeps the synthetic heaps of these tests small; BenchmarkHeapRescan
// runs the same walk against the profile's own 8 MB. The refill shares move
// with the size (an L3 of 1 MB is only four L2s: the dear pass reads 0.95
// there, 0.81 here, 0.79 at 8 MB); what rows a scan returns does not, so the
// tests about rows take the smallest.
const (
	testL3  = 4 << 20
	smallL3 = 1 << 20
)

// drain pulls up to limit batches (all of them if limit < 0) and returns the
// bases handed out and what the device counted meanwhile.
func drain(hf *HeapFile, sc *BatchScanner, limit int) ([]int, memsim.Counters) {
	before := hf.dev.M.Hier.Counters()
	var bases []int
	for limit < 0 || len(bases) < limit {
		_, base, ok := sc.NextBatch()
		if !ok {
			break
		}
		bases = append(bases, base)
	}
	return bases, hf.dev.M.Hier.Counters().Sub(before)
}

// refill is the share of a scan's lines that came out of DRAM.
func refill(c memsim.Counters) float64 { return float64(c.PrefetchL3) / float64(c.PrefetchL2) }

// TestScanOrderFlipsOnCompletion pins when the view's direction turns: when a
// scan hands out its last batch, and only then. What is asserted is what the
// rule is for — the DRAM→L3 prefetches of the next full scan.
func TestScanOrderFlipsOnCompletion(t *testing.T) {
	_, hf := longHeap(t, testL3, 1.3)
	if !hf.Alternates(Reads{}) {
		t.Fatal("a heap of 1.3 × L3 does not alternate")
	}
	const width = 512
	last := (hf.RowCount() - 1) / width * width

	// Front to back, cold; then the same again with the direction held, which
	// is what every scan cost before: all of it refilled.
	bases, _ := drain(hf, hf.BatchScan(width, Reads{}), -1)
	if bases[0] != 0 || bases[len(bases)-1] != last || !slices.IsSorted(bases) {
		t.Fatalf("first scan of a view is not front to back: %d … %d", bases[0], bases[len(bases)-1])
	}
	if !hf.reverse {
		t.Fatal("a completed scan did not turn the view")
	}
	hf.reverse = false
	_, same := drain(hf, hf.BatchScan(width, Reads{}), -1)
	if r := refill(same); r < 0.95 {
		t.Fatalf("front to back after front to back refilled %.3f of its lines, want all", r)
	}

	// A scan abandoned after five batches started at the far end and leaves
	// the direction where it was.
	sc := hf.BatchScan(width, Reads{})
	bases, _ = drain(hf, sc, 5)
	if !sc.Reverse() || bases[0] != last || bases[4] != last-4*width {
		t.Fatalf("abandoned scan: reverse=%v bases %v, want %d downwards", sc.Reverse(), bases, last)
	}
	if !hf.reverse {
		t.Fatal("an abandoned scan turned the view")
	}

	// So the next full scan still walks back to front, over the same batches,
	// and finds the tail of the last full one cached (1 − L3/heap = 0.23).
	sc = hf.BatchScan(width, Reads{})
	bases, cheap := drain(hf, sc, -1)
	if !sc.Reverse() || bases[0] != last || bases[len(bases)-1] != 0 {
		t.Fatalf("scan after an abandoned one: reverse=%v, %d … %d", sc.Reverse(), bases[0], bases[len(bases)-1])
	}
	for i := 1; i < len(bases); i++ {
		if bases[i] != bases[i-1]-width {
			t.Fatalf("batch %d starts at %d after %d", i, bases[i], bases[i-1])
		}
	}
	if r := refill(cheap); r > 0.30 {
		t.Fatalf("back to front after front to back refilled %.3f of its lines, want about 0.24", r)
	}
	if cheap.Loads != same.Loads || cheap.L1DAccesses != same.L1DAccesses || cheap.PrefetchL2 > same.PrefetchL2 {
		t.Fatalf("the reversed walk does not issue the forward one's accesses:\nforward %+v\nreverse %+v", same, cheap)
	}
	if hf.reverse {
		t.Fatal("a completed back-to-front scan did not turn the view")
	}

	// The pass after the cheap one is the dear one: lines that hit through
	// the L3→L2 streamer kept their old recency, so it finds only what the
	// cheap pass refilled.
	_, dear := drain(hf, hf.BatchScan(width, Reads{}), -1)
	if r := refill(dear); r < 0.70 || r > 0.90 {
		t.Fatalf("front to back after back to front refilled %.3f of its lines, want about 0.81", r)
	}

	// Two scans one statement opens together (a self-join's build and probe):
	// the second settles its direction when it starts to run, after the first
	// has finished, and so runs the other way.
	build, probe := hf.BatchScan(width, Reads{}), hf.BatchScan(width, Reads{})
	drain(hf, build, -1)
	_, second := drain(hf, probe, -1)
	if !build.Reverse() || probe.Reverse() {
		t.Fatalf("build reverse=%v, probe reverse=%v; want the probe to turn around", build.Reverse(), probe.Reverse())
	}
	if r := refill(second); r > 0.85 {
		t.Fatalf("probe after build refilled %.3f of its lines", r)
	}
	if f, r := hf.Data().ScanCounts(); f != 4 || r != 3 {
		t.Fatalf("scan counts forward %d reverse %d, want 4 and 3", f, r)
	}
}

// TestScanOrderKeepsShortHeaps: a heap that fits the last-level cache is
// walked front to back every time, and so is any heap on a machine without
// an L3.
func TestScanOrderKeepsShortHeaps(t *testing.T) {
	_, hf := longHeap(t, smallL3, 0.9)
	if hf.Alternates(Reads{}) {
		t.Fatal("a heap of 0.9 × L3 alternates")
	}
	for range 3 {
		sc := hf.BatchScan(512, Reads{})
		bases, _ := drain(hf, sc, -1)
		if sc.Reverse() || bases[0] != 0 || !slices.IsSorted(bases) || hf.reverse {
			t.Fatalf("short heap scanned out of order: reverse=%v view=%v", sc.Reverse(), hf.reverse)
		}
	}
	dev := NewDevice(cpusim.NewMachine(cpusim.ARM1176()), 64<<20)
	arm := NewHeapFile(dev, NewBufferPool(dev, 1<<20, 4<<10), testSchema(), 8, Rows)
	for i := 0; i < 20000; i++ {
		arm.Append(value.Row{value.Int(int64(i)), value.Float(0), value.Str("x")})
	}
	if arm.Alternates(Reads{}) {
		t.Fatal("a heap alternates on a machine without an L3")
	}
}

// slotRow is one slot as a batch scan saw it: a nil row is a hole.
type slotRow struct {
	id  int
	row string
}

// scanSlots walks hf in the given direction and returns every slot in the
// order it arrived, plus the hole positions of each batch keyed by its base.
func scanSlots(hf *HeapFile, reverse bool, width int) ([]slotRow, map[int][]int) {
	hf.reverse = reverse
	var out []slotRow
	holes := map[int][]int{}
	for sc := hf.BatchScan(width, Reads{}); ; {
		rows, base, ok := sc.NextBatch()
		if !ok {
			return out, holes
		}
		for i, r := range rows {
			if r == nil {
				holes[base] = append(holes[base], i)
				out = append(out, slotRow{id: base + i})
				continue
			}
			out = append(out, slotRow{id: base + i, row: fmt.Sprint(r)})
		}
	}
}

// TestScanOrderSameRowsUnderMVCC: over deleted, aborted-insert, reaped and
// multi-version slots, a front-to-back and a back-to-front scan under one
// snapshot return the same (slot id, row) pairs and the same holes in every
// batch — under the snapshot taken before the writes, the one after them,
// and the latter again once the dead slots are reaped.
func TestScanOrderSameRowsUnderMVCC(t *testing.T) {
	dev, hf := longHeap(t, smallL3, 1.3)
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
		dev.Snap = snap
		fwd, fwdHoles := scanSlots(hf, false, width)
		rev, revHoles := scanSlots(hf, true, width)
		if len(fwd) != hf.RowCount() || fwd[0].id != 0 || rev[0].id == 0 {
			t.Fatalf("%s: forward saw %d slots from %d, reverse starts at %d", label, len(fwd), fwd[0].id, rev[0].id)
		}
		live := 0
		for _, s := range fwd {
			if s.row != "" {
				live++
			}
		}
		if live != wantLive {
			t.Fatalf("%s: %d visible rows, want %d", label, live, wantLive)
		}
		if fmt.Sprint(fwdHoles) != fmt.Sprint(revHoles) {
			t.Fatalf("%s: hole positions per batch differ between directions", label)
		}
		slices.SortFunc(rev, func(a, b slotRow) int { return a.id - b.id })
		if !slices.Equal(fwd, rev) {
			t.Fatalf("%s: the two directions returned different (slot, row) sets", label)
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

// TestScanOrderPerView: two views of one table scan it concurrently, one
// twice as often as the other, and each keeps its own direction — the caches
// a direction speaks of are the view's machine's. Under -race this is also
// the proof that the direction is not shared state.
func TestScanOrderPerView(t *testing.T) {
	devA, a := longHeap(t, smallL3, 1.3)
	p := devA.M.Profile
	devB := NewDevice(cpusim.NewMachine(p), 64<<20)
	b := a.Data().View(devB, NewBufferPool(devB, 2<<20, 8<<10))
	var wg sync.WaitGroup
	for _, v := range []struct {
		hf    *HeapFile
		scans int
	}{{a, 2}, {b, 3}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < v.scans; i++ {
				sc := v.hf.BatchScan(512, Reads{})
				bases, _ := drain(v.hf, sc, -1)
				if want := i%2 == 1; sc.Reverse() != want || (bases[0] == 0) == want {
					t.Errorf("scan %d of a view: reverse=%v, first base %d", i, sc.Reverse(), bases[0])
				}
			}
		}()
	}
	wg.Wait()
	if a.reverse || !b.reverse {
		t.Fatalf("after 2 and 3 scans the views point reverse=%v and %v, want false and true", a.reverse, b.reverse)
	}
}

// BenchmarkHeapRescan scans a heap of 1.3 × the i7's 8 MB L3 eight times,
// every scan front to back (what a batch scan did before it alternated) and
// taking turns, and reports per scan the DRAM→L3 prefetches and the active
// energy the machine's table prices them at.
func BenchmarkHeapRescan(b *testing.B) {
	for _, alternate := range []bool{false, true} {
		name := "same-direction"
		if alternate {
			name = "alternating"
		}
		b.Run(name, func(b *testing.B) {
			dev, hf := longHeap(b, cpusim.IntelI7_4790().Mem.L3.SizeBytes, 1.3)
			drain(hf, hf.BatchScan(1024, Reads{}), -1) // cold pass
			const scans = 8
			var sum memsim.Counters
			b.ResetTimer()
			for range b.N {
				for range scans {
					if !alternate {
						hf.reverse = false
					}
					_, c := drain(hf, hf.BatchScan(1024, Reads{}), -1)
					sum = sum.Add(c)
				}
			}
			per := float64(b.N * scans)
			b.ReportMetric(float64(sum.PrefetchL3)/per, "pfL3/scan")
			b.ReportMetric(float64(sum.PrefetchL2)/per, "pfL2/scan")
			b.ReportMetric(dev.M.Profile.Energy.Active(sum, dev.M.PState()).Total()/per*1e3, "mJ/scan")
		})
	}
}
