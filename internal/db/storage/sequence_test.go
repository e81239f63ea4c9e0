package storage

import (
	"fmt"
	"slices"
	"testing"

	"energydb/internal/db/txn"
	"energydb/internal/db/value"
	"energydb/internal/memsim"
)

// load is one load a recorder saw: its kind and the address it named.
type load struct {
	kind memsim.AccessKind
	addr uint64
}

func (l load) String() string {
	if l.kind == memsim.AccessLoadDep {
		return fmt.Sprintf("dep %#x", l.addr)
	}
	return fmt.Sprintf("ind %#x", l.addr)
}

// TestFetchRowLoadSequence pins the exact loads a one-id random read issues,
// in order: the header line of the frame that holds the row's page, one
// dependent load per version-chain hop in the version store, the row's first
// line dependent, then the rest of the row streamed line by line — only the
// first line when no version of the slot is visible.
func TestFetchRowLoadSequence(t *testing.T) {
	dev, hf := wideHeap(t, 4*8<<10, 61*16) // 4 frames, 16 pages: page 0 is evicted by the load
	mgr := txn.NewManager()
	old := mgr.Pin()
	for i := 0; i < 2; i++ {
		tx := mgr.Begin()
		if _, err := hf.UpdateTxn(tx, 900, value.Row{value.Int(900), value.Float(float64(i)), value.Str("u")}); err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.Commit(tx); err != nil {
			t.Fatal(err)
		}
	}
	tx := mgr.Begin()
	if err := hf.DeleteTxn(tx, 910); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Commit(tx); err != nil {
		t.Fatal(err)
	}
	latest := mgr.Pin()
	bp, d := hf.pool, hf.data
	for _, c := range []struct {
		name string
		id   int
		snap txn.Snap
		hops int
	}{
		{"page out of the pool", 5, latest, 0},
		{"page in the pool", 6, latest, 0},
		{"two chain hops", 900, old, 2},
		{"invisible", 910, latest, 1},
		{"last slot of a page", 60, old, 0},
	} {
		dev.Snap = c.snap
		var got []load
		dev.M.Hier.SetRecorder(func(kind memsim.AccessKind, addr, _ uint64) {
			if kind == memsim.AccessLoadDep || kind == memsim.AccessLoadInd {
				got = append(got, load{kind, addr})
			}
		})
		off, misses := dev.verOff, bp.Misses
		row, visible, err := hf.FetchRow(c.id, Reads{})
		dev.M.Hier.SetRecorder(nil)
		if err != nil {
			t.Fatal(err)
		}
		want, hops, _, ok := d.row(c.id, c.snap)
		if !ok || hops != c.hops || visible != (want != nil) || !slices.EqualFunc(row, want, value.Equal) {
			t.Fatalf("%s: read %v (visible %v, %d hops), want %v (%d hops)", c.name, row, visible, hops, want, c.hops)
		}
		frame, ok := bp.pageTable[PageID{d.runs()[0].file, c.id / d.runs()[0].perPage}]
		if !ok {
			t.Fatalf("%s: page not resident after the read", c.name)
		}
		if missed := bp.Misses > misses; missed != (c.id == 5) {
			t.Fatalf("%s: pool miss %v", c.name, missed)
		}
		at := bp.frameAddr[frame]
		seq := []load{{memsim.AccessLoadDep, at}}
		for i := 0; i < hops; i++ {
			seq = append(seq, load{memsim.AccessLoadDep, dev.verBase + (off+uint64(i)*memsim.LineSize)%VersionStoreBytes})
		}
		rowAt := at + uint64(pageHeaderBytes+c.id%d.runs()[0].perPage*d.runs()[0].width)
		seq = append(seq, load{memsim.AccessLoadDep, rowAt})
		if want != nil {
			for line := rowAt/memsim.LineSize + 1; line <= (rowAt+uint64(d.runs()[0].width)-1)/memsim.LineSize; line++ {
				seq = append(seq, load{memsim.AccessLoadInd, line * memsim.LineSize})
			}
		}
		if !slices.Equal(got, seq) {
			t.Errorf("%s: issued\n%v\nwant\n%v", c.name, got, seq)
		}
	}
}
