package btree

import (
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/db/value"
	"energydb/internal/memsim"
)

// TestTreeView checks per-hierarchy views: a view sees the shared node
// structure (same entries, same shape) while its descents drive its own
// hierarchy's counters, not the builder's.
func TestTreeView(t *testing.T) {
	tr := newTree(t, 4096)
	for i := 0; i < 5000; i++ {
		tr.Insert(value.Int(int64(i)), i)
	}

	other := cpusim.NewMachine(cpusim.IntelI7_4790())
	v := tr.View(other.Hier)
	if v.Len() != tr.Len() || v.Height() != tr.Height() || v.Order() != tr.Order() {
		t.Fatalf("view shape (%d,%d,%d) != base shape (%d,%d,%d)",
			v.Len(), v.Height(), v.Order(), tr.Len(), tr.Height(), tr.Order())
	}

	baseBefore := tr.h.Counters()
	otherBefore := other.Hier.Counters()
	if ids := lookup(v, value.Int(4321)); len(ids) != 1 || ids[0] != 4321 {
		t.Fatalf("view lookup = %v, want [4321]", ids)
	}
	if tr.h.Counters() != baseBefore {
		t.Fatal("view lookup advanced the builder's counters")
	}
	if other.Hier.Counters() == otherBefore {
		t.Fatal("view lookup did not advance the view's counters")
	}

	// Inserts through the view are visible to the base (same structure).
	v.Insert(value.Int(999999), 5000)
	if ids := lookup(tr, value.Int(999999)); len(ids) != 1 || ids[0] != 5000 {
		t.Fatalf("base lookup after view insert = %v, want [5000]", ids)
	}
}

// TestTreeViewIteration checks a full in-order walk through a view matches
// the base.
func TestTreeViewIteration(t *testing.T) {
	tr := newTree(t, 512)
	const n = 1000
	for i := n - 1; i >= 0; i-- {
		tr.Insert(value.Int(int64(i)), i)
	}
	v := tr.View(memsim.New(memsim.I7_4790()))
	i := 0
	for it := v.Range(nil, nil); it.Valid(); it.Next() {
		if it.RowID() != i {
			t.Fatalf("view iteration position %d has rowID %d", i, it.RowID())
		}
		i++
	}
	if i != n {
		t.Fatalf("view iteration saw %d entries, want %d", i, n)
	}
}
