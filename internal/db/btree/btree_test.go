package btree

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"energydb/internal/cpusim"
	"energydb/internal/db/value"
	"energydb/internal/memsim"
)

func newTree(t *testing.T, pageSize int) *Tree {
	t.Helper()
	m := cpusim.NewMachine(cpusim.IntelI7_4790())
	arena := memsim.NewArena(1<<33, 512<<20)
	return New(m.Hier, arena, pageSize, value.TypeInt)
}

func TestInsertLookup(t *testing.T) {
	tr := newTree(t, 4096)
	for i := 0; i < 10000; i++ {
		tr.Insert(value.Int(int64(i*7%10000)), i)
	}
	if tr.Len() != 10000 {
		t.Fatalf("len = %d", tr.Len())
	}
	ids := lookup(tr, value.Int(21))
	if len(ids) != 1 || ids[0] != 3 {
		t.Fatalf("lookup(21) = %v, want [3]", ids)
	}
	if got := lookup(tr, value.Int(10001)); got != nil {
		t.Fatalf("lookup(missing) = %v", got)
	}
}

func TestDuplicateKeys(t *testing.T) {
	tr := newTree(t, 4096)
	for i := 0; i < 100; i++ {
		tr.Insert(value.Int(42), i)
	}
	tr.Insert(value.Int(41), 1000)
	tr.Insert(value.Int(43), 1001)
	if got := len(lookup(tr, value.Int(42))); got != 100 {
		t.Fatalf("duplicates found = %d, want 100", got)
	}
}

func TestOrderedIteration(t *testing.T) {
	tr := newTree(t, 1024)
	rng := rand.New(rand.NewSource(9))
	keys := rng.Perm(5000)
	for i, k := range keys {
		tr.Insert(value.Int(int64(k)), i)
	}
	var got []int64
	for it := tr.Range(nil, nil); it.Valid(); it.Next() {
		got = append(got, it.Key().I)
	}
	if len(got) != 5000 {
		t.Fatalf("iterated %d entries", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("iteration out of order")
	}
}

// seek is Range from target with no upper bound.
func seek(tr *Tree, target value.Value) *Iter { return tr.Range(&target, nil) }

func TestSeekRange(t *testing.T) {
	tr := newTree(t, 1024)
	for i := 0; i < 1000; i++ {
		tr.Insert(value.Int(int64(i*2)), i) // even keys 0..1998
	}
	it := seek(tr, value.Int(501)) // first key >= 501 is 502
	if !it.Valid() || it.Key().I != 502 {
		t.Fatalf("seek(501) at %v", it.Key())
	}
	count := 0
	for ; it.Valid() && it.Key().I <= 600; it.Next() {
		count++
	}
	if count != 50 {
		t.Fatalf("range [502, 600] has %d entries, want 50", count)
	}

	// The bounded iterator against the loop it replaced: an open-ended
	// iterator from lo, stopped by a host compare at the first key past hi.
	// Both must yield the same row ids and issue the same simulated accesses.
	// Key 1000 is duplicated across several leaves (order 63 at 1024 bytes).
	build := func() (*Tree, *memsim.Hierarchy) {
		m := cpusim.NewMachine(cpusim.IntelI7_4790())
		tr := New(m.Hier, memsim.NewArena(1<<33, 512<<20), 1024, value.TypeInt)
		for i := 0; i < 1000; i++ {
			tr.Insert(value.Int(int64(i*2)), i)
			if i%4 == 0 {
				tr.Insert(value.Int(1000), 5000+i)
			}
		}
		return tr, m.Hier
	}
	at := func(k int64) *value.Value { v := value.Int(k); return &v }
	for _, c := range []struct {
		name   string
		lo, hi *value.Value
		want   int
	}{
		{"lower bound only", at(1901), nil, 49},
		{"upper bound only", nil, at(99), 50},
		{"both bounds", at(502), at(600), 50},
		{"hi below lo", at(600), at(500), 0},
		{"empty past the last key", at(1999), nil, 0},
		{"duplicates of both bounds", at(1000), at(1000), 251},
		{"duplicates of the lower bound", at(1000), at(1004), 253},
		{"duplicates of the upper bound", at(996), at(1000), 253},
	} {
		newTr, newH := build()
		oldTr, oldH := build()
		newBefore, oldBefore := newH.Counters(), oldH.Counters()
		var got, want []int
		for it := newTr.Range(c.lo, c.hi); it.Valid(); it.Next() {
			got = append(got, it.RowID())
		}
		for it := oldTr.Range(c.lo, nil); it.Valid(); it.Next() {
			if c.hi != nil && value.Compare(it.Key(), *c.hi) > 0 {
				break
			}
			want = append(want, it.RowID())
		}
		if !slices.Equal(got, want) || len(got) != c.want {
			t.Errorf("%s: Range yields %d ids %v, the compare loop %d, want %d", c.name, len(got), got, len(want), c.want)
		}
		if d, w := newH.Counters().Sub(newBefore), oldH.Counters().Sub(oldBefore); d != w {
			t.Errorf("%s: Range issued %+v, the compare loop %+v", c.name, d, w)
		}
	}
}

func TestHeightGrowsLogarithmically(t *testing.T) {
	tr := newTree(t, 1024) // order = (1024-16)/16 = 63
	for i := 0; i < 100000; i++ {
		tr.Insert(value.Int(int64(i)), i)
	}
	if h := tr.Height(); h < 2 || h > 4 {
		t.Fatalf("height = %d for 100k entries at order %d", h, tr.Order())
	}
}

func TestDescentIssuesDependentLoads(t *testing.T) {
	m := cpusim.NewMachine(cpusim.IntelI7_4790())
	arena := memsim.NewArena(1<<33, 512<<20)
	tr := New(m.Hier, arena, 4096, value.TypeInt)
	for i := 0; i < 50000; i++ {
		tr.Insert(value.Int(int64(i)), i)
	}
	before := m.Hier.Counters()
	lookup(tr, value.Int(33333))
	d := m.Hier.Counters().Sub(before)
	if d.Loads == 0 {
		t.Fatal("lookup issued no loads")
	}
	// Pointer chasing means stalls: at least one stall cycle per level.
	if d.StallCycles < uint64(tr.Height()) {
		t.Fatalf("lookup stalled %d cycles over %d levels", d.StallCycles, tr.Height())
	}
}

func TestPlaceTopLevels(t *testing.T) {
	m := cpusim.NewMachine(cpusim.IntelI7_4790())
	arena := memsim.NewArena(1<<33, 512<<20)
	tr := New(m.Hier, arena, 4096, value.TypeInt)
	for i := 0; i < 100000; i++ {
		tr.Insert(value.Int(int64(i)), i)
	}
	// A 12KB budget holds the root plus part of the next level.
	budget := uint64(12 << 10)
	used := uint64(0)
	moved := tr.PlaceTopLevels(func(size uint64) (uint64, bool) {
		if used+size > budget {
			return 0, false
		}
		addr := uint64(0x1000_0000) + used
		used += size
		return addr, true
	})
	if moved == 0 {
		t.Fatal("no nodes moved")
	}
	if tr.s.root.addr < 0x1000_0000 {
		t.Fatal("root not relocated")
	}
	// Tree still works after relocation.
	if ids := lookup(tr, value.Int(777)); len(ids) != 1 || ids[0] != 777 {
		t.Fatalf("lookup after relocation = %v", ids)
	}
}

func TestPropertyInsertedKeysFound(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		count := int(n%500) + 1
		m := cpusim.NewMachine(cpusim.IntelI7_4790())
		tr := New(m.Hier, memsim.NewArena(1<<33, 64<<20), 512, value.TypeInt)
		rng := rand.New(rand.NewSource(seed))
		want := make(map[int64][]int)
		for i := 0; i < count; i++ {
			k := int64(rng.Intn(100))
			tr.Insert(value.Int(k), i)
			want[k] = append(want[k], i)
		}
		for k, ids := range want {
			got := lookup(tr, value.Int(k))
			if len(got) != len(ids) {
				return false
			}
		}
		return tr.Len() == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestStringKeys(t *testing.T) {
	m := cpusim.NewMachine(cpusim.IntelI7_4790())
	tr := New(m.Hier, memsim.NewArena(1<<33, 64<<20), 1024, value.TypeStr)
	words := []string{"delta", "alpha", "echo", "bravo", "charlie"}
	for i, w := range words {
		tr.Insert(value.Str(w), i)
	}
	it := tr.Range(nil, nil)
	if it.Key().S != "alpha" {
		t.Fatalf("first key = %q", it.Key().S)
	}
	if ids := lookup(tr, value.Str("charlie")); len(ids) != 1 || ids[0] != 4 {
		t.Fatalf("lookup(charlie) = %v", ids)
	}
}

// lookup is Tree.Lookup with a fresh iterator and buffer.
func lookup(t *Tree, key value.Value) []int { return t.Lookup(key, new(Iter), nil) }
