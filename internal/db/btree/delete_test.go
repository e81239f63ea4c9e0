package btree

import (
	"slices"
	"sort"
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/db/value"
	"energydb/internal/memsim"
)

// model is the oracle Delete is held to: the entries in key order, equal keys
// in insertion order, as the tree keeps them.
type model []entry

func (m model) seek(key int64) int {
	return sort.Search(len(m), func(i int) bool { return m[i].key >= key })
}

func (m *model) insert(e entry) {
	i := sort.Search(len(*m), func(i int) bool { return (*m)[i].key > e.key })
	*m = slices.Insert(*m, i, e)
}

func (m *model) delete(e entry) bool {
	for i := m.seek(e.key); i < len(*m) && (*m)[i].key == e.key; i++ {
		if (*m)[i].id == e.id {
			*m = slices.Delete(*m, i, i+1)
			return true
		}
	}
	return false
}

// FuzzBtreeDelete drives insert / delete / seek sequences over a tree with
// order-8 nodes against the sorted-slice model. Keys come from a small domain
// so duplicates straddle separators and leaves empty out; every operation's
// answer, the tree's length and a full iteration must match the model, and an
// iterator opened mid-sequence must still yield the entries of that moment
// after everything that follows.
func FuzzBtreeDelete(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0, 2, 1, 1, 2, 1})
	f.Add([]byte("\x00\x05\x00\x05\x00\x05\x00\x05\x00\x05\x00\x05\x00\x05\x00\x05\x00\x05\x03\x00\x01\x05\x01\x05\x01\x05\x02\x05"))
	long := make([]byte, 0, 600)
	for i := 0; i < 200; i++ {
		long = append(long, 0, byte(i*7))
	}
	for i := 0; i < 100; i++ {
		long = append(long, 1, byte(i*3))
	}
	f.Add(long)
	m := cpusim.NewMachine(cpusim.IntelI7_4790()) // what it has cached plays no part in what a tree answers
	f.Fuzz(func(t *testing.T, ops []byte) {
		tr := New(m.Hier, memsim.NewArena(1<<33, 64<<20), smallPage)
		var want model
		var held *Iter
		var heldWant []entry
		nextID := 0
		for i := 0; i+1 < len(ops); i += 2 {
			key := int64(ops[i+1] % 32)
			switch ops[i] % 4 {
			case 0:
				tr.Insert(value.Int(key), nextID)
				want.insert(entry{key, nextID})
				nextID++
			case 1:
				// Delete the oldest entry under key, or one that is not
				// there when there is none.
				e := entry{key, -1}
				if j := want.seek(key); j < len(want) && want[j].key == key {
					e = want[j]
				}
				if got, ok := tr.Delete(value.Int(e.key), e.id), want.delete(e); got != ok {
					t.Fatalf("op %d: Delete(%d, %d) = %v, model says %v", i/2, e.key, e.id, got, ok)
				}
			case 2:
				if got, exp := collect(seek(tr, value.Int(key))), want[want.seek(key):]; !slices.Equal(got, []entry(exp)) {
					t.Fatalf("op %d: seek(%d) yields %v, want %v", i/2, key, got, exp)
				}
			case 3:
				if held == nil {
					held, heldWant = seek(tr, value.Int(key)), slices.Clone(want[want.seek(key):])
				}
			}
			if tr.Len() != len(want) {
				t.Fatalf("op %d: Len = %d, model has %d", i/2, tr.Len(), len(want))
			}
		}
		if got := collect(tr.Range(nil, nil)); !slices.Equal(got, []entry(want)) {
			t.Fatalf("final iteration yields %v, want %v", got, want)
		}
		if held != nil {
			if got := collect(held); !slices.Equal(got, heldWant) {
				t.Fatalf("iterator opened mid-sequence yields %v, want its snapshot %v", got, heldWant)
			}
		}
	})
}

// TestDeleteEmptiesLeavesInPlace deletes every entry of a multi-level tree:
// nodes are never merged, every emptied leaf lets go of its entry arrays, and
// the tree keeps working — it iterates as empty and takes new entries.
func TestDeleteEmptiesLeavesInPlace(t *testing.T) {
	m := cpusim.NewMachine(cpusim.IntelI7_4790())
	tr := New(m.Hier, memsim.NewArena(1<<33, 64<<20), smallPage)
	const n = 500
	for i := 0; i < n; i++ {
		tr.Insert(value.Int(int64(i)), i)
	}
	shape := tr.Shape()
	before := m.Hier.Counters()
	for i := 0; i < n; i++ {
		if !tr.Delete(value.Int(int64(i)), i) {
			t.Fatalf("entry %d not found", i)
		}
	}
	if d := m.Hier.Counters().Sub(before); d.Loads < n || d.Stores < n {
		t.Fatalf("%d deletes charged %d loads and %d stores: the descent and the entry removal must reach the meter", n, d.Loads, d.Stores)
	}
	if tr.Delete(value.Int(3), 3) {
		t.Fatal("deleted an entry twice")
	}
	after := tr.Shape()
	if after.Len != 0 || after.Nodes != shape.Nodes || after.Height != shape.Height {
		t.Fatalf("shape after deleting everything = %+v, built as %+v: leaves must stay in place", after, shape)
	}
	var leaves func(n *node)
	leaves = func(n *node) {
		if n.leaf && (n.keys != nil || n.rowIDs != nil) {
			t.Fatalf("emptied leaf at %#x still holds its entry arrays", n.addr)
		}
		for _, k := range n.kids {
			leaves(k)
		}
	}
	leaves(tr.s.root)
	if it := tr.Range(nil, nil); it.Valid() {
		t.Fatalf("empty tree iterates from %v", it.Key())
	}
	if it := seek(tr, value.Int(100)); it.Valid() {
		t.Fatalf("empty tree seeks to %v", it.Key())
	}
	tr.Insert(value.Int(250), 9)
	if got := lookup(tr, value.Int(250)); !slices.Equal(got, []int{9}) {
		t.Fatalf("lookup after refilling an emptied leaf = %v", got)
	}
}
