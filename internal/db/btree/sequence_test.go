package btree

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/db/value"
	"energydb/internal/memsim"
)

// evens holds the even keys 0..1998, key 1000 repeated 251 times across
// leaves (TestSeekRange's tree).
func evens(tr *Tree) {
	for i := 0; i < 1000; i++ {
		tr.Insert(value.Int(int64(i*2)), i)
		if i%4 == 0 {
			tr.Insert(value.Int(1000), 5000+i)
		}
	}
}

// holes is 0..599 with every key in [100, 400) deleted, emptying whole
// leaves in place.
func holes(tr *Tree) {
	for i := 0; i < 600; i++ {
		tr.Insert(value.Int(int64(i)), i)
	}
	for i := 100; i < 400; i++ {
		tr.Delete(value.Int(int64(i)), i)
	}
}

// flat stays one leaf: height 1.
func flat(tr *Tree) {
	for i := 0; i < 8; i++ {
		tr.Insert(value.Int(int64(i*3)), i)
	}
}

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

// recordLoads returns the loads fn issues on h, in issue order.
func recordLoads(h *memsim.Hierarchy, fn func()) []load {
	var got []load
	h.SetRecorder(func(kind memsim.AccessKind, addr, _ uint64) {
		if kind == memsim.AccessLoadDep || kind == memsim.AccessLoadInd {
			got = append(got, load{kind, addr})
		}
	})
	fn()
	h.SetRecorder(nil)
	return got
}

// lookupLoads works out, from the node structure alone, the loads a Lookup
// of key issues. Down the leftmost path that can hold key, per node: its
// header, then its binary-search rounds at probeAddr, all dependent. Then the
// leaf settle: while the position stands past a leaf's last entry, a
// dependent load of the next leaf's header. Then, per entry equal to key,
// the step past it: a streaming load of the next entry within the leaf, or
// dependent hops to the next leaf that is not empty.
func lookupLoads(root *node, key value.Value) []load {
	var leaves []*node
	var collect func(n *node)
	collect = func(n *node) {
		if n.leaf {
			leaves = append(leaves, n)
			return
		}
		for _, kid := range n.kids {
			collect(kid)
		}
	}
	collect(root)

	var want []load
	dep := func(addr uint64) { want = append(want, load{memsim.AccessLoadDep, addr}) }
	n, idx := root, 0
	for {
		dep(n.addr)
		// 1 + ⌊log2 fill⌋ rounds, one per halving, and one when empty.
		rounds := 1
		for f := len(n.keys); f > 1; f >>= 1 {
			rounds++
		}
		for i := 0; i < rounds; i++ {
			dep(probeAddr(n, i))
		}
		idx = sort.Search(len(n.keys), func(i int) bool { return value.Compare(n.keys[i], key) >= 0 })
		if n.leaf {
			break
		}
		n = n.kids[idx]
	}
	leaf := slices.Index(leaves, n)
	// hop moves to the next leaf with a dependent load of its header; false
	// past the last leaf.
	hop := func() bool {
		leaf, idx = leaf+1, 0
		if leaf == len(leaves) {
			return false
		}
		dep(leaves[leaf].addr)
		return true
	}
	for idx >= len(leaves[leaf].keys) {
		if !hop() {
			return want
		}
	}
	for value.Compare(leaves[leaf].keys[idx], key) == 0 {
		if idx++; idx < len(leaves[leaf].keys) {
			want = append(want, load{memsim.AccessLoadInd, leaves[leaf].addr + uint64(nodeHeaderBytes+idx*entryBytes)})
			continue
		}
		for {
			if !hop() {
				return want
			}
			if len(leaves[leaf].keys) > 0 {
				break
			}
		}
	}
	return want
}

// TestLookupLoadSequence pins the exact loads a one-key read issues, level
// by level, against lookupLoads' account of them: the descent's loads are
// all dependent, one after another, whatever code issues them.
func TestLookupLoadSequence(t *testing.T) {
	for _, c := range []struct {
		name  string
		page  int
		build func(*Tree)
		keys  []value.Value
	}{
		{"evens", 1024, evens, ints(-5, 0, 8, 501, 502, 996, 1000, 1002, 1997, 1998, 1999)},
		{"emptied leaves", smallPage, holes, ints(0, 99, 100, 250, 399, 400, 599, 600)},
		{"height 1", 1024, flat, ints(-1, 0, 4, 21, 22)},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := cpusim.NewMachine(cpusim.IntelI7_4790())
			tr := New(m.Hier, memsim.NewArena(1<<33, 64<<20), c.page)
			c.build(tr)
			keys := c.keys
			// A key just past the first leaf's last entry lands past that
			// leaf's end: its settle hops.
			root := tr.s.root
			n := root
			for !n.leaf {
				n = n.kids[0]
			}
			if len(n.keys) > 0 {
				keys = append(slices.Clip(keys), value.Int(n.keys[len(n.keys)-1].I+1))
			}
			var it Iter
			var buf []int
			for _, key := range keys {
				want := lookupLoads(root, key)
				got := recordLoads(m.Hier, func() { buf = tr.Lookup(key, &it, buf) })
				if !slices.Equal(got, want) {
					t.Errorf("Lookup(%v) issued\n%v\nwant\n%v", key, got, want)
				}
			}
		})
	}
}
