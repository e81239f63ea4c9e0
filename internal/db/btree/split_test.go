package btree

import (
	"math/rand"
	"sort"
	"testing"

	"energydb/internal/db/value"
)

// TestSplitLeavesNoSlack builds a tree of 200 000 keys inserted in key order
// and one inserted in random order. After every insert that split a node,
// each node the split left behind holds its keys and row ids (or kids) in
// slices exactly as long as their capacity; in the key-order tree every node
// off the rightmost path, which no insert reaches after its split, still does
// at the end. The shapes, node addresses included, are pinned to the trees
// the representation before this one built.
func TestSplitLeavesNoSlack(t *testing.T) {
	const n = 200_000
	for _, c := range []struct {
		name  string
		keys  func() []int
		shape Shape
	}{
		{"key order", func() []int {
			keys := make([]int, n)
			for i := range keys {
				keys[i] = i
			}
			return keys
		}, Shape{Len: n, Height: 3, Nodes: 1575, Hash: 13044990831467994472}},
		{"random order", func() []int { return rand.New(rand.NewSource(48)).Perm(n) },
			Shape{Len: n, Height: 3, Nodes: 1087, Hash: 18442442327316047715}},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr := newTree(t, 4096)
			var path []*node
			var held []int
			splits := 0
			for i, k := range c.keys() {
				// The nodes this insert can modify, and their key counts.
				key := value.Int(int64(k))
				path, held = path[:0], held[:0]
				for nd := tr.s.root; ; {
					path, held = append(path, nd), append(held, len(nd.keys))
					if nd.leaf {
						break
					}
					nd = nd.kids[sort.Search(len(nd.keys), func(j int) bool { return value.Compare(intKeys.decode(nd.keys[j]), key) > 0 })]
				}
				tr.Insert(key, i)
				for j, nd := range path {
					if len(nd.keys) >= held[j] {
						continue
					}
					splits++
					if !exact(nd) {
						t.Fatalf("insert %d: a node split from %d keys to %d keeps capacity %d",
							i, held[j], len(nd.keys), cap(nd.keys))
					}
				}
			}
			if splits < n/256 {
				t.Fatalf("%d splits checked, want at least %d", splits, n/256)
			}
			if c.name == "key order" {
				walkNodes(tr.s.root, func(nd *node, rightmost bool) {
					if !rightmost && !exact(nd) {
						t.Fatalf("a node off the rightmost path holds %d keys in capacity %d", len(nd.keys), cap(nd.keys))
					}
				})
			}
			if got := tr.Shape(); got != c.shape {
				t.Fatalf("shape %+v, want %+v", got, c.shape)
			}
		})
	}
}

// exact reports whether every slice of the node is as long as its capacity.
func exact(nd *node) bool {
	return cap(nd.keys) == len(nd.keys) && cap(nd.rowIDs) == len(nd.rowIDs) && cap(nd.kids) == len(nd.kids)
}

// walkNodes visits every node of the tree under root, telling the visitor
// whether the node lies on the rightmost root-to-leaf path.
func walkNodes(root *node, visit func(nd *node, rightmost bool)) {
	var walk func(nd *node, rightmost bool)
	walk = func(nd *node, rightmost bool) {
		visit(nd, rightmost)
		for i, k := range nd.kids {
			walk(k, rightmost && i == len(nd.kids)-1)
		}
	}
	walk(root, true)
}
