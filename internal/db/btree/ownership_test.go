package btree

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"energydb/internal/db/value"
	"energydb/internal/memsim"
)

// The tests here pin who may write a node: Insert mutates in place only what
// no reader can hold, and copies everything else.

// smallPage gives order-8 nodes, so a few dozen inserts split the root.
const smallPage = nodeHeaderBytes + 8*entryBytes

type entry struct {
	key int64
	id  int
}

func collect(it *Iter) []entry {
	var out []entry
	for ; it.Valid(); it.Next() {
		out = append(out, entry{it.Key().I, it.RowID()})
	}
	return out
}

// TestIterSurvivesRootSplits opens iterators, then inserts at least 3·order
// keys between and around the ones they stand on until the root has split
// twice; each iterator must still yield exactly the entries present when it
// was opened, in order.
func TestIterSurvivesRootSplits(t *testing.T) {
	for _, initial := range []int{5, 40} { // a root leaf, and a two-level tree
		tr := newTree(t, smallPage)
		var want []entry
		for i := 0; i < initial; i++ {
			tr.Insert(value.Int(int64(i*100)), i)
			want = append(want, entry{int64(i * 100), i})
		}
		first := tr.Range(nil, nil)
		mid := seek(tr, value.Int(want[initial/2].key))
		height := tr.Height()
		rng := rand.New(rand.NewSource(3))
		for n := 0; n < 3*tr.Order() || tr.Height() < height+2; n++ {
			tr.Insert(value.Int(rng.Int63n(int64(initial*100))), 1000+n)
		}
		if got := collect(first); !slices.Equal(got, want) {
			t.Fatalf("initial=%d: First() opened before the inserts yields %v, want %v", initial, got, want)
		}
		if got := collect(mid); !slices.Equal(got, want[initial/2:]) {
			t.Fatalf("initial=%d: seek() opened before the inserts yields %v, want %v", initial, got, want[initial/2:])
		}
	}
}

// TestSeekBetweenInsertsMatchesModel takes a snapshot every k-th insert, which
// forces the next insert down the clone path, and compares every snapshot and
// the final tree with a sorted slice.
func TestSeekBetweenInsertsMatchesModel(t *testing.T) {
	for _, k := range []int{1, 3, 16} {
		tr := newTree(t, smallPage)
		rng := rand.New(rand.NewSource(int64(k)))
		var model []entry // sorted by key, equal keys in insertion order
		for i := 0; i < 600; i++ {
			key := rng.Int63n(200)
			tr.Insert(value.Int(key), i)
			at := sort.Search(len(model), func(j int) bool { return model[j].key > key })
			model = append(model, entry{})
			copy(model[at+1:], model[at:])
			model[at] = entry{key, i}
			if i%k != 0 {
				continue
			}
			target := rng.Int63n(220)
			from := sort.Search(len(model), func(j int) bool { return model[j].key >= target })
			if got := collect(seek(tr, value.Int(target))); !slices.Equal(got, model[from:]) {
				t.Fatalf("k=%d after %d inserts: seek(%d) yields %v, want %v", k, i+1, target, got, model[from:])
			}
		}
		if got := collect(tr.Range(nil, nil)); !slices.Equal(got, model) {
			t.Fatalf("k=%d: final tree differs from the model", k)
		}
	}
}

// TestConcurrentViewsInsertAndScan has two views of one tree insert disjoint
// keys and scan at the same time. Every scan must be in key order and hold at
// least what its own view had inserted before it started.
func TestConcurrentViewsInsertAndScan(t *testing.T) {
	tr := newTree(t, smallPage)
	const perView = 400
	var wg sync.WaitGroup
	for v := 0; v < 2; v++ {
		view := tr.View(memsim.New(memsim.I7_4790()))
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			for i := 0; i < perView; i++ {
				view.Insert(value.Int(int64(2*i+v)), 2*i+v)
				if i%5 != 0 {
					continue
				}
				own, last := 0, int64(-1)
				for it := view.Range(nil, nil); it.Valid(); it.Next() {
					k := it.Key().I
					if k <= last {
						t.Errorf("view %d: scan out of order: %d after %d", v, k, last)
						return
					}
					last = k
					if int(k)%2 == v {
						own++
					}
				}
				if own < i+1 {
					t.Errorf("view %d: scan after %d inserts saw %d of its own", v, i+1, own)
					return
				}
			}
		}(v)
	}
	wg.Wait()
	if tr.Len() != 2*perView {
		t.Fatalf("len = %d, want %d", tr.Len(), 2*perView)
	}
	got := collect(tr.Range(nil, nil))
	for i, e := range got {
		if e.key != int64(i) || e.id != i {
			t.Fatalf("entry %d = %+v", i, e)
		}
	}
	if len(got) != 2*perView {
		t.Fatalf("final scan saw %d entries, want %d", len(got), 2*perView)
	}
}

// TestInsertCopiesOnlyWhatAReaderSaw counts allocations: building a tree no
// reader has seen copies no node (only slice growth and the split siblings
// allocate, well under two per insert), while the first insert after a seek
// clones the root-to-leaf path once and the one after that writes the clones
// in place.
func TestInsertCopiesOnlyWhatAReaderSaw(t *testing.T) {
	tr := newTree(t, 4096)
	next := 0
	insert := func() {
		tr.Insert(value.Int(int64(next)), next)
		next++
	}
	if a := testing.AllocsPerRun(20000, insert); a >= 2 {
		t.Fatalf("unseen tree: %.2f allocations per insert, want < 2", a)
	}
	if tr.Height() < 2 {
		t.Fatalf("height %d: the tree must have a path to clone", tr.Height())
	}

	// A clone is three allocations (node, keys, row ids or children).
	path := float64(3 * tr.Height())
	afterSeek := testing.AllocsPerRun(50, func() {
		seek(tr, value.Int(0))
		insert()
	})
	seekOnly := testing.AllocsPerRun(50, func() { seek(tr, value.Int(0)) })
	if cloned := afterSeek - seekOnly; cloned < path || cloned > path+3 {
		t.Fatalf("insert after a seek: %.2f allocations, want the %v of one cloned path (plus growth)", cloned, path)
	}

	seek(tr, value.Int(0))
	insert() // clones the path
	root := tr.s.root
	if a := testing.AllocsPerRun(50, insert); a >= 2 {
		t.Fatalf("inserts after the path was cloned: %.2f allocations each, want < 2", a)
	}
	if tr.s.root != root {
		t.Fatal("an insert nobody read before replaced the root")
	}
}
