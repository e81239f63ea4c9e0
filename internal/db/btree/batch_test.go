package btree

import (
	"slices"
	"sync"
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/db/value"
	"energydb/internal/memsim"
)

// position is where an iterator stands: its leaf's simulated address (equal
// across twin trees) and its index there, or (0, 0) past the last leaf.
func position(it *Iter) [2]uint64 {
	if it.n == nil {
		return [2]uint64{}
	}
	return [2]uint64{it.n.addr, uint64(it.idx)}
}

// yields collects the row ids an iterator SeekBatch positioned yields, as
// Lookup collects them from its own.
func yields(it *Iter) []int {
	var ids []int
	for ; it.Valid(); it.Next() {
		ids = append(ids, it.RowID())
	}
	return ids
}

func ints(ks ...int64) []value.Value {
	out := make([]value.Value, len(ks))
	for i, k := range ks {
		out[i] = value.Int(k)
	}
	return out
}

// TestSeekBatchMatchesLookup runs walk's two modes over one key list on twin
// trees: grouped, the whole batch level by level (SeekBatch), and dependent,
// one key at a time (Lookup). Every key's iterator must stand at the same
// entry of the same leaf and yield the same row ids in the same order, and
// the two must issue the same loads, stores, adds and plain instructions —
// the same lines in another order — with no more stall. A batch of more than
// one key that reaches past the root stalls strictly less: its descent loads
// are independent.
func TestSeekBatchMatchesLookup(t *testing.T) {
	for _, c := range []struct {
		name  string
		page  int
		build func(*Tree)
		keys  []value.Value
	}{
		{"empty batch", 1024, evens, nil},
		{"all absent", 1024, evens, ints(1, 3, 501, 999, 1001, 1997)},
		{"below the first key and past the last", 1024, evens, ints(-5, 1998, 1999, 5000)},
		{"one key repeated", 1024, evens, ints(502, 8, 502, 502, 1200)},
		{"duplicates spanning leaves", 1024, evens, ints(998, 1000, 1002, 1000)},
		{"emptied leaves", smallPage, holes, ints(99, 100, 250, 399, 400, 150, 0, 599)},
		{"height 1", 1024, flat, ints(0, 4, 9, 21, 22)},
		{"one key", 1024, evens, ints(1000)},
	} {
		t.Run(c.name, func(t *testing.T) {
			twin := func() (*Tree, *memsim.Hierarchy) {
				m := cpusim.NewMachine(cpusim.IntelI7_4790())
				tr := New(m.Hier, memsim.NewArena(1<<33, 64<<20), c.page, value.TypeInt)
				c.build(tr)
				return tr, m.Hier
			}
			batchTr, batchH := twin()
			keyTr, keyH := twin()
			if c.name == "height 1" && batchTr.Height() != 1 {
				t.Fatalf("height %d, want a lone leaf", batchTr.Height())
			}
			its := make([]Iter, len(c.keys))
			before := batchH.Counters()
			batchTr.SeekBatch(c.keys, its)
			got := make([][]int, len(c.keys))
			for k := range c.keys {
				got[k] = yields(&its[k])
			}
			batch := batchH.Counters().Sub(before)

			var it Iter
			var buf []int
			before = keyH.Counters()
			for k, key := range c.keys {
				buf = keyTr.Lookup(key, &it, buf)
				if !slices.Equal(got[k], buf) {
					t.Errorf("key %v: SeekBatch yields %v, Lookup %v", key, got[k], buf)
				}
			}
			perKey := keyH.Counters().Sub(before)
			batchTr.SeekBatch(c.keys, its)
			for k, key := range c.keys {
				one := keyTr.Range(&key, &key)
				if at, want := position(&its[k]), position(one); at != want {
					t.Errorf("key %v: SeekBatch stands at %v, a lone descent at %v", key, at, want)
				}
			}

			if batch.Loads != perKey.Loads || batch.Stores != perKey.Stores || batch.AddOps != perKey.AddOps || batch.OtherOps != perKey.OtherOps {
				t.Errorf("SeekBatch issued %+v, per-key Lookup %+v", batch, perKey)
			}
			if batch.StallCycles > perKey.StallCycles {
				t.Errorf("SeekBatch stalled %d cycles, per-key Lookup %d", batch.StallCycles, perKey.StallCycles)
			}
			if len(c.keys) > 1 && batchTr.Height() > 1 && batch.StallCycles >= perKey.StallCycles {
				t.Errorf("SeekBatch stalled %d cycles, per-key Lookup %d: the batch's descents should overlap", batch.StallCycles, perKey.StallCycles)
			}
		})
	}
}

// TestSeekBatchSnapshotUnderInsert runs batch descents on one view while
// another view inserts keys 1000, 1001, ... in order. A batch reads one root:
// the keys it finds must be a prefix of the inserted ones, each with its own
// row id, however the inserts interleave with the descent. A descent that
// re-read the root per key or per level could find a later key and miss an
// earlier one.
func TestSeekBatchSnapshotUnderInsert(t *testing.T) {
	tr := newTree(t, smallPage)
	for i := 0; i < 1000; i++ {
		tr.Insert(value.Int(int64(i)), i)
	}
	const fresh = 600
	writer := tr.View(memsim.New(memsim.I7_4790()))
	reader := tr.View(memsim.New(memsim.I7_4790()))
	keys := make([]value.Value, fresh)
	for i := range keys {
		keys[i] = value.Int(int64(1000 + i))
	}
	its := make([]Iter, fresh)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < fresh; i++ {
			writer.Insert(value.Int(int64(1000+i)), 1000+i)
		}
	}()
	for round := 0; round < 50; round++ {
		reader.SeekBatch(keys, its)
		seen := 0
		for k := range keys {
			ids := yields(&its[k])
			switch {
			case len(ids) == 0:
			case len(ids) == 1 && ids[0] == 1000+k && seen == k:
				seen++
			default:
				t.Fatalf("round %d: key %d yields %v after %d found keys: not one snapshot", round, 1000+k, ids, seen)
			}
		}
	}
	wg.Wait()
	reader.SeekBatch(keys, its)
	for k := range keys {
		if ids := yields(&its[k]); len(ids) != 1 {
			t.Fatalf("after the inserts key %d yields %v", 1000+k, ids)
		}
	}
}

// benchTree is a 100 000-entry tree of 4 KB nodes and a batch of keys spread
// over it, for the host cost of the two descents.
func benchTree(b *testing.B) (*Tree, []value.Value) {
	m := cpusim.NewMachine(cpusim.IntelI7_4790())
	tr := New(m.Hier, memsim.NewArena(1<<33, 512<<20), 4096, value.TypeInt)
	for i := 0; i < 100000; i++ {
		tr.Insert(value.Int(int64(i)), i)
	}
	keys := make([]value.Value, 256)
	for i := range keys {
		keys[i] = value.Int(int64(i * 7919 % 100000))
	}
	return tr, keys
}

// reportPerKey turns the per-batch figures into per-key ones.
func reportPerKey(b *testing.B, keys int, run func()) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*keys), "ns/key")
	b.ReportMetric(testing.AllocsPerRun(10, run)/float64(keys), "allocs/key")
}

// BenchmarkSeekBatch is the host cost of a batch descent, iterators reused,
// plus the walk of every key's one match: what vec.IndexJoin runs per probe
// batch.
func BenchmarkSeekBatch(b *testing.B) {
	tr, keys := benchTree(b)
	its := make([]Iter, len(keys))
	run := func() {
		tr.SeekBatch(keys, its)
		for k := range its {
			for it := &its[k]; it.Valid(); it.Next() {
			}
		}
	}
	run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	reportPerKey(b, len(keys), run)
}

// BenchmarkLookup is the same keys through per-key Lookup, iterator and buffer
// reused: what exec.IndexJoin runs per probe row.
func BenchmarkLookup(b *testing.B) {
	tr, keys := benchTree(b)
	var it Iter
	var buf []int
	run := func() {
		for _, k := range keys {
			buf = tr.Lookup(k, &it, buf)
		}
	}
	run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	reportPerKey(b, len(keys), run)
}
