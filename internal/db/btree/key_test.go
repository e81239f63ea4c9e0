package btree

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/db/value"
	"energydb/internal/memsim"
)

// sortedKeys are, per key type, keys in strictly ascending value.Compare
// order from the type's least value to its greatest.
var sortedKeys = map[value.Type][]value.Value{
	value.TypeInt: {value.Int(math.MinInt64), value.Int(math.MinInt64 + 1), value.Int(-1<<53 - 1), value.Int(-1),
		value.Int(0), value.Int(1), value.Int(1 << 53), value.Int(1<<53 + 1), value.Int(math.MaxInt64 - 1), value.Int(math.MaxInt64)},
	value.TypeDate: {value.Date(math.MinInt64), value.Date(-1), value.Date(0), value.Date(1), value.Date(2557), value.Date(math.MaxInt64)},
	value.TypeFloat: {value.Float(math.Inf(-1)), value.Float(-math.MaxFloat64), value.Float(-1), value.Float(-math.SmallestNonzeroFloat64),
		value.Float(0), value.Float(math.SmallestNonzeroFloat64), value.Float(1), value.Float(1 << 53), value.Float(1<<53 + 2),
		value.Float(math.MaxFloat64), value.Float(math.Inf(1))},
	value.TypeStr: {value.Str(""), value.Str("\x00"), value.Str("a"), value.Str("ab"), value.Str("abc"), value.Str("abd"), value.Str("b"), value.Str("\xff")},
}

// TestKeyWordsRoundTrip encodes every key of each type and decodes it back:
// the same type and value (−0 comes back as +0, which value.Compare finds
// equal and prints as 0.00). For the types whose words order, the words of
// sortedKeys ascend, and −0 and +0 share one.
func TestKeyWordsRoundTrip(t *testing.T) {
	for kind, keys := range sortedKeys {
		s := &shared{kind: kind, strIDs: map[string]uint64{}}
		words := make([]uint64, len(keys))
		for i, k := range keys {
			words[i] = s.encode(k).w
			if got := s.codec().decode(words[i]); got != k {
				t.Errorf("%v: %v decodes back as %v", kind, k, got)
			}
		}
		if kind != value.TypeStr && !slices.IsSorted(words) {
			t.Errorf("%v: the words of ascending keys do not ascend: %x", kind, words)
		}
	}
	s := &shared{kind: value.TypeFloat}
	neg, pos := s.encode(value.Float(math.Copysign(0, -1))).w, s.encode(value.Float(0)).w
	if neg != pos {
		t.Errorf("−0 and +0 encode as %x and %x", neg, pos)
	}
	if got := s.codec().decode(neg); math.Signbit(got.F) || got.F != 0 {
		t.Errorf("−0 decodes back as %v", got.F)
	}
	s = &shared{kind: value.TypeStr, strIDs: map[string]uint64{}}
	if a, b := s.encode(value.Str("abc")).w, s.encode(value.Str("abc")).w; a != b || len(s.strs) != 1 {
		t.Errorf("one string interned twice: words %d and %d, %d dictionary entries", a, b, len(s.strs))
	}
}

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestInsertTakesOnlyItsKind: a tree takes NULLs and keys of its own type,
// and panics on any other key — a Date in an Int tree too, whose word would
// compare right but decode as an Int — and on a NaN, which value.Compare
// finds equal to every number, so that no position keeps the keys sorted.
// The rejected key leaves the tree as it was.
func TestInsertTakesOnlyItsKind(t *testing.T) {
	m := cpusim.NewMachine(cpusim.IntelI7_4790())
	others := []value.Value{value.Int(1), value.Date(1), value.Float(1), value.Str("1")}
	for kind := range sortedKeys {
		tr := New(m.Hier, memsim.NewArena(1<<33, 64<<20), smallPage, kind)
		tr.Insert(value.Null(), 0)
		tr.Insert(sortedKeys[kind][0], 1)
		for _, v := range others {
			if v.T == kind {
				continue
			}
			if !panics(func() { tr.Insert(v, 2) }) {
				t.Errorf("a %v tree took the %v key %v", kind, v.T, v)
			}
		}
		if tr.Len() != 2 {
			t.Errorf("%v tree: Len %d after rejected inserts, want 2", kind, tr.Len())
		}
	}
	tr := New(m.Hier, memsim.NewArena(1<<33, 64<<20), smallPage, value.TypeFloat)
	if !panics(func() { tr.Insert(value.Float(math.NaN()), 0) }) {
		t.Error("a Float tree took a NaN")
	}
}

// TestHostBytesPerEntry pins the host heap an index holds per entry: 200 000
// int keys, inserted in key order as a primary-key index is built, and in a
// shuffled order, keep at most 24 live bytes each — an 8-byte key word and an
// 8-byte row id, plus node headers and the slack of arrays still growing.
func TestHostBytesPerEntry(t *testing.T) {
	const n = 200_000
	for _, order := range []string{"key order", "shuffled"} {
		t.Run(order, func(t *testing.T) {
			m := cpusim.NewMachine(cpusim.IntelI7_4790())
			arena := memsim.NewArena(1<<33, 512<<20)
			stride := int64(1)
			if order == "shuffled" {
				stride = 7919 // prime to n: every key once
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			tr := New(m.Hier, arena, 4096, value.TypeInt)
			for i := int64(0); i < n; i++ {
				tr.Insert(value.Int(i*stride%n), int(i))
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
			runtime.KeepAlive(tr)
			t.Logf("%.1f live bytes per entry", per)
			if per > 24 {
				t.Fatalf("%s: %.1f live bytes per entry, want at most 24", order, per)
			}
		})
	}
}

// TestStrDictionaryUnderConcurrentScans has one view insert new strings, so
// the dictionary grows and moves, while two others scan and decode every key
// they reach: each scan must decode to ascending strings of the inserted
// form. Run under -race, it checks that a reader's captured dictionary never
// races the writer's appends.
func TestStrDictionaryUnderConcurrentScans(t *testing.T) {
	m := cpusim.NewMachine(cpusim.IntelI7_4790())
	tr := New(m.Hier, memsim.NewArena(1<<33, 64<<20), smallPage, value.TypeStr)
	const n = 600
	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 2; r++ {
		view := tr.View(memsim.New(memsim.I7_4790()))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				last := ""
				for it := view.Range(nil, nil); it.Valid(); it.Next() {
					k := it.Key()
					if k.T != value.TypeStr || len(k.S) != 7 || k.S <= last {
						t.Errorf("scan decodes %v after %q", k, last)
						return
					}
					last = k.S
				}
			}
		}()
	}
	writer := tr.View(memsim.New(memsim.I7_4790()))
	for i := 0; i < n; i++ {
		writer.Insert(value.Str(fmt.Sprintf("k%06d", i*7919%n)), i)
	}
	close(done)
	wg.Wait()
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
}
