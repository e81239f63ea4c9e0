package btree

import (
	"math"
	"slices"
	"sort"
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/db/value"
	"energydb/internal/memsim"
)

// kv is one entry of the model: a key and its row id.
type kv struct {
	key value.Value
	id  int
}

// model is the oracle the tree is held to: the entries sorted by
// value.Compare alone, equal keys in insertion order. It knows nothing of
// how a tree stores its keys.
type model []kv

// seek is the first position whose key is at or above p.
func (m model) seek(p value.Value) int {
	return sort.Search(len(m), func(i int) bool { return value.Compare(m[i].key, p) >= 0 })
}

func (m *model) insert(e kv) {
	i := sort.Search(len(*m), func(i int) bool { return value.Compare((*m)[i].key, e.key) > 0 })
	*m = slices.Insert(*m, i, e)
}

func (m *model) delete(e kv) bool {
	for i := m.seek(e.key); i < len(*m) && value.Equal((*m)[i].key, e.key); i++ {
		if (*m)[i].id == e.id {
			*m = slices.Delete(*m, i, i+1)
			return true
		}
	}
	return false
}

// span is the entries with lo <= key <= hi; a nil bound is open.
func (m model) span(lo, hi *value.Value) model {
	i := 0
	if lo != nil {
		i = m.seek(*lo)
	}
	j := i
	for j < len(m) && (hi == nil || value.Compare(m[j].key, *hi) <= 0) {
		j++
	}
	return m[i:j]
}

// drain collects what an iterator yields.
func drain(it *Iter) model {
	var out model
	for ; it.Valid(); it.Next() {
		out = append(out, kv{it.Key(), it.RowID()})
	}
	return out
}

// same reports whether two entry lists hold the same row ids in the same
// order under keys of one type that value.Compare finds equal (a stored −0
// comes back as +0).
func same(a, b model) bool {
	return slices.EqualFunc(a, b, func(x, y kv) bool {
		return x.id == y.id && x.key.T == y.key.T && value.Equal(x.key, y.key)
	})
}

// fuzzKinds are the key types a fuzzed tree can have. Each has a small domain
// of keys it stores, NULL among them, so duplicates straddle separators, and
// probes beyond them: keys of other types, which value.Compare still orders
// against the stored ones, and a NaN.
var fuzzKinds = []struct {
	kind   value.Type
	keys   []value.Value
	probes []value.Value
}{
	{value.TypeInt,
		[]value.Value{value.Null(), value.Int(math.MinInt64), value.Int(math.MinInt64 + 1), value.Int(-1<<53 - 1),
			value.Int(-7), value.Int(-1), value.Int(0), value.Int(1), value.Int(2), value.Int(3), value.Int(5),
			value.Int(8), value.Int(1 << 53), value.Int(1<<53 + 1), value.Int(math.MaxInt64 - 1), value.Int(math.MaxInt64)},
		[]value.Value{value.Float(2.5), value.Float(math.Copysign(0, -1)), value.Float(1 << 53), value.Float(math.Inf(1)),
			value.Float(math.Inf(-1)), value.Float(math.NaN()), value.Date(3), value.Date(-1), value.Str(""), value.Str("a")}},
	{value.TypeDate,
		[]value.Value{value.Null(), value.Date(math.MinInt64), value.Date(-1), value.Date(0), value.Date(1), value.Date(2),
			value.Date(3), value.Date(365), value.Date(2557), value.Date(math.MaxInt64)},
		[]value.Value{value.Int(3), value.Int(400), value.Float(2.5), value.Float(math.NaN()), value.Str("")}},
	{value.TypeFloat,
		[]value.Value{value.Null(), value.Float(math.Inf(-1)), value.Float(-math.MaxFloat64), value.Float(-2.5), value.Float(-1),
			value.Float(-math.SmallestNonzeroFloat64), value.Float(math.Copysign(0, -1)), value.Float(0),
			value.Float(math.SmallestNonzeroFloat64), value.Float(0.5), value.Float(1), value.Float(1 << 53),
			value.Float(1<<53 + 2), value.Float(1e300), value.Float(math.MaxFloat64), value.Float(math.Inf(1))},
		[]value.Value{value.Int(1), value.Int(0), value.Int(1<<53 + 1), value.Date(0), value.Float(math.NaN()), value.Str("a")}},
	{value.TypeStr,
		[]value.Value{value.Null(), value.Str(""), value.Str("\x00"), value.Str("a"), value.Str("a\x00"), value.Str("ab"),
			value.Str("abc"), value.Str("abd"), value.Str("ab\xff"), value.Str("b"), value.Str("ba"), value.Str("pre"),
			value.Str("prefix"), value.Str("prefixes"), value.Str("\xff")},
		[]value.Value{value.Int(0), value.Int(5), value.Float(1.5), value.Date(0), value.Str("abcd"), value.Str("aa")}},
}

// FuzzBtreeDelete drives insert / delete / range / lookup sequences over a
// tree with order-8 nodes, of the key type kind picks, against the model.
// Each operation is three bytes: what to do and two operands. Every answer —
// Delete's, each Range, Lookup and SeekBatch over the kind's keys and the
// mixed-type probes, the tree's length and a full iteration — must match the
// model, and an iterator opened mid-sequence must still yield the entries of
// that moment after everything that follows.
func FuzzBtreeDelete(f *testing.F) {
	// ops builds an input of (op, a, b) triples.
	ops := func(triples ...[3]byte) []byte {
		var out []byte
		for _, x := range triples {
			out = append(out, x[:]...)
		}
		return out
	}
	f.Add(byte(0), ops([3]byte{0, 1, 0}, [3]byte{0, 1, 0}, [3]byte{0, 2, 0}, [3]byte{1, 1, 0}, [3]byte{2, 1, 0}))
	var dup [][3]byte
	for i := 0; i < 9; i++ {
		dup = append(dup, [3]byte{0, 5, 0})
	}
	dup = append(dup, [3]byte{4, 0, 0}, [3]byte{1, 5, 0}, [3]byte{1, 5, 0}, [3]byte{2, 5, 5}, [3]byte{3, 5, 0})
	f.Add(byte(0), ops(dup...))
	for kind := range fuzzKinds {
		// Every key many times over, a snapshot, half of them deleted, then
		// a range from every probe and a lookup of every pair.
		var long [][3]byte
		for i := 0; i < 200; i++ {
			long = append(long, [3]byte{0, byte(i * 7), 0})
		}
		long = append(long, [3]byte{4, 3, 200})
		for i := 0; i < 100; i++ {
			long = append(long, [3]byte{1, byte(i * 3), 0})
		}
		for i := 0; i < 40; i++ {
			long = append(long, [3]byte{2, byte(i), byte(i * 5)}, [3]byte{3, byte(i), byte(39 - i)})
		}
		f.Add(byte(kind), ops(long...))
	}
	// Enough NULLs that interior nodes split among NULL separators, keys
	// above them, then half the NULLs deleted, with NULL probes throughout.
	var nulls [][3]byte
	for i := 0; i < 80; i++ {
		nulls = append(nulls, [3]byte{0, 0, 0})
	}
	for i := 0; i < 60; i++ {
		nulls = append(nulls, [3]byte{0, byte(i), 0}, [3]byte{2, 1, byte(i)})
	}
	nulls = append(nulls, [3]byte{3, 1, 2}, [3]byte{4, 0, 1})
	for i := 0; i < 40; i++ {
		nulls = append(nulls, [3]byte{1, 0, 0}, [3]byte{2, 0, byte(i)})
	}
	f.Add(byte(0), ops(nulls...))
	m := cpusim.NewMachine(cpusim.IntelI7_4790()) // what it has cached plays no part in what a tree answers
	f.Fuzz(func(t *testing.T, kind byte, ops []byte) {
		k := fuzzKinds[int(kind)%len(fuzzKinds)]
		tr := New(m.Hier, memsim.NewArena(1<<33, 64<<20), smallPage, k.kind)
		// probe is a bound: open, a storable key or one of the probes.
		probe := func(b byte) *value.Value {
			i := int(b) % (1 + len(k.keys) + len(k.probes))
			switch {
			case i == 0:
				return nil
			case i <= len(k.keys):
				return &k.keys[i-1]
			default:
				return &k.probes[i-1-len(k.keys)]
			}
		}
		point := func(b byte) value.Value {
			if p := probe(b); p != nil {
				return *p
			}
			return value.Null()
		}
		var want model
		var held *Iter
		var heldWant model
		nextID := 0
		for i := 0; i+2 < len(ops); i += 3 {
			key := k.keys[int(ops[i+1])%len(k.keys)]
			switch ops[i] % 5 {
			case 0:
				tr.Insert(key, nextID)
				want.insert(kv{key, nextID})
				nextID++
			case 1:
				// Delete the oldest entry under key, or one that is not
				// there when there is none.
				e := kv{key, -1}
				if j := want.seek(key); j < len(want) && value.Equal(want[j].key, key) {
					e = want[j]
				}
				if got, ok := tr.Delete(e.key, e.id), want.delete(e); got != ok {
					t.Fatalf("op %d: Delete(%v, %d) = %v, model says %v", i/3, e.key, e.id, got, ok)
				}
			case 2:
				lo, hi := probe(ops[i+1]), probe(ops[i+2])
				if got, exp := drain(tr.Range(lo, hi)), want.span(lo, hi); !same(got, exp) {
					t.Fatalf("op %d: Range(%v, %v) yields %v, want %v", i/3, lo, hi, got, exp)
				}
			case 3:
				keys := []value.Value{point(ops[i+1]), point(ops[i+2]), point(ops[i+1])}
				its := make([]Iter, len(keys))
				tr.SeekBatch(keys, its)
				for j, p := range keys {
					exp := want.span(&p, &p)
					if got := drain(&its[j]); !same(got, exp) {
						t.Fatalf("op %d: SeekBatch key %d (%v) yields %v, want %v", i/3, j, p, got, exp)
					}
					ids := make([]int, len(exp))
					for n, e := range exp {
						ids[n] = e.id
					}
					if got := tr.Lookup(p, new(Iter), nil); !slices.Equal(got, ids) {
						t.Fatalf("op %d: Lookup(%v) = %v, want %v", i/3, p, got, ids)
					}
				}
			case 4:
				if held == nil {
					lo, hi := probe(ops[i+1]), probe(ops[i+2])
					held, heldWant = tr.Range(lo, hi), slices.Clone(want.span(lo, hi))
				}
			}
			if tr.Len() != len(want) {
				t.Fatalf("op %d: Len = %d, model has %d", i/3, tr.Len(), len(want))
			}
		}
		if got := drain(tr.Range(nil, nil)); !same(got, want) {
			t.Fatalf("final iteration yields %v, want %v", got, want)
		}
		if held != nil {
			if got := drain(held); !same(got, heldWant) {
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
	tr := New(m.Hier, memsim.NewArena(1<<33, 64<<20), smallPage, value.TypeInt)
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
