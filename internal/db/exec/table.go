package exec

import (
	"fmt"
	"math"
	"reflect"
	"sort"

	"energydb/internal/db/catalog"
	"energydb/internal/db/value"
	"energydb/internal/memsim"
)

// This file holds the data structures both executors simulate, each written
// once: the join hash table, the equijoin key, the group table, the sort run
// and its key store. The row operators of this package and the batch
// operators of internal/db/vec differ only in their driver (a tuple at a time
// or a batch at a time) and in what they charge; the simulated addresses come
// from here. The planner sizes the same structures with HashTableBytes,
// GroupTableBytes and SortEntryBytes.

// hashBucketBytes is the simulated size of one hash-table bucket entry.
const hashBucketBytes = 16

// SortEntryBytes is the size of one sort-buffer entry (a row pointer and
// its extracted key slot).
const SortEntryBytes = 16

// HashTableBytes is the simulated footprint of a join hash table over the
// given number of build rows: a bucket head and a chain entry per row.
func HashTableBytes(rows float64) float64 { return (rows + 1) * hashBucketBytes * 2 }

// GroupTableBytes is the simulated footprint of a hash aggregation's table:
// groupCap buckets, each a bucket entry and its accumulator entry.
const GroupTableBytes = groupCap * hashBucketBytes * 2

const groupCap = 1024

// hashRegion is a simulated hash table's address range.
type hashRegion struct{ base, size uint64 }

func newHashRegion(c *Ctx, size uint64) hashRegion {
	return hashRegion{base: c.Arena.Alloc(size, memsim.PageSize), size: size}
}

// head is the bucket a key hashes to.
func (r hashRegion) head(k value.Key) uint64 { return r.base + k.Hash()%r.size }

// HashTable is a join's hash table: the build rows by equijoin key, as
// indexes into the caller's build buffer, over a simulated table of
// HashTableBytes.
type HashTable struct {
	hashRegion
	buckets map[value.Key][]int32
}

// NewHashTable reserves the simulated table for rows build rows.
func NewHashTable(c *Ctx, rows int) HashTable {
	return HashTable{
		hashRegion: newHashRegion(c, uint64(HashTableBytes(float64(rows)))),
		buckets:    make(map[value.Key][]int32, rows),
	}
}

// Insert adds build row i under key k and returns the address of its bucket
// entry, which the caller loads (dependent) and then stores.
func (t *HashTable) Insert(k value.Key, i int) uint64 {
	t.buckets[k] = append(t.buckets[k], int32(i))
	return t.base + uint64(i)*hashBucketBytes*2%t.size
}

// Bytes is the size of the simulated table, the working set its bucket and
// chain loads are priced over.
func (t *HashTable) Bytes() float64 { return float64(t.size) }

// Head is the address of the bucket head a probe key hashes to.
func (t *HashTable) Head(k value.Key) uint64 { return t.head(k) }

// Lookup returns the build rows stored under k, in insertion order.
func (t *HashTable) Lookup(k value.Key) []int32 { return t.buckets[k] }

// Hop is the address of the n-th entry (from 1) of a bucket chain walk.
func (t *HashTable) Hop(n int) uint64 { return t.base + uint64(n)*hashBucketBytes%t.size }

// JoinKey is the hash-table key of an equijoin key value. ok is false for
// NULL: SQL equality is never true for NULL (including NULL = NULL), so a
// NULL key can neither enter a hash table nor match out of one. A DATE, and
// a FLOAT holding an integer, key as the INT value.Compare finds equal to
// them, so a hash join matches what an index join over the same columns
// does; an INT keys as it always did.
func JoinKey(v value.Value) (key value.Key, ok bool) {
	switch {
	case v.IsNull():
		return value.Key{}, false
	case v.T == value.TypeDate:
		v = value.Int(v.I)
	case v.T == value.TypeFloat && v.F == math.Trunc(v.F) && math.Abs(v.F) < 1<<63:
		v = value.Int(int64(v.F))
	}
	return value.MakeKey(v), true
}

// AggSchema is a hash aggregation's output schema: the group keys, then one
// column per aggregate.
func AggSchema(keys int, aggs []AggSpec) *catalog.Schema {
	cols := make([]catalog.Column, 0, keys+len(aggs))
	for i := 0; i < keys; i++ {
		cols = append(cols, catalog.Column{
			Name: fmt.Sprintf("g%d", i), Type: value.TypeStr, Width: 16,
		})
	}
	for _, a := range aggs {
		name := a.Name
		if name == "" {
			name = a.Kind.String()
		}
		cols = append(cols, catalog.Column{Name: name, Type: value.TypeFloat, Width: 8})
	}
	return catalog.NewSchema(cols...)
}

// AccOf maps each aggregate to its accumulator: aggregates over one input —
// the same argument expression, or COUNT(*)s — share one, as PostgreSQL
// shares transition states, so SUM(x) and AVG(x) update one. It returns the
// accumulator of each aggregate, and how many there are.
func AccOf(aggs []AggSpec) (of []int, n int) {
	of = make([]int, len(aggs))
	for i, a := range aggs {
		of[i] = n
		for j := range i {
			if reflect.DeepEqual(aggs[j].Arg, a.Arg) {
				of[i] = of[j]
				break
			}
		}
		if of[i] == n {
			n++
		}
	}
	return of, n
}

// GroupTable is a hash aggregation's groups: each group's key values and
// accumulators, in first-seen order, over a simulated table of
// GroupTableBytes. A bucket's accumulators sit one entry after it (AccSlot).
// Group g's key values and accumulators are the g-th runs of two flat
// stores, so a new group costs no allocation of its own. Aggregates over one
// input share an accumulator (AccOf); kind holds what each accumulator
// maintains, the most any of its aggregates reads back.
//
// A code-indexed table (NewCodeTable) has no hash: its groups are the
// combinations of its keys' codes, each with one accumulator entry at a
// fixed address, and slots maps a combination to its group.
type GroupTable struct {
	hashRegion
	nkeys  int
	aggs   []AggSpec
	of     []int
	kind   []AggKind
	arg    []int // per accumulator, the first aggregate updating it
	index  map[value.Key]int32
	slots  []int32
	groups int
	keys   []value.Value
	states []AggAcc
}

// NewGroupTable reserves the simulated table for groups of nkeys key values
// and the given aggregates.
func NewGroupTable(c *Ctx, nkeys int, aggs []AggSpec) *GroupTable {
	t := newGroupTable(nkeys, aggs)
	t.hashRegion = newHashRegion(c, GroupTableBytes)
	t.index = make(map[value.Key]int32)
	return t
}

// NewCodeTable reserves a code-indexed aggregation's table over groups code
// combinations: a region of one accumulator entry per combination, no larger.
func NewCodeTable(c *Ctx, nkeys int, aggs []AggSpec, groups int) *GroupTable {
	t := newGroupTable(nkeys, aggs)
	size := uint64(CodeTableBytes(groups))
	t.hashRegion = hashRegion{base: c.Arena.Alloc(size, memsim.LineSize), size: size}
	t.slots = make([]int32, groups)
	for i := range t.slots {
		t.slots[i] = -1
	}
	return t
}

// CodeTableBytes is the simulated footprint of a code-indexed aggregation's
// table over groups code combinations: an accumulator entry each.
func CodeTableBytes(groups int) float64 { return float64(max(groups, 1)) * hashBucketBytes }

func newGroupTable(nkeys int, aggs []AggSpec) *GroupTable {
	t := &GroupTable{nkeys: nkeys, aggs: aggs}
	var n int
	t.of, n = AccOf(aggs)
	t.kind, t.arg = make([]AggKind, n), make([]int, n)
	for i := range t.kind {
		t.kind[i] = AggCount
	}
	for i := len(aggs) - 1; i >= 0; i-- {
		acc := t.of[i]
		t.arg[acc] = i
		switch k := aggs[i].Kind; {
		case k == AggMin || k == AggMax:
			t.kind[acc] = AggMin
		case (k == AggSum || k == AggAvg) && t.kind[acc] == AggCount:
			t.kind[acc] = AggSum
		}
	}
	return t
}

// Base is the address of the simulated table.
func (t *GroupTable) Base() uint64 { return t.base }

// AccSlot is the address of the accumulators of the bucket at slot.
func AccSlot(slot uint64) uint64 { return slot + hashBucketBytes }

// Add folds one input into the group keyed by vals, creating the group when
// it is new. args holds one argument value per aggregate; an aggregate
// without an argument folds value 1. It returns the bucket the key hashes to
// and whether the group is new.
func (t *GroupTable) Add(vals, args []value.Value) (slot uint64, isNew bool) {
	key := value.MakeKey(vals...)
	g, found := t.index[key]
	if !found {
		g = t.group(vals)
		t.index[key] = g
	}
	t.update(g, args)
	return t.head(key), !found
}

// AddAt folds one input into the group of code combination gid of a
// code-indexed table, creating the group, keyed by vals, when it is new. It
// returns the address of the group's accumulator entry and whether the group
// is new.
func (t *GroupTable) AddAt(gid int, vals, args []value.Value) (slot uint64, isNew bool) {
	g := t.slots[gid]
	if isNew = g < 0; isNew {
		g = t.group(vals)
		t.slots[gid] = g
	}
	t.update(g, args)
	return t.base + uint64(gid)*hashBucketBytes, isNew
}

// group appends a new group keyed by vals and returns its number.
func (t *GroupTable) group(vals []value.Value) int32 {
	t.keys = append(t.keys, vals...)
	t.states = append(t.states, make([]AggAcc, len(t.kind))...)
	t.groups++
	return int32(t.groups - 1)
}

// update folds one input into group g's accumulators, each once, with the
// argument of the first aggregate updating it; an aggregate without an
// argument folds value 1.
func (t *GroupTable) update(g int32, args []value.Value) {
	states := t.states[int(g)*len(t.kind):]
	for i, k := range t.kind {
		v := value.Int(1)
		if a := t.arg[i]; t.aggs[a].Arg != nil {
			v = args[a]
		}
		states[i].UpdateKind(k, v)
	}
}

// Len returns the number of groups. A table without keys is a scalar
// aggregate, whose one group exists even when no input arrived: SQL answers
// it with COUNT 0 and NULL for every other aggregate.
func (t *GroupTable) Len() int {
	if t.nkeys == 0 {
		return 1
	}
	return t.groups
}

// Row finalizes group i (in first-seen order) into an output row. The
// drivers loop over the groups, each with its own charge.
func (t *GroupTable) Row(i int) value.Row {
	out := make([]value.Value, t.nkeys, t.nkeys+len(t.aggs))
	copy(out, t.keys[i*t.nkeys:])
	for k, a := range t.aggs {
		var acc AggAcc // a scalar aggregate's group over no input
		if i < t.groups {
			acc = t.states[i*len(t.kind)+t.of[k]]
		}
		out = append(out, acc.Result(a.Kind))
	}
	return out
}

// SortRun is a sort's buffer: one SortEntryBytes entry per collected row.
type SortRun struct{ base uint64 }

// NewSortRun reserves the sort buffer for n rows (at least one entry).
func NewSortRun(c *Ctx, n int) SortRun {
	return SortRun{base: c.Arena.Alloc(uint64(max(n, 1))*SortEntryBytes, memsim.PageSize)}
}

// Entry is the address of entry i.
func (r SortRun) Entry(i int) uint64 { return r.base + uint64(i)*SortEntryBytes }

// SortKeys is a sort's extracted keys, column-major: column k holds key k
// of every collected row, in collection order.
type SortKeys struct {
	keys []SortKey
	cols [][]value.Value
}

// NewSortKeys returns an empty key store for the given ordering columns.
func NewSortKeys(keys []SortKey) *SortKeys {
	return &SortKeys{keys: keys, cols: make([][]value.Value, len(keys))}
}

// Append adds v as key k of the next collected row.
func (s *SortKeys) Append(k int, v value.Value) { s.cols[k] = append(s.cols[k], v) }

// less orders collected rows a and b: the first key they differ on decides,
// descending where its SortKey says so; rows equal on every key tie.
func (s *SortKeys) less(a, b int) bool {
	for k, col := range s.cols {
		c := value.Compare(col[a], col[b])
		if c == 0 {
			continue
		}
		if s.keys[k].Desc {
			return c > 0
		}
		return c < 0
	}
	return false
}

// Order runs the ordering pass over the run's n entries and returns the
// permutation that sorts them by keys, stable. Every comparison polls for
// cancellation (the pass is O(n log n) comparisons with no tuple boundary),
// loads both entries (dependent: the sort network chases row pointers) and
// does one compare per key.
func (r SortRun) Order(c *Ctx, n int, keys *SortKeys) []int32 {
	h := c.M.Hier
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.SliceStable(idx, func(a, b int) bool {
		c.Poll()
		h.Load(r.Entry(int(idx[a])), true)
		h.Load(r.Entry(int(idx[b])), true)
		c.Compute(len(keys.keys))
		return keys.less(int(idx[a]), int(idx[b]))
	})
	return idx
}
