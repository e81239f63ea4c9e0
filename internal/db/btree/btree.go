// Package btree implements a B+tree over simulated memory. It backs the
// engines' clustered tables and secondary indexes. Every node carries a
// simulated address; a descent issues dependent (pointer-chasing) loads and
// leaf scans issue streaming loads, reproducing the locality contrast the
// paper observes between index scan and table scan (Section 3.3).
//
// A descent has one issue path, level by level over a set of keys, with two
// modes (the paper's Algorithms 1 and 2, Section 2.5). A batch of lookups
// (SeekBatch, the batch engine's index join) is grouped: the loads of one
// level, across the batch's keys, are independent of each other and go out
// back to back. One key (Range, Lookup, and the node reads of Insert and
// Delete) is a batch of one whose loads are dependent.
//
// The tree also supports relocating its top layers into a TCM window — the
// Section 4.2 co-design places "the root and first few layers of the B-tree
// of current tables" into DTCM.
//
// # Sharing model
//
// The node structure (keys, row ids, simulated addresses) lives in a shared
// half; a Tree is a per-hierarchy view over it. Workers attach views of one
// shared index with View, so all of them descend the same structure while
// every simulated load and store drives the view's own machine.
//
// Concurrency is copy-on-write by generation. Every node is stamped with the
// generation it was made in, and the tree's generation advances at the first
// Insert or Delete after any reader captured the root. Insert writes a node of the
// current generation in place — no reader can hold it, since none has looked
// since it was made — and clones any older node it has to modify (reusing the
// node's simulated address, so the energy stream is identical to an in-place
// write) before publishing the new root under the shared half's internal
// lock. A tree nobody has read yet, such as an index under construction, is
// therefore built without a single copy, while a tree in service copies the
// root-to-leaf path once per insert that follows a read. Nodes a reader can
// reach are immutable, so a reader captures the root once and traverses a
// consistent snapshot of the whole tree without holding any lock — index
// scans never block behind inserts, and an iterator never observes a
// half-applied split. Entries inserted after the root capture are simply
// absent from that snapshot, which is exactly the MVCC contract: such entries
// belong to concurrent transactions whose versions the reader's snapshot
// filters out anyway.
//
// PlaceTopLevels is the one exception: it rewrites node addresses in place
// and must not run concurrently with readers (it is a load-time/experiment
// path).
package btree

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"energydb/internal/db/value"
	"energydb/internal/memsim"
)

// entryBytes is the on-node width of one (key, pointer) entry.
const entryBytes = 16

// nodeHeaderBytes is the on-node header width.
const nodeHeaderBytes = 16

// Tree is a B+tree view mapping composite keys to row ids: the node
// structure is shared, the hierarchy the traversals drive is the view's own.
type Tree struct {
	h *memsim.Hierarchy
	s *shared
}

// shared is the cross-view tree structure. mu guards root/size/height/gen
// and the string dictionary; nodes of an older generation than gen are
// immutable (a reader may hold them), nodes of generation gen belong to the
// inserter.
type shared struct {
	mu    sync.RWMutex
	arena *memsim.Arena
	order int        // max children per interior node / entries per leaf
	kind  value.Type // the type of every non-NULL key
	// strs and strIDs intern a Str tree's keys: a key's word is its index
	// in strs. Nothing is ever removed, since an older snapshot may still
	// decode it, and strs only grows, so a slice a reader captured stays
	// valid for every word it can reach.
	strs   []string
	strIDs map[string]uint64
	root   *node
	height int
	size   int
	gen    uint64
	// read is set by a reader capturing the root (under the read lock) and
	// cleared by the next Insert (under the write lock), which then starts
	// a new generation.
	read atomic.Bool
}

type node struct {
	gen  uint64
	addr uint64
	leaf bool
	// nulls counts the NULL keys, which sort first: keys[:nulls] are NULL
	// and their words mean nothing.
	nulls  int
	keys   []uint64 // ordered words of the first key component (see codec)
	kids   []*node  // interior
	rowIDs []int    // leaf
}

// key is one stored key: its word, or NULL.
type key struct {
	w    uint64
	null bool
}

// key returns n's key i.
func (n *node) key(i int) key { return key{w: n.keys[i], null: i < n.nulls} }

// putKey inserts k as n's key i; a NULL goes among the leading NULLs.
func (n *node) putKey(i int, k key) {
	n.keys = insertAt(n.keys, i, k.w)
	if k.null {
		n.nulls++
	}
}

// clone returns a mutable copy of n for generation gen at the same simulated
// address. The original stays immutable for readers holding older roots.
func (n *node) clone(gen uint64) *node {
	c := &node{gen: gen, addr: n.addr, leaf: n.leaf, nulls: n.nulls}
	c.keys = append([]uint64(nil), n.keys...)
	if n.leaf {
		c.rowIDs = append([]int(nil), n.rowIDs...)
	} else {
		c.kids = append([]*node(nil), n.kids...)
	}
	return c
}

// New creates an empty tree of keys of the given type whose nodes fit the
// given page size. Besides keys of that type it takes only NULLs.
func New(h *memsim.Hierarchy, arena *memsim.Arena, pageSize int, kind value.Type) *Tree {
	order := (pageSize - nodeHeaderBytes) / entryBytes
	if order < 8 {
		order = 8
	}
	t := &Tree{h: h, s: &shared{arena: arena, order: order, kind: kind}}
	if kind == value.TypeStr {
		t.s.strIDs = make(map[string]uint64)
	}
	t.s.root = t.newNode(true)
	t.s.height = 1
	return t
}

// signBit is the top bit of a word.
const signBit = 1 << 63

// codec maps one tree's keys to ordered words and back. An Int or Date key's
// word is the integer with its sign bit flipped and a Float key's the IEEE
// total-order transform (−0 as +0), so unsigned word order is value.Compare's
// order; a Str key's word is its index in the tree's dictionary, which orders
// nothing, and is compared by its string.
type codec struct {
	kind value.Type
	strs []string // the dictionary as captured with the root
}

// codec returns the codec of the current dictionary; the caller holds mu.
func (s *shared) codec() codec { return codec{kind: s.kind, strs: s.strs} }

// encode turns a key into what a node stores, interning a string; the
// caller holds mu. It panics on a non-NULL key of another type, whose word
// would not compare with the stored ones, and on a NaN, which value.Compare
// finds equal to every number, so that no position keeps the keys in order.
func (s *shared) encode(v value.Value) key {
	switch {
	case v.IsNull():
		return key{null: true}
	case v.T != s.kind:
		panic(fmt.Sprintf("btree: %v key in a tree of %v keys", v.T, s.kind))
	case v.T == value.TypeFloat && math.IsNaN(v.F):
		panic("btree: NaN key")
	case v.T != value.TypeStr:
		return key{w: s.codec().bound(v).w}
	}
	id, ok := s.strIDs[v.S]
	if !ok {
		id = uint64(len(s.strs))
		s.strs = append(s.strs, v.S)
		s.strIDs[v.S] = id
	}
	return key{w: id}
}

// floatWord is f's total-order word: negative floats have every bit flipped,
// the others their sign bit set. Both zeros map to +0's word.
func floatWord(f float64) uint64 {
	if f == 0 {
		return signBit
	}
	b := math.Float64bits(f)
	if b&signBit != 0 {
		return ^b
	}
	return b | signBit
}

// decode returns the non-NULL key a word stands for.
func (c codec) decode(w uint64) value.Value {
	switch c.kind {
	case value.TypeInt:
		return value.Int(int64(w ^ signBit))
	case value.TypeDate:
		return value.Date(int64(w ^ signBit))
	case value.TypeFloat:
		if w&signBit != 0 {
			return value.Float(math.Float64frombits(w ^ signBit))
		}
		return value.Float(math.Float64frombits(^w))
	}
	return value.Str(c.strs[w])
}

// bound is a probe prepared for one tree. When word is set, w orders against
// the tree's non-NULL words exactly as v does under value.Compare: v is of
// the tree's own kind (Int and Date compare alike) and not a NaN. Any other
// probe is compared with each decoded key.
type bound struct {
	v    value.Value
	w    uint64
	word bool
}

// bound prepares v as a probe.
func (c codec) bound(v value.Value) bound {
	b := bound{v: v}
	switch {
	case v.IsNull() || c.kind == value.TypeStr:
	case c.kind == value.TypeFloat:
		if v.T == value.TypeFloat && !math.IsNaN(v.F) {
			b.w, b.word = floatWord(v.F), true
		}
	case v.T == value.TypeInt || v.T == value.TypeDate:
		b.w, b.word = uint64(v.I)^signBit, true
	}
	return b
}

// compare is value.Compare(n's key i, b.v).
func (c codec) compare(n *node, i int, b *bound) int {
	switch {
	case i < n.nulls:
		if b.v.IsNull() {
			return 0
		}
		return -1
	case b.word:
		return cmp.Compare(n.keys[i], b.w)
	default:
		return value.Compare(c.decode(n.keys[i]), b.v)
	}
}

// search returns the first i of n whose key is at or above b.v under
// value.Compare, or above it when above is set.
func (c codec) search(n *node, b *bound, above bool) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if r := c.compare(n, m, b); r < 0 || above && r == 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// View returns a tree over the same shared node structure whose simulated
// accesses drive h instead of the receiver's hierarchy. Views are cheap to
// create and safe to use concurrently.
func (t *Tree) View(h *memsim.Hierarchy) *Tree {
	return &Tree{h: h, s: t.s}
}

func (t *Tree) newNode(leaf bool) *node {
	size := nodeHeaderBytes + t.s.order*entryBytes
	return &node{
		gen:  t.s.gen,
		addr: t.s.arena.Alloc(uint64(size), memsim.LineSize),
		leaf: leaf,
	}
}

// snapshot captures the current published root and marks the tree read,
// which makes everything reachable from that root immutable, with the codec
// that decodes it.
func (t *Tree) snapshot() (*node, codec) {
	t.s.mu.RLock()
	defer t.s.mu.RUnlock()
	return t.s.capture(), t.s.codec()
}

// capture hands the root to a reader; the caller holds mu.
func (s *shared) capture() *node {
	if !s.read.Load() {
		s.read.Store(true)
	}
	return s.root
}

// Len returns the number of entries.
func (t *Tree) Len() int {
	t.s.mu.RLock()
	defer t.s.mu.RUnlock()
	return t.s.size
}

// Height returns the tree height (1 = root is a leaf).
func (t *Tree) Height() int {
	t.s.mu.RLock()
	defer t.s.mu.RUnlock()
	return t.s.height
}

// Order returns the node fanout.
func (t *Tree) Order() int { return t.s.order }

// beginWrite starts a structural change: if a reader has captured the root
// since the last one, everything reachable from it is now immutable and the
// change belongs to a new generation. The caller holds mu.
func (s *shared) beginWrite() {
	if s.read.Load() {
		s.read.Store(false)
		s.gen++
	}
}

// Insert adds (key, rowID). Keys may repeat; entries with equal keys are
// kept in insertion order. The simulated descent and node writes are issued
// against the inserting view's hierarchy; structurally the insert copies
// whatever a reader may hold (see the package comment), so concurrent readers
// keep a consistent snapshot. A non-NULL key must be of the tree's type and
// not a NaN (see shared.encode); Insert panics on any other.
func (t *Tree) Insert(v value.Value, rowID int) {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	k := t.s.encode(v)
	t.s.beginWrite()
	t.s.size++
	c := t.s.codec()
	b := c.bound(v)
	root, split, sep := t.insert(t.s.root, c, &b, k, rowID)
	if split != nil {
		newRoot := t.newNode(false)
		newRoot.putKey(0, sep)
		newRoot.kids = []*node{root, split}
		root = newRoot
		t.s.height++
		t.h.StoreRange(newRoot.addr, uint64(nodeHeaderBytes+2*entryBytes))
	}
	t.s.root = root
}

// insert returns n, or its clone when n predates the current generation,
// with the entry (k, rowID) added, plus a split sibling when it overflowed.
// b is k as a probe: the entry goes after every key that equals it.
func (t *Tree) insert(n *node, c codec, b *bound, k key, rowID int) (*node, *node, key) {
	t.level([]Iter{{n: n}}, true)
	m := t.mutable(n)
	idx := c.search(m, b, true)
	if m.leaf {
		m.putKey(idx, k)
		m.rowIDs = insertAt(m.rowIDs, idx, rowID)
		t.h.StoreRange(m.addr+uint64(nodeHeaderBytes+idx*entryBytes), entryBytes)
		if len(m.keys) <= t.s.order {
			return m, nil, key{}
		}
		right, sep := t.splitLeaf(m)
		return m, right, sep
	}
	child, split, sep := t.insert(m.kids[idx], c, b, k, rowID)
	m.kids[idx] = child
	if split == nil {
		return m, nil, key{}
	}
	m.putKey(idx, sep)
	m.kids = insertAt(m.kids, idx+1, split)
	t.h.StoreRange(m.addr+uint64(nodeHeaderBytes+idx*entryBytes), entryBytes)
	if len(m.kids) <= t.s.order {
		return m, nil, key{}
	}
	right, rsep := t.splitInterior(m)
	return m, right, rsep
}

func (t *Tree) splitLeaf(n *node) (*node, key) {
	mid := len(n.keys) / 2
	right := t.newNode(true)
	n.nulls, right.nulls = min(n.nulls, mid), max(n.nulls-mid, 0)
	n.keys, right.keys = cut(n.keys, mid, mid)
	n.rowIDs, right.rowIDs = cut(n.rowIDs, mid, mid)
	t.h.StoreRange(right.addr, uint64(nodeHeaderBytes+len(right.keys)*entryBytes))
	return right, right.key(0)
}

func (t *Tree) splitInterior(n *node) (*node, key) {
	mid := len(n.keys) / 2
	sep := n.key(mid)
	right := t.newNode(false)
	n.nulls, right.nulls = min(n.nulls, mid), max(n.nulls-mid-1, 0)
	n.keys, right.keys = cut(n.keys, mid, mid+1)
	n.kids, right.kids = cut(n.kids, mid+1, mid+1)
	t.h.StoreRange(right.addr, uint64(nodeHeaderBytes+len(right.keys)*entryBytes))
	return right, sep
}

// cut splits a node's slice between the node, which keeps s[:i], and its
// new right sibling, which takes s[j:]. The node gets a copy exactly as long
// as what it holds; the sibling, where a load in key order keeps inserting,
// takes over s's grown array, so it fills it before it allocates again.
func cut[E any](s []E, i, j int) (left, right []E) {
	left = make([]E, i)
	copy(left, s)
	right = s[:copy(s, s[j:])]
	clear(s[len(right):]) // drop what the moved tail still points at
	return left, right
}

// Delete removes the entry (key, rowID) and reports whether it was there.
// Like Insert it descends on the deleting view's hierarchy and copies, by
// generation, the root-to-leaf path a reader may hold, so an iterator keeps
// the snapshot it captured. Leaves are never merged: one that loses its last
// entry stays in place, empty (iterators step over it) and without its entry
// arrays. Equal keys may straddle a separator, so the search tries every
// child that can hold key, leftmost first.
func (t *Tree) Delete(v value.Value, rowID int) bool {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	t.s.beginWrite()
	c := t.s.codec()
	b := c.bound(v)
	root, found := t.delete(t.s.root, c, &b, rowID)
	if found {
		t.s.root = root
		t.s.size--
	}
	return found
}

// delete returns n, or its clone when n predates the current generation,
// without the entry (b.v, rowID), and whether it was found below n.
func (t *Tree) delete(n *node, c codec, b *bound, rowID int) (*node, bool) {
	t.level([]Iter{{n: n}}, true)
	i := c.search(n, b, false)
	if n.leaf {
		for ; i < len(n.keys) && c.compare(n, i, b) == 0; i++ {
			if n.rowIDs[i] != rowID {
				t.h.Load(n.addr+uint64(nodeHeaderBytes+i*entryBytes), false)
				continue
			}
			m := t.mutable(n)
			if i < m.nulls {
				m.nulls--
			}
			m.keys = append(m.keys[:i], m.keys[i+1:]...)
			m.rowIDs = append(m.rowIDs[:i], m.rowIDs[i+1:]...)
			if len(m.keys) == 0 {
				m.keys, m.rowIDs = nil, nil
			}
			t.h.StoreRange(m.addr+uint64(nodeHeaderBytes+i*entryBytes), entryBytes)
			return m, true
		}
		return n, false
	}
	for ; i < len(n.kids); i++ {
		if kid, found := t.delete(n.kids[i], c, b, rowID); found {
			m := t.mutable(n)
			m.kids[i] = kid
			return m, true
		}
		if i == len(n.keys) || c.compare(n, i, b) > 0 {
			break
		}
	}
	return n, false
}

// mutable returns n if it belongs to the current generation, else its clone.
func (t *Tree) mutable(n *node) *node {
	if n.gen != t.s.gen {
		return n.clone(t.s.gen)
	}
	return n
}

// Probes is the number of binary-search rounds a descent spends in a node
// holding fill entries: 1 + ⌊log2 fill⌋, and one for an empty node.
func Probes(fill int) int { return max(bits.Len(uint(fill)), 1) }

// probeAddr is the address binary-search round i reads in n.
func probeAddr(n *node, i int) uint64 {
	return n.addr + uint64(nodeHeaderBytes+(i*37%max(len(n.keys), 1))*entryBytes)
}

// frame is one interior level of an iterator's descent path.
type frame struct {
	n   *node
	idx int
}

// Range returns an iterator over the entries with lo <= key <= hi of the
// tree snapshot current at the call; a nil bound is open. The descent to the
// first entry >= lo (the smallest entry when lo is nil) is a batch of one:
// its loads are dependent. The upper bound is checked on the host and costs
// no simulated access: the iterator turns invalid at the first entry past hi.
func (t *Tree) Range(lo, hi *value.Value) *Iter {
	it := new(Iter)
	t.seek(it, lo, hi)
	return it
}

// seek points it at the first entry of Range(lo, hi), reusing its descent
// stack: walk over a batch of one, dependent. The batch is a one-element
// array copied back into it, since walk takes a slice.
func (t *Tree) seek(it *Iter, lo, hi *value.Value) {
	root, c := t.snapshot()
	one := [1]Iter{{t: t, c: c, stack: it.stack[:0], n: root}}
	if lo != nil {
		one[0].lo, one[0].lowered = c.bound(*lo), true
	}
	if hi != nil {
		one[0].hi, one[0].bounded = c.bound(*hi), true
	}
	t.walk(one[:], true)
	*it = one[0]
}

// SeekBatch points its[k] at the first entry equal to keys[k], as Lookup's
// iterator stands before its first RowID, for every k, over one snapshot of
// the tree: walk over the whole batch, its descent loads independent — the
// nodes of one level follow from the level above alone, so no key's load
// waits on another key's. The leaf hops that settle an iterator stay
// dependent, as do the iterators' own Next loads. its must be at least as
// long as keys; each iterator's stack is reused, and the iterators whose
// stack is too short for the tree share one new array.
func (t *Tree) SeekBatch(keys []value.Value, its []Iter) {
	if len(keys) == 0 {
		return
	}
	its = its[:len(keys)]
	root, c := t.snapshot()
	depth := 0 // interior levels: the frames a descent pushes
	for n := root; !n.leaf; n = n.kids[0] {
		depth++
	}
	var frames []frame
	for k := range its {
		stack := its[k].stack[:0]
		if cap(stack) < depth {
			if len(frames) == 0 {
				frames = make([]frame, depth*(len(its)-k))
			}
			stack, frames = frames[:0:depth], frames[depth:]
		}
		b := c.bound(keys[k])
		its[k] = Iter{t: t, c: c, stack: stack, n: root, lo: b, hi: b, lowered: true, bounded: true}
	}
	t.walk(its, false)
}

// walk descends every iterator of its, each standing at one snapshot's root,
// to the first entry of its range, level by level: level issues the reads of
// the level's nodes, then each iterator takes its branch on the host. Within
// one key the levels, and the rounds within one node, keep their order. Then
// each iterator settles.
func (t *Tree) walk(its []Iter, dependent bool) {
	// The tree is balanced and the snapshot one: a level is leaves for
	// every key or for none.
	for leaf := false; !leaf; {
		leaf = its[0].n.leaf
		t.level(its, dependent)
		for k := range its {
			its[k].branch()
		}
	}
	for k := range its {
		its[k].settle()
	}
}

// level is the one issue path of a node read: it reads the nodes its[k].n,
// each header with its comparisons back to back, then each binary-search
// round across the set, round i of every node before round i+1 of any, each
// a load of the line probeAddr names. dependent marks a set of one reached
// by pointer chasing (a lone descent, an insert, a delete); a batch's loads
// are independent.
func (t *Tree) level(its []Iter, dependent bool) {
	rounds := 0
	for k := range its {
		n := its[k].n
		t.h.Load(n.addr, dependent)
		p := Probes(len(n.keys))
		t.h.Exec(uint64(p), memsim.InstrOther) // comparisons
		rounds = max(rounds, p)
	}
	for i := 0; i < rounds; i++ {
		for k := range its {
			if n := its[k].n; i < Probes(len(n.keys)) {
				t.h.Load(probeAddr(n, i), dependent)
			}
		}
	}
}

// Lookup returns the rowIDs of entries equal to key, appended to dst[:0] and
// walked with it: an operator that hands every lookup the same iterator and
// buffer allocates nothing per key.
func (t *Tree) Lookup(key value.Value, it *Iter, dst []int) []int {
	dst = dst[:0]
	for t.seek(it, &key, &key); it.Valid(); it.Next() {
		dst = append(dst, it.RowID())
	}
	return dst
}

// Iter walks leaf entries in key order over one immutable tree snapshot:
// the descent path is kept as a stack, so no sibling pointers are needed
// and a concurrent insert can never tear the traversal.
type Iter struct {
	t     *Tree
	c     codec
	stack []frame
	// n is the node the descent reads next, and the current leaf once it
	// is reached.
	n   *node
	idx int
	// lo is the descent's target when lowered is set: it stops at the first
	// entry >= lo, else at the smallest. hi is the inclusive upper bound
	// when bounded is set.
	lo, hi           bound
	lowered, bounded bool
}

// Valid reports whether the iterator points at an entry within its range.
func (it *Iter) Valid() bool {
	return it.n != nil && it.idx < len(it.n.keys) &&
		(!it.bounded || it.c.compare(it.n, it.idx, &it.hi) <= 0)
}

// Key returns the current key.
func (it *Iter) Key() value.Value {
	if it.idx < it.n.nulls {
		return value.Null()
	}
	return it.c.decode(it.n.keys[it.idx])
}

// RowID returns the current row id.
func (it *Iter) RowID() int { return it.n.rowIDs[it.idx] }

// branch takes one level of the descent on the host once it.n's loads are
// issued: at a leaf it positions it at the first entry >= lo, above one it
// records the branch on its stack and moves to the child to read next.
func (it *Iter) branch() {
	// Descend into the leftmost child that can hold lo: duplicates equal
	// to a separator may live in the child left of it, so the interior
	// search uses >=.
	n, idx := it.n, 0
	if it.lowered {
		idx = it.c.search(n, &it.lo, false)
	}
	if n.leaf {
		it.idx = idx
		return
	}
	it.stack = append(it.stack, frame{n, idx})
	it.n = n.kids[idx]
}

// settle ends a descent: the first entry in range may live in a later leaf.
func (it *Iter) settle() {
	for it.n != nil && it.idx >= len(it.n.keys) {
		it.advanceLeaf()
	}
}

// advanceLeaf moves to the next leaf in key order via the descent stack,
// charging one dependent load for the leaf hop (the on-disk structure's
// sibling link).
func (it *Iter) advanceLeaf() {
	//lint:nocharge stack pops revisit interior nodes charged during the descent; the leaf hop below charges its dependent load
	for len(it.stack) > 0 {
		top := &it.stack[len(it.stack)-1]
		top.idx++
		if top.idx < len(top.n.kids) {
			n := top.n.kids[top.idx]
			for !n.leaf {
				it.stack = append(it.stack, frame{n, 0})
				n = n.kids[0]
			}
			it.n = n
			it.idx = 0
			it.t.h.Load(n.addr, true)
			return
		}
		it.stack = it.stack[:len(it.stack)-1]
	}
	it.n = nil
	it.idx = 0
}

// Next advances, issuing a streaming load within the leaf and a dependent
// load when hopping to the next leaf.
func (it *Iter) Next() {
	it.idx++
	if it.idx < len(it.n.keys) {
		it.t.h.Load(it.n.addr+uint64(nodeHeaderBytes+it.idx*entryBytes), false)
		return
	}
	it.advanceLeaf()
	for it.n != nil && len(it.n.keys) == 0 {
		it.advanceLeaf()
	}
}

// Shape summarises one tree snapshot for the tests that pin a build: entry
// count, height, node count and an FNV-1a hash over every node's (simulated
// address, key count) in key order. Two trees with equal shapes were built by
// the same splits at the same addresses.
type Shape struct {
	Len, Height, Nodes int
	Hash               uint64
}

// Shape walks the current snapshot without simulating any access.
func (t *Tree) Shape() Shape {
	t.s.mu.RLock()
	sh := Shape{Len: t.s.size, Height: t.s.height}
	root := t.s.capture()
	t.s.mu.RUnlock()
	f := fnv.New64a()
	var word [16]byte
	var walk func(n *node)
	walk = func(n *node) {
		sh.Nodes++
		binary.LittleEndian.PutUint64(word[:8], n.addr)
		binary.LittleEndian.PutUint64(word[8:], uint64(len(n.keys)))
		f.Write(word[:])
		for _, k := range n.kids {
			walk(k)
		}
	}
	walk(root)
	sh.Hash = f.Sum64()
	return sh
}

// PlaceTopLevels relocates the root and as many upper levels as fit into
// addresses drawn from the given allocator (a DTCM arena in the Section 4
// co-design). It returns the number of nodes moved. Allocation stops when
// the budget runs out; lower levels keep their ordinary addresses.
//
// Unlike Insert this rewrites node addresses in place: it must not run
// concurrently with readers (it is a load-time / experiment-harness path).
func (t *Tree) PlaceTopLevels(alloc func(size uint64) (uint64, bool)) int {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	moved := 0
	levelNodes := []*node{t.s.root}
	for len(levelNodes) > 0 {
		next := make([]*node, 0, len(levelNodes)*4)
		for _, n := range levelNodes {
			size := uint64(nodeHeaderBytes + t.s.order*entryBytes)
			addr, ok := alloc(size)
			if !ok {
				return moved
			}
			n.addr = addr
			moved++
			if !n.leaf {
				next = append(next, n.kids...)
			}
		}
		levelNodes = next
	}
	return moved
}

func insertAt[E any](s []E, i int, v E) []E {
	var zero E
	s = append(s, zero)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}
