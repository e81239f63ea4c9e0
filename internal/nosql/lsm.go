package nosql

import (
	"sort"

	"energydb/internal/cpusim"
	"energydb/internal/memsim"
)

// LSMKV is a LevelDB-style store: writes go to a skiplist memtable; when it
// fills it is flushed to a sorted run (SSTable); reads check the memtable,
// then each run newest-first, with a Bloom filter gating each run probe.
// Lookups are a mix of pointer chasing (skiplist), hot probes (Bloom) and
// binary search over large sorted arrays (runs) — a different energy
// signature again from both the hash store and the relational engines.
type LSMKV struct {
	m     *cpusim.Machine
	arena *memsim.Arena

	mem      *skiplist
	memLimit int
	runs     []*sstable

	hot            uint64
	HotLoadsPerOp  int
	HotStoresPerOp int
	InstrPerOp     int
}

// NewLSMKV builds a store that flushes its memtable after memLimit entries.
func NewLSMKV(m *cpusim.Machine, memLimit int, expectKeys, valueBytes int) *LSMKV {
	size := uint64(expectKeys)*uint64(valueBytes+48)*3 + (8 << 20)
	arena := memsim.NewArena(1<<36, size)
	kv := &LSMKV{
		m:              m,
		arena:          arena,
		memLimit:       memLimit,
		hot:            arena.Alloc(512, memsim.PageSize),
		HotLoadsPerOp:  20,
		HotStoresPerOp: 6,
		InstrPerOp:     110,
	}
	kv.mem = newSkiplist(m, arena)
	return kv
}

func (kv *LSMKV) opOverhead() {
	h := kv.m.Hier
	h.LoadRepeat(kv.hot, uint64(kv.HotLoadsPerOp))
	h.StoreRepeat(kv.hot+memsim.LineSize, uint64(kv.HotStoresPerOp))
	h.Exec(uint64(kv.InstrPerOp), memsim.InstrOther)
}

// Put inserts into the memtable, flushing when full.
func (kv *LSMKV) Put(key, val string) {
	kv.opOverhead()
	kv.mem.put(key, val)
	if kv.mem.len() >= kv.memLimit {
		kv.Flush()
	}
}

// Flush materializes the memtable as a new sorted run.
func (kv *LSMKV) Flush() {
	if kv.mem.len() == 0 {
		return
	}
	run := newSSTable(kv.m, kv.arena, kv.mem.entries())
	kv.runs = append(kv.runs, run)
	kv.mem = newSkiplist(kv.m, kv.arena)
}

// Get searches the memtable, then the runs newest-first.
func (kv *LSMKV) Get(key string) (string, bool) {
	kv.opOverhead()
	if v, ok := kv.mem.get(key); ok {
		return v, true
	}
	for i := len(kv.runs) - 1; i >= 0; i-- {
		if v, ok := kv.runs[i].get(key); ok {
			return v, true
		}
	}
	return "", false
}

// Scan iterates keys in [lo, hi) across the memtable and all runs, calling
// fn for each (key, value); duplicate keys yield the newest version only.
func (kv *LSMKV) Scan(lo, hi string, fn func(k, v string)) {
	kv.opOverhead()
	seen := make(map[string]bool)
	emit := func(k, v string) {
		if k >= lo && k < hi && !seen[k] {
			seen[k] = true
			fn(k, v)
		}
	}
	for _, e := range kv.mem.rangeEntries(lo, hi) {
		emit(e.key, e.val)
	}
	for i := len(kv.runs) - 1; i >= 0; i-- {
		kv.runs[i].scanRange(lo, hi, emit)
	}
}

// Runs returns the number of sorted runs.
func (kv *LSMKV) Runs() int { return len(kv.runs) }

// ---- skiplist memtable ----

const maxSkipLevel = 12

type skipNode struct {
	key  string
	val  string
	addr uint64
	next [maxSkipLevel]*skipNode
}

type skiplist struct {
	m     *cpusim.Machine
	arena *memsim.Arena
	head  *skipNode
	level int
	n     int
	rng   uint64
}

func newSkiplist(m *cpusim.Machine, arena *memsim.Arena) *skiplist {
	return &skiplist{
		m:     m,
		arena: arena,
		head:  &skipNode{addr: arena.Alloc(64, memsim.LineSize)},
		level: 1,
		rng:   0x853c49e6748fea9b,
	}
}

func (s *skiplist) randLevel() int {
	s.rng = s.rng*6364136223846793005 + 1442695040888963407
	lvl := 1
	v := s.rng
	for lvl < maxSkipLevel && v&3 == 0 {
		lvl++
		v >>= 2
	}
	return lvl
}

func (s *skiplist) len() int { return s.n }

// search walks down the levels issuing a dependent load per visited node.
func (s *skiplist) search(key string, update *[maxSkipLevel]*skipNode) *skipNode {
	h := s.m.Hier
	x := s.head
	for lvl := s.level - 1; lvl >= 0; lvl-- {
		for x.next[lvl] != nil {
			h.Load(x.next[lvl].addr, true)
			if x.next[lvl].key < key {
				x = x.next[lvl]
				continue
			}
			break
		}
		if update != nil {
			update[lvl] = x
		}
	}
	return x.next[0]
}

func (s *skiplist) put(key, val string) {
	var update [maxSkipLevel]*skipNode
	for i := range update {
		update[i] = s.head
	}
	found := s.search(key, &update)
	h := s.m.Hier
	if found != nil && found.key == key {
		found.val = val
		h.Store(found.addr)
		return
	}
	lvl := s.randLevel()
	if lvl > s.level {
		s.level = lvl
	}
	node := &skipNode{
		key:  key,
		val:  val,
		addr: s.arena.Alloc(uint64(64+align(len(val))), memsim.LineSize),
	}
	h.StoreRange(node.addr, uint64(48+len(val)))
	for i := 0; i < lvl; i++ {
		node.next[i] = update[i].next[i]
		update[i].next[i] = node
		h.Store(update[i].addr)
	}
	s.n++
}

func (s *skiplist) get(key string) (string, bool) {
	found := s.search(key, nil)
	if found != nil && found.key == key {
		s.m.Hier.Load(found.addr, true)
		return found.val, true
	}
	return "", false
}

type kvPair struct{ key, val string }

func (s *skiplist) entries() []kvPair {
	out := make([]kvPair, 0, s.n)
	for x := s.head.next[0]; x != nil; x = x.next[0] {
		s.m.Hier.Load(x.addr, true)
		out = append(out, kvPair{x.key, x.val})
	}
	return out
}

func (s *skiplist) rangeEntries(lo, hi string) []kvPair {
	var out []kvPair
	for x := s.search(lo, nil); x != nil && x.key < hi; x = x.next[0] {
		s.m.Hier.Load(x.addr, false)
		out = append(out, kvPair{x.key, x.val})
	}
	return out
}

// ---- sorted runs ----

// sstEntryBytes is the simulated index-entry width of a run.
const sstEntryBytes = 32

type sstable struct {
	m     *cpusim.Machine
	base  uint64
	pairs []kvPair
	bloom []uint64
	bbase uint64
}

func newSSTable(m *cpusim.Machine, arena *memsim.Arena, pairs []kvPair) *sstable {
	sorted := make([]kvPair, len(pairs))
	copy(sorted, pairs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].key < sorted[j].key })
	t := &sstable{
		m:     m,
		pairs: sorted,
		bloom: make([]uint64, max(len(pairs)/4, 1)),
	}
	t.base = arena.Alloc(uint64(len(sorted)*sstEntryBytes)+memsim.LineSize, memsim.PageSize)
	t.bbase = arena.Alloc(uint64(len(t.bloom)*8)+memsim.LineSize, memsim.PageSize)
	h := m.Hier
	for i, p := range sorted {
		h.Store(t.base + uint64(i*sstEntryBytes))
		for k := 0; k < 2; k++ {
			bit := bloomBit(p.key, k, len(t.bloom)*64)
			t.bloom[bit/64] |= 1 << (bit % 64)
			h.Store(t.bbase + uint64(bit/64*8))
		}
	}
	return t
}

func bloomBit(key string, k, bits int) int {
	h := hashString(key) ^ uint64(k)*0x9E3779B97F4A7C15
	return int(h % uint64(bits))
}

// mightContain probes the Bloom filter (hot loads; filters are small).
func (t *sstable) mightContain(key string) bool {
	h := t.m.Hier
	for k := 0; k < 2; k++ {
		bit := bloomBit(key, k, len(t.bloom)*64)
		h.Load(t.bbase+uint64(bit/64*8), true)
		if t.bloom[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// get binary-searches the run; every probe is a dependent load into a
// large sorted array (the classic cache-hostile access pattern).
func (t *sstable) get(key string) (string, bool) {
	if !t.mightContain(key) {
		return "", false
	}
	h := t.m.Hier
	lo, hi := 0, len(t.pairs)
	for lo < hi {
		mid := (lo + hi) / 2
		h.Load(t.base+uint64(mid*sstEntryBytes), true)
		h.Exec(2, memsim.InstrOther)
		switch {
		case t.pairs[mid].key < key:
			lo = mid + 1
		case t.pairs[mid].key > key:
			hi = mid
		default:
			return t.pairs[mid].val, true
		}
	}
	return "", false
}

// scanRange streams the matching slice of the run.
func (t *sstable) scanRange(lo, hi string, fn func(k, v string)) {
	start := sort.Search(len(t.pairs), func(i int) bool { return t.pairs[i].key >= lo })
	h := t.m.Hier
	for i := start; i < len(t.pairs) && t.pairs[i].key < hi; i++ {
		h.Load(t.base+uint64(i*sstEntryBytes), false)
		fn(t.pairs[i].key, t.pairs[i].val)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
