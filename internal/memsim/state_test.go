package memsim

import (
	"math/rand"
	"testing"
)

// apply issues one fuzzed operation, the encoding of FuzzHierarchy, and
// returns the level a load or store was served from.
func apply(h *Hierarchy, op uint8, arg, addr uint64) Level {
	switch op {
	case 0:
		return h.Load(addr, false)
	case 1:
		return h.Load(addr, true)
	case 2:
		return h.Store(addr)
	case 3:
		h.LoadRepeat(addr, arg)
	case 4:
		h.StoreRepeat(addr, arg)
	case 5:
		h.SetPrefetchEnabled(arg&1 != 0)
	case 6:
		h.ResetCaches()
	case 7:
		for k := uint64(0); k <= arg; k++ {
			h.Load(addr+k*LineSize, false)
		}
	}
	return 0
}

// caches lists the levels the hierarchy has.
func (h *Hierarchy) caches() []*cache {
	var cs []*cache
	for _, c := range []*cache{h.l1d, h.l2, h.l3} {
		if c != nil {
			cs = append(cs, c)
		}
	}
	return cs
}

// scramble rewrites every cache into another representation of the state it
// is in: the ways of each set permuted, every stamp and the tick moved up by
// the same offset, the newest-way hint following its way.
func scramble(h *Hierarchy, rng *rand.Rand) {
	for _, c := range h.caches() {
		offset := uint64(1 + rng.Intn(1000))
		for base := 0; base < len(c.ways); base += c.assoc {
			set := c.ways[base : base+c.assoc]
			rng.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
		}
		c.tick += offset
		for i := range c.ways {
			if c.ways[i].tag != 0 {
				c.ways[i].used += offset
			}
		}
		for i := range c.ways {
			if c.ways[i].used > c.ways[c.mru].used {
				c.mru = i
			}
		}
	}
}

// FuzzHierarchyState checks the relation mubench's steady-state accounting
// rests on. Two hierarchies take different histories, then the same sweep of
// stores that replaces every line of every level, and one of them is
// scrambled: the two must be in Equal states. A change to one LRU rank, one
// tag or the last page must break the equality. Then both take the rest of
// the input as one access stream: every level returned and every counter
// must agree, and the states must be Equal at the end.
//
// The first byte picks the configuration, the second and third how many
// operations each history takes; operations are three bytes each, as in
// FuzzHierarchy.
func FuzzHierarchyState(f *testing.F) {
	f.Add([]byte{0x00, 2, 1, 0x00, 0x10, 0x00, 0x02, 0x20, 0x00, 0x3f, 0x07, 0x01, 0x01, 0x90, 0x00, 0x0f, 0x80, 0x00})
	f.Add([]byte{0x04, 0, 3, 0x01, 0x00, 0x00, 0x02, 0x00, 0x01, 0x3f, 0xf0, 0x00, 0x0d, 0x00, 0x00, 0x3f, 0x80, 0x00, 0x00, 0xff, 0x00})
	f.Add([]byte{0x08, 1, 1, 0x02, 0x00, 0x01, 0x00, 0x40, 0x01, 0x01, 0x00, 0x01, 0x02, 0x10, 0x01, 0x7f, 0x00, 0x01})
	f.Add([]byte{0x02, 3, 0, 0x07, 0x01, 0x00, 0x0b, 0x02, 0x00, 0x04, 0x03, 0x00, 0x0d, 0x00, 0x00, 0xff, 0x78, 0x00, 0x01, 0x79, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		cfg := tiny()
		if data[0]&8 != 0 {
			cfg = armTCM()
		}
		cfg.Prefetch.L1DNextLine = data[0]&2 != 0
		cfg.DirectFill = data[0]&4 != 0
		rng := rand.New(rand.NewSource(int64(data[0])<<16 | int64(data[1])<<8 | int64(data[2])))
		a, b := New(cfg), New(cfg)
		left := [2]int{int(data[1]), int(data[2])}
		data = data[3:]
		op := func() (uint8, uint64, uint64) {
			o, arg := data[0]&7, uint64(data[0]>>3)
			line := uint64(data[1]) | uint64(data[2]&3)<<8
			data = data[3:]
			return o, arg, line
		}

		// Histories, in lines [0, 1024). The streamer stays off: its
		// table is compared stamp for stamp, and histories of different
		// lengths would leave different stamps.
		for i, h := range []*Hierarchy{a, b} {
			for ; left[i] > 0 && len(data) >= 3; left[i]-- {
				if o, arg, line := op(); o != 5 {
					apply(h, o, arg, line*LineSize)
				}
			}
		}

		// The sweep, well above the histories and the TCM window, gives
		// every set of every level twice its ways in new lines. Stores
		// replicate into every level even under DirectFill.
		last := cfg.L1D
		if cfg.L3.Present() {
			last = cfg.L3
		}
		const sweepBase = 4096
		sweep := uint64(2 * last.SizeBytes / LineSize)
		var base [2]Counters
		for i, h := range []*Hierarchy{a, b} {
			h.StoreRange(sweepBase*LineSize, sweep*LineSize)
			base[i] = h.Counters()
		}
		scramble(b, rng)
		if !a.State().Equal(b.State()) {
			t.Fatal("after the same sweep the states differ")
		}

		// One difference at a time, each undone before the next.
		c := b.caches()[rng.Intn(len(b.caches()))]
		set := c.ways[rng.Intn(len(c.ways)/c.assoc)*c.assoc:][:c.assoc]
		i := rng.Intn(len(set))
		j := (i + 1 + rng.Intn(len(set)-1)) % len(set)
		differs := func(what string, change, undo func()) {
			change()
			if a.State().Equal(b.State()) {
				t.Fatalf("states equal with %s changed", what)
			}
			undo()
			if !a.State().Equal(b.State()) {
				t.Fatalf("states differ with %s restored", what)
			}
		}
		swapRank := func() { set[i].used, set[j].used = set[j].used, set[i].used }
		differs("one LRU rank", swapRank, swapRank)
		sets := c.setMask + 1
		differs("one tag", func() { set[i].tag += sets }, func() { set[i].tag -= sets })
		differs("the last page", func() { b.lastPage++ }, func() { b.lastPage-- })

		// The common future, over the tail of the sweep and past it.
		for n := 0; len(data) >= 3; n++ {
			o, arg, line := op()
			addr := (sweepBase + sweep - 512 + line) * LineSize
			if la, lb := apply(a, o, arg, addr), apply(b, o, arg, addr); la != lb {
				t.Fatalf("access %d (op %d, line %d): level %v, scrambled %v", n, o, line, la, lb)
			}
			if ca, cb := a.Counters().Sub(base[0]), b.Counters().Sub(base[1]); ca != cb {
				t.Fatalf("access %d (op %d, line %d): counters\n          %+v\nscrambled %+v", n, o, line, ca, cb)
			}
		}
		if !a.State().Equal(b.State()) {
			t.Fatal("states differ after the same accesses from equal states")
		}
	})
}

// TestMemorySide: what is left of a counter delta once Exec's part is taken
// out is what the same loads and stores count with no Exec between them, and
// crediting a delta moves the counters by it.
func TestMemorySide(t *testing.T) {
	with, without := New(I7_4790()), New(I7_4790())
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		addr := rng.Uint64() % (1 << 20)
		for _, h := range []*Hierarchy{with, without} {
			switch i % 3 {
			case 0:
				h.Load(addr, i%2 == 0)
			case 1:
				h.Store(addr)
			default:
				h.LoadRepeat(addr, 3)
			}
		}
		with.Exec(uint64(rng.Intn(7)), InstrKind(rng.Intn(3)))
	}
	if got, want := with.Counters().MemorySide(), without.Counters(); got != want {
		t.Fatalf("memory side\n  got %+v\n want %+v", got, want)
	}
	base := without.Counters()
	without.Credit(with.Counters())
	if got, want := without.Counters(), base.Add(with.Counters()); got != want {
		t.Fatalf("credit\n  got %+v\n want %+v", got, want)
	}
}
