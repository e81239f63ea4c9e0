package memsim

import (
	"slices"
	"testing"
)

// TestCacheRecencyOrder drives one 4-way set through hits at every rank,
// misses with and without a fill, prefetch inserts of present and absent
// lines and a reset, and checks the set's exact tag order, most recently used
// first, after each step. Then it checks that ThrashPass computes only from
// cold caches: it refuses after any placement in any level, and accepts again
// after ResetCaches.
func TestCacheRecencyOrder(t *testing.T) {
	// Two sets of four ways: even lines map to set 0, odd ones to set 1.
	c := newCache(CacheConfig{SizeBytes: 8 * LineSize, Ways: 4})
	const a, b, d, e, f, odd = 2, 4, 6, 8, 10, 1
	step := func(what string, got, want bool, mru int, lines ...uint64) {
		t.Helper()
		tags := make([]uint32, 4)
		for i, l := range lines {
			tags[i] = uint32(l + 1)
		}
		if got != want {
			t.Fatalf("%s: returned %v, want %v", what, got, want)
		}
		if set := c.tags[:4]; !slices.Equal(set, tags) {
			t.Fatalf("%s: set 0 holds tags %v, want %v", what, set, tags)
		}
		if c.mru != mru {
			t.Fatalf("%s: newest-set hint %d, want %d", what, c.mru, mru)
		}
	}
	step("new", c.cold, true, 0)
	step("miss a", c.access(a, true), false, 0, a)
	step("miss b", c.access(b, true), false, 0, b, a)
	step("miss d", c.access(d, true), false, 0, d, b, a)
	step("miss e", c.access(e, true), false, 0, e, d, b, a)
	step("hit rank 0", c.access(e, true), true, 0, e, d, b, a)
	step("hit rank 1", c.access(d, true), true, 0, d, e, b, a)
	step("hit rank 2", c.access(b, true), true, 0, b, d, e, a)
	step("hit rank 3", c.access(a, true), true, 0, a, b, d, e)
	step("miss in set 1", c.access(odd, true), false, 4, a, b, d, e)
	step("hit rank 0, hint on set 1", c.access(a, true), true, 0, a, b, d, e)
	step("miss without fill", c.access(f, false), false, 0, a, b, d, e)
	step("miss f", c.access(f, true), false, 0, f, a, b, d)
	step("insert present b", c.insert(b), false, 0, f, a, b, d)
	step("insert absent e", c.insert(e), true, 0, e, f, a, b)
	step("contains d", c.contains(d), false, 0, e, f, a, b)
	step("contains a", c.contains(a), true, 0, e, f, a, b)
	step("cold after placements", c.cold, false, 0, e, f, a, b)
	c.reset()
	step("reset", c.cold, true, 0)
	if c.tags[4] != 0 {
		t.Fatalf("reset left set 1 holding tag %d", c.tags[4])
	}
	step("insert after reset", c.insert(d), true, 0, d)

	cfg := tiny()
	cfg.L1D.Ways = 4 // two sets, as above
	h := New(cfg)
	pass := []uint32{0, 2, 4, 6, 8}
	thrash := func(what string, want bool) {
		t.Helper()
		if issued, _ := h.ThrashPass(0, pass, false); issued != want {
			t.Fatalf("%s: ThrashPass issued %v, want %v", what, issued, want)
		}
	}
	thrash("new hierarchy", true)
	if set, want := h.l1d.tags[:4], []uint32{9, 7, 5, 3}; !slices.Equal(set, want) {
		t.Fatalf("after the pass L1D set 0 holds tags %v, want %v", set, want)
	}
	thrash("after a pass", false)
	for i, c := range h.caches() {
		h.ResetCaches()
		thrash("after a reset", true)
		h.ResetCaches()
		c.insert(1000)
		thrash([]string{"after an L1D insert", "after an L2 insert", "after an L3 insert"}[i], false)
	}
	h.ResetCaches()
	h.Load(1000*LineSize, false)
	thrash("after a load", false)
	h.ResetCaches()
	thrash("after the last reset", true)
}

// TestTagAddressCeiling: a line just below MaxAddr keeps a tag of its own. A
// load and a store there miss and then hit; a stream over the top pages, with
// both prefetchers reaching toward the ceiling, does what the reference's
// 64-bit tags do; and an arena or a closed-form pass that reaches past
// MaxAddr panics.
func TestTagAddressCeiling(t *testing.T) {
	const top = MaxAddr - 1
	h := New(tiny())
	if got := h.Load(top, true); got != LevelMem {
		t.Fatalf("first load below MaxAddr served by %v, want memory", got)
	}
	if got := h.Load(top, true); got != LevelL1D {
		t.Fatalf("second load below MaxAddr served by %v, want L1D", got)
	}
	h = New(tiny())
	if got := h.Store(top); got != LevelMem {
		t.Fatalf("first store below MaxAddr served by %v, want memory", got)
	}
	if got := h.Store(top); got != LevelL1D {
		t.Fatalf("second store below MaxAddr served by %v, want L1D", got)
	}

	cfg := tiny()
	cfg.Prefetch.Enabled, cfg.Prefetch.L1DNextLine = true, true
	p := newPair(t, cfg)
	for round := range 3 {
		for addr := uint64(MaxAddr - 2*PageSize); addr < MaxAddr; addr += LineSize {
			if round == 1 {
				p.store(addr)
			} else {
				p.load(addr, round == 2)
			}
		}
	}

	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	NewArena(MaxAddr-PageSize, PageSize) // ends at the ceiling: allowed
	mustPanic("an arena one byte past MaxAddr", func() { NewArena(MaxAddr-PageSize, PageSize+1) })
	mustPanic("an arena based past MaxAddr", func() { NewArena(MaxAddr, LineSize) })
	mustPanic("an arena whose end wraps", func() { NewArena(1<<63, 1<<63) })
	if issued, _ := New(tiny()).ThrashPass(MaxAddr-LineSize, []uint32{0}, false); !issued {
		t.Fatal("a pass over the last line below MaxAddr was refused")
	}
	mustPanic("a pass past MaxAddr", func() { New(tiny()).ThrashPass(MaxAddr-LineSize, []uint32{0, 1}, false) })
}
