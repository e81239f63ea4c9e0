package memsim

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// walkPass is the Load loop ThrashPass stands for, its oracle.
func walkPass(h *Hierarchy, base uint64, order []uint32, dependent bool) {
	for _, idx := range order {
		h.Load(base+uint64(idx)*LineSize, dependent)
	}
}

// shuffled is a seeded random order over lines [0, n).
func shuffled(n int, seed int64) []uint32 {
	order := make([]uint32, n)
	for i, v := range rand.New(rand.NewSource(seed)).Perm(n) {
		order[i] = uint32(v)
	}
	return order
}

// sameAsWalk issues the pass in closed form on one of two new hierarchies
// and walks it on the other, and requires equal counters and Equal states
// after it. Then it walks the pass again on both: they must agree again. If
// the closed form reported that the pass repeats itself, the repetition must
// miss at every level and count what the first pass counted but for the first
// page crossing; if it did not, and every level keeps what it misses, the
// repetition must hit somewhere. Last, on a fresh pair, a load of the line
// the pass sent to its last line's L1D set just before it must hit and take
// the newest rank on both, which the newest-set hint must not skip. It
// returns what the closed form reported.
func sameAsWalk(t *testing.T, twins func() (*Hierarchy, *Hierarchy), base uint64, order []uint32, dependent bool) (repeats bool) {
	t.Helper()
	got, want := twins()
	closedAndWalked := func() {
		t.Helper()
		var issued bool
		if issued, repeats = got.ThrashPass(base, order, dependent); !issued {
			t.Fatal("closed form refused")
		}
		walkPass(want, base, order, dependent)
		if g, w := got.Counters(), want.Counters(); g != w {
			t.Fatalf("counters\n  got %+v\n walk %+v", g, w)
		}
		if !got.State().Equal(want.State()) {
			t.Fatal("state differs from the walk's")
		}
	}
	closedAndWalked()

	first := got.Counters() // of a new hierarchy: what the first pass counted
	walkPass(got, base, order, dependent)
	walkPass(want, base, order, dependent)
	if g, w := got.Counters(), want.Counters(); g != w {
		t.Fatalf("repeated pass: counters\n  got %+v\n walk %+v", g, w)
	}
	if !got.State().Equal(want.State()) {
		t.Fatal("repeated pass: state differs from the walk's")
	}
	again := got.Counters().Sub(first)
	n := uint64(len(order))
	switch {
	case repeats:
		if again.L1DMisses != n || again.MemAccesses != n {
			t.Fatalf("repeated pass hit: %d L1D misses, %d DRAM accesses of %d loads", again.L1DMisses, again.MemAccesses, n)
		}
		again.PageCrossings = first.PageCrossings
		if again != first {
			t.Fatalf("repeated pass counted\n %+v\nthe first\n %+v", again, first)
		}
	case !got.cfg.DirectFill && again.MemAccesses == n:
		t.Fatalf("the pass was reported not to repeat, yet its repetition missed everywhere: %+v", again)
	}

	got, want = twins()
	closedAndWalked()
	addr := func(i int) uint64 { return base + uint64(order[i])*LineSize }
	sets := uint64(got.cfg.L1D.Sets())
	last := len(order) - 1
	prev := last - 1
	for prev >= 0 && addr(prev)/LineSize%sets != addr(last)/LineSize%sets {
		prev--
	}
	if prev < 0 { // the last line is alone in its set
		return repeats
	}
	if g, w := got.Load(addr(prev), dependent), want.Load(addr(prev), dependent); g != LevelL1D || w != LevelL1D {
		t.Fatalf("reload of the line before the last in its set: %v, walk %v", g, w)
	}
	if !got.State().Equal(want.State()) {
		t.Fatal("after a reload: state differs from the walk's")
	}
	return repeats
}

// TestThrashPassMatchesWalk: every pass the closed form takes leaves the
// counters and State its Load loop leaves on a twin hierarchy, whether or not
// it repeats itself. A 12 MB chase sends every L3 set 24 lines and repeats; a
// 6 MB one sends each 12, fits the L3 and does not.
func TestThrashPassMatchesWalk(t *testing.T) {
	const base = 1 << 30
	chase := shuffled(12<<20/LineSize, 1) // 12 MB: 24 lines per L3 set
	cases := []struct {
		name      string
		cfg       Config
		freqHz    float64
		order     []uint32
		dependent bool
		repeats   bool
	}{
		{"dependent", I7_4790(), 0, chase, true, true},
		{"independent", I7_4790(), 0, chase, false, true},
		{"ARM", ARM1176JZFS(), 0, shuffled(64<<10/LineSize, 2), true, true},
		{"DirectFill", I7_4790().with(func(c *Config) { c.DirectFill = true }), 0, chase, true, true},
		{"PStateMin", I7_4790(), 0.8e9, chase, false, true},
		{"6 MB list", I7_4790(), 0, shuffled(6<<20/LineSize, 3), true, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			repeats := sameAsWalk(t, func() (*Hierarchy, *Hierarchy) {
				got, want := New(c.cfg), New(c.cfg)
				if c.freqHz > 0 {
					got.SetFrequencyHz(c.freqHz)
					want.SetFrequencyHz(c.freqHz)
				}
				return got, want
			}, base, c.order, c.dependent)
			if repeats != c.repeats {
				t.Fatalf("repeats %v, want %v", repeats, c.repeats)
			}
		})
	}
}

// TestThrashPassRefuses: a pass the closed form cannot prove misses
// everywhere, or whose events someone else wants, is left to the caller,
// with the counters and State untouched.
func TestThrashPassRefuses(t *testing.T) {
	const base = 1 << 30
	chase := shuffled(12<<20/LineSize, 1)
	repeated := append([]uint32(nil), chase...)
	repeated[len(repeated)-1] = repeated[0]
	sparse := make([]uint32, len(chase)/64)
	for i := range sparse {
		sparse[i] = chase[i] * 65
	}
	var events int
	cases := []struct {
		name  string
		cfg   Config
		setup func(h *Hierarchy)
		order []uint32
	}{
		{"warm cache", I7_4790(), func(h *Hierarchy) { h.Load(0, true) }, chase},
		{"repeated line", I7_4790(), nil, repeated},
		{"TCM window", armTCM(), nil, shuffled(64<<10/LineSize, 2)},
		{"recorder", I7_4790(), func(h *Hierarchy) {
			h.SetRecorder(func(AccessKind, uint64, uint64) { events++ })
		}, chase},
		{"prefetcher on", I7_4790(), func(h *Hierarchy) { h.SetPrefetchEnabled(true) }, chase},
		{"sparse order", I7_4790(), nil, sparse},
		{"empty order", I7_4790(), nil, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := New(c.cfg)
			if c.setup != nil {
				c.setup(h)
			}
			ctr, state := h.Counters(), h.State()
			if issued, _ := h.ThrashPass(base, c.order, true); issued {
				t.Fatal("closed form taken")
			}
			if h.Counters() != ctr {
				t.Fatalf("counters moved\n before %+v\n after  %+v", ctr, h.Counters())
			}
			if !h.State().Equal(state) {
				t.Fatal("state moved")
			}
			if events != 0 {
				t.Fatalf("the recorder saw %d events", events)
			}
		})
	}
}

// FuzzThrashPass derives an order, a base and the dependence from bytes and
// holds the closed form to the walk: where it is taken, sameAsWalk; where it
// refuses, nothing moved.
//
// Byte 0 picks the machine (bit 0: ARM, else the tiny i7), DirectFill (bit 1),
// dependent loads (bit 2) and a warm cache (bit 3); bytes 1–8 are the base,
// byte 9 the length, byte 10 the stride between the order's lines and byte 11
// their offset. Every later pair of bytes edits the shuffled order: a swap, or
// one in sixteen a copy, which repeats a line. A pass that reaches past
// MaxAddr must panic.
func FuzzThrashPass(f *testing.F) {
	f.Add([]byte{0x04, 0, 0, 0, 0x40, 0, 0, 0, 0, 0x60, 0, 0, 0x11, 0x22})
	f.Add([]byte{0x01, 0x10, 0x20, 0, 0, 0, 0, 0, 0, 0xff, 0, 3})
	f.Add([]byte{0x06, 0xc0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x80, 0, 0})
	f.Add([]byte{0x04, 0, 0, 0, 0x40, 0, 0, 0, 0, 0x60, 1, 0})
	f.Add([]byte{0x04, 0, 0, 0, 0x40, 0, 0, 0, 0, 0x60, 0, 0, 0x10, 0x22})
	f.Add([]byte{0x08, 0, 0, 0, 0x40, 0, 0, 0, 0, 0x60, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 12 {
			return
		}
		cfg := tiny()
		if data[0]&1 != 0 {
			cfg = ARM1176JZFS()
		}
		cfg.DirectFill = data[0]&2 != 0
		dependent := data[0]&4 != 0
		base := binary.LittleEndian.Uint64(data[1:9])
		n := 4 + 4*int(data[9])
		stride, offset := uint32(data[10]%4)+1, uint32(data[11])<<20
		order := shuffled(n, int64(data[9]))
		for i := range order {
			order[i] = order[i]*stride + offset
		}
		for edits := data[12:]; len(edits) >= 2; edits = edits[2:] {
			i, j := int(edits[0])*n/256, int(edits[1])*n/256
			if edits[0]&15 == 0 {
				order[j] = order[i]
			} else {
				order[i], order[j] = order[j], order[i]
			}
		}

		probe := New(cfg)
		if hi := slices.Max(order); base > MaxAddr || base+(uint64(hi)+1)*LineSize > MaxAddr {
			// Past the address space a 32-bit tag covers: refused loudly.
			defer func() {
				if recover() == nil {
					t.Fatalf("a pass from %#x to line %d past MaxAddr did not panic", base, hi)
				}
			}()
			probe.ThrashPass(base, order, dependent)
			return
		}
		warm := data[0]&8 != 0
		if warm {
			probe.Load(base, dependent)
		}
		ctr, state := probe.Counters(), probe.State()
		if issued, _ := probe.ThrashPass(base, order, dependent); !issued {
			if probe.Counters() != ctr || !probe.State().Equal(state) {
				t.Fatal("a refused closed form moved the hierarchy")
			}
			return
		}
		if warm {
			t.Fatal("closed form taken on a warm cache")
		}
		sameAsWalk(t, func() (*Hierarchy, *Hierarchy) { return New(cfg), New(cfg) }, base, order, dependent)
	})
}
