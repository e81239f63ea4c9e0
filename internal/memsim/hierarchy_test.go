package memsim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func newI7(t *testing.T) *Hierarchy {
	t.Helper()
	return New(I7_4790())
}

func TestL1DHitAfterFill(t *testing.T) {
	h := newI7(t)
	if lvl := h.Load(0x1000, true); lvl != LevelMem {
		t.Fatalf("cold load level = %v, want mem", lvl)
	}
	if lvl := h.Load(0x1000, true); lvl != LevelL1D {
		t.Fatalf("warm load level = %v, want L1D", lvl)
	}
	c := h.Counters()
	if c.L1DAccesses != 2 || c.L1DHits != 1 || c.L1DMisses != 1 {
		t.Fatalf("L1D counters = %+v", c)
	}
	if c.MemAccesses != 1 {
		t.Fatalf("MemAccesses = %d, want 1", c.MemAccesses)
	}
}

func TestStepByStepReplication(t *testing.T) {
	h := newI7(t)
	// Cold miss fills every level on the way back.
	h.Load(0x2000, true)
	c := h.Counters()
	if c.L2Accesses != 1 || c.L3Accesses != 1 || c.MemAccesses != 1 {
		t.Fatalf("cold miss should access every level: %+v", c)
	}
	// A second load of the same line must hit L1D without touching L2/L3.
	h.Load(0x2000, true)
	c2 := h.Counters()
	if c2.L2Accesses != 1 || c2.L3Accesses != 1 {
		t.Fatalf("warm load leaked below L1D: %+v", c2)
	}
}

func TestL2HitAfterL1DEviction(t *testing.T) {
	cfg := I7_4790()
	h := New(cfg)
	// Fill well past L1D capacity with distinct lines mapping across sets.
	lines := cfg.L1D.SizeBytes / LineSize * 4
	for i := 0; i < lines; i++ {
		h.Load(uint64(i)*LineSize, true)
	}
	// The first line has been evicted from L1D but the working set
	// (128KB) still fits in L2.
	h.ResetCounters()
	if lvl := h.Load(0, true); lvl != LevelL2 {
		t.Fatalf("level = %v, want L2", lvl)
	}
	c := h.Counters()
	if c.L1DMisses != 1 || c.L2Hits != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestDependentLoadStalls(t *testing.T) {
	cfg := I7_4790()
	h := New(cfg)
	h.Load(0x40, true) // cold: DRAM latency
	c := h.Counters()
	want := uint64(cfg.MemLatencyCycles - 1)
	if c.StallCycles != want {
		t.Fatalf("cold dependent stall = %d, want %d", c.StallCycles, want)
	}
	h.ResetCounters()
	h.Load(0x40, true) // warm: L1D latency 4 -> 3 stall cycles
	if got := h.Counters().StallCycles; got != 3 {
		t.Fatalf("warm dependent stall = %d, want 3", got)
	}
}

func TestIndependentL1DLoadDoesNotStall(t *testing.T) {
	h := newI7(t)
	h.Load(0x40, false)
	h.ResetCounters()
	h.Load(0x40, false)
	if got := h.Counters().StallCycles; got != 0 {
		t.Fatalf("independent L1D hit stalled %d cycles, want 0", got)
	}
}

func TestIndependentMissStallAmortized(t *testing.T) {
	cfg := I7_4790()
	h := New(cfg)
	h.Load(0x40, false)
	c := h.Counters()
	want := uint64((cfg.MemLatencyCycles - cfg.L1D.LatencyCycles) / cfg.IndependentMLP)
	if c.StallCycles != want {
		t.Fatalf("independent miss stall = %d, want %d", c.StallCycles, want)
	}
}

func TestStoreHitCountsReg2L1D(t *testing.T) {
	h := newI7(t)
	h.Load(0x80, false) // bring line in
	h.ResetCounters()
	h.Store(0x80)
	c := h.Counters()
	if c.StoreL1DHits != 1 || c.StoreL1DMisses != 0 {
		t.Fatalf("store counters = %+v", c)
	}
	if c.L1DAccesses != 0 {
		t.Fatalf("store hit must not count as a load L1D access: %+v", c)
	}
}

func TestStoreMissWriteAllocates(t *testing.T) {
	h := newI7(t)
	h.Store(0x3000)
	c := h.Counters()
	if c.StoreL1DMisses != 1 {
		t.Fatalf("store miss not counted: %+v", c)
	}
	if c.MemAccesses != 1 {
		t.Fatalf("write-allocate should fetch from DRAM: %+v", c)
	}
	// After allocation the next store hits.
	h.ResetCounters()
	h.Store(0x3000)
	if got := h.Counters().StoreL1DHits; got != 1 {
		t.Fatalf("second store should hit L1D, counters %+v", h.Counters())
	}
}

func TestIPCAccounting(t *testing.T) {
	h := newI7(t)
	// Warm one line then issue 1000 independent loads to it: dual issue,
	// no stalls -> IPC approaches 2.
	h.Load(0, false)
	h.ResetCounters()
	for i := 0; i < 1000; i++ {
		h.Load(0, false)
	}
	if ipc := h.Counters().IPC(); ipc < 1.9 || ipc > 2.1 {
		t.Fatalf("array-style IPC = %.2f, want about 2", ipc)
	}
	// Dependent loads: 4 cycles per load -> IPC 0.25.
	h.ResetCounters()
	for i := 0; i < 1000; i++ {
		h.Load(0, true)
	}
	if ipc := h.Counters().IPC(); ipc < 0.24 || ipc > 0.26 {
		t.Fatalf("list-style IPC = %.3f, want about 0.25", ipc)
	}
}

func TestExecIssueWidths(t *testing.T) {
	h := newI7(t)
	h.Exec(1000, InstrNop)
	if ipc := h.Counters().IPC(); ipc < 3.9 || ipc > 4.1 {
		t.Fatalf("nop IPC = %.2f, want about 4", ipc)
	}
	h.ResetCounters()
	h.Exec(1000, InstrAdd)
	if ipc := h.Counters().IPC(); ipc < 1.9 || ipc > 2.1 {
		t.Fatalf("add IPC = %.2f, want about 2", ipc)
	}
}

func TestPrefetcherFillsAhead(t *testing.T) {
	cfg := I7_4790()
	cfg.Prefetch.Enabled = true
	h := New(cfg)
	// Stream sequentially through one page; the streamer should kick in
	// and produce prefetch events.
	for i := 0; i < linesPerPage; i++ {
		h.Load(uint64(i)*LineSize, false)
	}
	c := h.Counters()
	if c.PrefetchL2 == 0 {
		t.Fatalf("streamer issued no L2 prefetches: %+v", c)
	}
	if c.PrefetchL3 == 0 {
		t.Fatalf("streamer issued no L3 prefetches: %+v", c)
	}
	// Prefetching must reduce demand DRAM accesses below the no-prefetch
	// line count.
	h2 := New(I7_4790())
	for i := 0; i < linesPerPage; i++ {
		h2.Load(uint64(i)*LineSize, false)
	}
	if c.MemAccesses >= h2.Counters().MemAccesses {
		t.Fatalf("prefetching did not reduce demand DRAM accesses: %d vs %d",
			c.MemAccesses, h2.Counters().MemAccesses)
	}
}

func TestPrefetcherDisabledHasNoEvents(t *testing.T) {
	h := newI7(t) // prefetch off by default
	for i := 0; i < 4*linesPerPage; i++ {
		h.Load(uint64(i)*LineSize, false)
	}
	c := h.Counters()
	if c.PrefetchL2 != 0 || c.PrefetchL3 != 0 {
		t.Fatalf("prefetch events with prefetcher off: %+v", c)
	}
}

func TestTCMBypassesCaches(t *testing.T) {
	cfg := ARM1176JZFS()
	h := New(cfg)
	h.InstallTCM(&TCMConfig{DataBase: 0x1000_0000, DataSize: 32 << 10, LatencyCycles: 4})
	if lvl := h.Load(0x1000_0040, false); lvl != LevelTCM {
		t.Fatalf("level = %v, want TCM", lvl)
	}
	h.Store(0x1000_0080)
	c := h.Counters()
	if c.TCMLoads != 1 || c.TCMStores != 1 {
		t.Fatalf("TCM counters = %+v", c)
	}
	if c.L1DAccesses != 0 || c.MemAccesses != 0 {
		t.Fatalf("TCM access leaked into cache counters: %+v", c)
	}
	// Outside the window the hierarchy is used.
	if lvl := h.Load(0x40, false); lvl != LevelMem {
		t.Fatalf("non-TCM cold load level = %v, want mem", lvl)
	}
}

func TestLoadRangeTouchesEachLineOnce(t *testing.T) {
	h := newI7(t)
	h.LoadRange(0x100, 256) // 256 bytes starting mid-line: lines 4..5? 0x100/64=4, end (0x1ff)/64=7
	c := h.Counters()
	if c.Loads != 4 {
		t.Fatalf("LoadRange loads = %d, want 4", c.Loads)
	}
}

func TestCountersConservation(t *testing.T) {
	// Property: for any access stream, hits+misses == accesses at every
	// level, and MemAccesses == L3Misses when L3 is present (demand side).
	f := func(seed int64, n uint16) bool {
		h := New(I7_4790())
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < int(n%2000)+10; i++ {
			addr := uint64(rng.Intn(1 << 22))
			switch rng.Intn(3) {
			case 0:
				h.Load(addr, true)
			case 1:
				h.Load(addr, false)
			default:
				h.Store(addr)
			}
		}
		c := h.Counters()
		if c.L1DHits+c.L1DMisses != c.L1DAccesses {
			return false
		}
		if c.L2Hits+c.L2Misses != c.L2Accesses {
			return false
		}
		if c.L3Hits+c.L3Misses != c.L3Accesses {
			return false
		}
		if c.StoreL1DHits+c.StoreL1DMisses != c.Stores {
			return false
		}
		return c.MemAccesses == c.L3Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestInclusionPropertyOnDemandPath(t *testing.T) {
	// Property: immediately after a demand load, the line is present in
	// L1D (step-by-step replication copied it upward).
	f := func(seed int64) bool {
		h := New(I7_4790())
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			addr := uint64(rng.Intn(1 << 21))
			h.Load(addr, false)
			if !h.l1d.contains(addr / LineSize) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestResetState(t *testing.T) {
	h := newI7(t)
	h.Load(0x40, false)
	h.ResetState()
	if got := h.Counters(); got != (Counters{}) {
		t.Fatalf("counters not zeroed: %+v", got)
	}
	if lvl := h.Load(0x40, false); lvl != LevelMem {
		t.Fatalf("cache not cold after ResetState: level %v", lvl)
	}
}

func TestArenaAlignmentAndExhaustion(t *testing.T) {
	a := NewArena(0, 4096)
	addr := a.Alloc(100, 256)
	if addr%256 != 0 {
		t.Fatalf("addr %#x not 256-aligned", addr)
	}
	if a.Alloc(64, 0)%LineSize != 0 {
		t.Fatal("default alignment should be the line size")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on exhaustion")
		}
	}()
	a.Alloc(1<<20, 0)
}

func TestArenaNeverReturnsZero(t *testing.T) {
	a := NewArena(0, 1<<16)
	if addr := a.Alloc(64, 0); addr == 0 {
		t.Fatal("arena returned the nil address")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(CacheConfig{SizeBytes: 4 * LineSize, Ways: 4, LatencyCycles: 1})
	// Single set, 4 ways: fill 0..3, touch 0, insert 4 -> victim must be 1.
	for i := uint64(0); i < 4; i++ {
		if c.access(i, true) {
			t.Fatalf("line %d hit an empty cache", i)
		}
	}
	if !c.access(0, false) {
		t.Fatal("line 0 missed after its fill")
	}
	if c.access(4, true) {
		t.Fatal("line 4 hit before its fill")
	}
	if !c.contains(0) || c.contains(1) || !c.contains(4) {
		t.Fatal("LRU state wrong after eviction")
	}
}

func TestLevelString(t *testing.T) {
	names := map[Level]string{LevelTCM: "TCM", LevelL1D: "L1D", LevelL2: "L2", LevelL3: "L3", LevelMem: "mem"}
	for lvl, want := range names {
		if got := lvl.String(); got != want {
			t.Fatalf("Level(%d).String() = %q, want %q", lvl, got, want)
		}
	}
}

// TestSubClampsAcrossCounterReset is a regression test: a snapshot taken
// before ResetCounters used to make Sub wrap to ~2^64 (raw uint64 subtraction
// on a now-smaller snapshot). The delta must clamp at zero instead — the same
// fix shape as the stallgov.Tick underflow.
func TestSubClampsAcrossCounterReset(t *testing.T) {
	h := newI7(t)
	h.Load(0x40, true)
	h.Load(0x80, true)
	h.Load(0xC0, true)
	before := h.Counters()

	h.ResetCounters()
	h.Load(0x40, true)
	d := h.Counters().Sub(before)

	if d.Loads != 0 {
		t.Fatalf("Loads delta across reset = %d, want 0 (clamped)", d.Loads)
	}
	if d.L1DAccesses != 0 {
		t.Fatalf("L1DAccesses delta across reset = %d, want 0 (clamped)", d.L1DAccesses)
	}
	if d.MemAccesses > 3 {
		t.Fatalf("MemAccesses delta across reset = %d, want small (not wrapped)", d.MemAccesses)
	}
}
