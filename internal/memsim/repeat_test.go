package memsim

import (
	"testing"
	"testing/quick"
)

func TestLoadRepeatCountsMatchIndividualLoads(t *testing.T) {
	// LoadRepeat(addr, n) on a hot line must produce the same counters as
	// n individual independent loads of that line.
	a := New(I7_4790())
	b := New(I7_4790())
	const n = 1000
	a.LoadRepeat(0x40, n)
	for i := 0; i < n; i++ {
		b.Load(0x40, false)
	}
	if a.Counters() != b.Counters() {
		t.Fatalf("counters differ:\n repeat: %+v\n loads:  %+v", a.Counters(), b.Counters())
	}
}

func TestStoreRepeatCountsMatchIndividualStores(t *testing.T) {
	a := New(I7_4790())
	b := New(I7_4790())
	const n = 500
	a.StoreRepeat(0x80, n)
	for i := 0; i < n; i++ {
		b.Store(0x80)
	}
	if a.Counters() != b.Counters() {
		t.Fatalf("counters differ:\n repeat: %+v\n stores: %+v", a.Counters(), b.Counters())
	}
}

func TestRepeatZeroIsNoop(t *testing.T) {
	h := New(I7_4790())
	h.LoadRepeat(0x40, 0)
	h.StoreRepeat(0x40, 0)
	if got := h.Counters(); got != (Counters{}) {
		t.Fatalf("zero repeat changed counters: %+v", got)
	}
}

func TestRepeatInTCM(t *testing.T) {
	h := New(ARM1176JZFS())
	h.InstallTCM(&TCMConfig{DataBase: 0x1000, DataSize: 4096, LatencyCycles: 4})
	h.LoadRepeat(0x1000, 10)
	h.StoreRepeat(0x1040, 5)
	c := h.Counters()
	if c.TCMLoads != 10 || c.TCMStores != 5 {
		t.Fatalf("TCM repeat counters: %+v", c)
	}
	if c.L1DAccesses != 0 {
		t.Fatal("TCM repeats leaked into the cache")
	}
}

func TestSetFrequencyScalesDRAMLatency(t *testing.T) {
	h := New(I7_4790())
	// At 3.6GHz a dependent DRAM load stalls ~199 cycles.
	h.SetFrequencyHz(3.6e9)
	h.Load(0x40, true)
	stall36 := h.Counters().StallCycles
	// At 1.2GHz the same wall-clock latency is ~1/3 the cycles.
	h2 := New(I7_4790())
	h2.SetFrequencyHz(1.2e9)
	h2.Load(0x40, true)
	stall12 := h2.Counters().StallCycles
	ratio := float64(stall36) / float64(stall12)
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("stall ratio 3.6GHz/1.2GHz = %.2f, want ~3 (wall-constant DRAM)", ratio)
	}
}

func TestSetFrequencyKeepsCacheLatencies(t *testing.T) {
	h := New(I7_4790())
	h.SetFrequencyHz(1.2e9)
	h.Load(0x40, true) // bring in
	before := h.Counters()
	h.Load(0x40, true) // L1D hit: 4 cycles regardless of frequency
	if got := h.Counters().Sub(before).StallCycles; got != 3 {
		t.Fatalf("L1D dependent stall at 1.2GHz = %d, want 3", got)
	}
}

func TestDirectFillSkipsIntermediateLevels(t *testing.T) {
	cfg := I7_4790()
	cfg.DirectFill = true
	h := New(cfg)
	h.Load(0x40, true) // cold: DRAM, fills only L1D
	// Evict the line from L1D by filling past its capacity.
	for i := 1; i < cfg.L1D.SizeBytes/LineSize*2; i++ {
		h.Load(uint64(i)*LineSize, true)
	}
	// Under replication the line would still sit in L2/L3; under direct
	// fill the working set (64KB) filled only L1D, so this revisit of the
	// first line must go back to DRAM.
	if lvl := h.Load(0x40, true); lvl != LevelMem {
		t.Fatalf("level = %v, want mem (no intermediate copies)", lvl)
	}
}

func TestReplicationKeepsL2Copy(t *testing.T) {
	h := New(I7_4790()) // replication on (default)
	h.Load(0x40, true)
	for i := 1; i < 32<<10/LineSize*2; i++ {
		h.Load(uint64(i)*LineSize, true)
	}
	if lvl := h.Load(0x40, true); lvl != LevelL2 {
		t.Fatalf("level = %v, want L2 (replication keeps copies)", lvl)
	}
}

func TestFrequencyFloorKeepsOrdering(t *testing.T) {
	// Property: at any frequency, DRAM latency stays above L3 latency.
	f := func(raw uint16) bool {
		h := New(I7_4790())
		freq := 0.4e9 + float64(raw%40)*0.1e9
		h.SetFrequencyHz(freq)
		h.Load(0x40, true)
		return h.Counters().StallCycles >= uint64(h.Config().L3.LatencyCycles)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestArenaAccessors(t *testing.T) {
	a := NewArena(0, 1<<16)
	base := a.AllocLines(4)
	if base%LineSize != 0 {
		t.Fatal("AllocLines misaligned")
	}
	if a.Used() == 0 || a.Remaining() == 0 {
		t.Fatalf("used=%d remaining=%d", a.Used(), a.Remaining())
	}
	a.Reset()
	if a.Used() != 0 {
		t.Fatal("reset did not clear usage")
	}
}

func TestMissRateAccessors(t *testing.T) {
	h := New(I7_4790())
	h.Load(0x40, false) // cold: miss everywhere
	h.Load(0x40, false) // warm: hit
	h.Store(0x40)       // store hit
	c := h.Counters()
	if c.L1DMissRate() != 0.5 {
		t.Fatalf("L1D miss rate = %v", c.L1DMissRate())
	}
	if c.L2MissRate() != 1 || c.L3MissRate() != 1 {
		t.Fatal("deep miss rates wrong")
	}
	if c.StoreL1DHitRate() != 1 {
		t.Fatalf("store hit rate = %v", c.StoreL1DHitRate())
	}
	var zero Counters
	if zero.L1DMissRate() != 0 || zero.StoreL1DHitRate() != 0 || zero.IPC() != 0 {
		t.Fatal("zero counters should yield zero rates")
	}
}

func TestL1DNextLinePrefetcherIsInvisibleToPMU(t *testing.T) {
	cfg := I7_4790()
	cfg.Prefetch.Enabled = true
	cfg.Prefetch.L1DNextLine = true
	h := New(cfg)
	// Stream a region so lines land in L2/L3, then re-stream: the L1D
	// prefetcher should pull next lines into L1D ahead of demand.
	for i := 0; i < 1024; i++ {
		h.Load(uint64(i)*LineSize, false)
	}
	before := h.Counters()
	pfBefore := h.UncountedL1DPrefetches()
	for i := 0; i < 1024; i++ {
		h.Load(uint64(i)*LineSize, false)
	}
	d := h.Counters().Sub(before)
	if h.UncountedL1DPrefetches() == pfBefore {
		t.Fatal("L1D prefetcher never fired")
	}
	// The hidden prefetches raise no PMU event: demand counters must
	// fully explain themselves (hits+misses == accesses).
	if d.L1DHits+d.L1DMisses != d.L1DAccesses {
		t.Fatal("PMU conservation broken")
	}
	// And the warm re-stream must have a much better L1D hit rate than
	// without the prefetcher.
	h2cfg := I7_4790()
	h2cfg.Prefetch.Enabled = true
	h2 := New(h2cfg)
	for i := 0; i < 1024; i++ {
		h2.Load(uint64(i)*LineSize, false)
	}
	b2 := h2.Counters()
	for i := 0; i < 1024; i++ {
		h2.Load(uint64(i)*LineSize, false)
	}
	d2 := h2.Counters().Sub(b2)
	if d.L1DMisses >= d2.L1DMisses {
		t.Fatalf("next-line prefetch did not cut L1D misses: %d vs %d", d.L1DMisses, d2.L1DMisses)
	}
}
