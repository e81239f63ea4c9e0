package memsim

import (
	"math/rand"
	"reflect"
	"testing"
)

// pair drives the product hierarchy and the reference of ref_test.go with
// one access stream and fails at the first access after which they differ:
// in the level that supplied the data or in any counter.
type pair struct {
	t   testing.TB
	h   *Hierarchy
	ref *refHierarchy
	n   int
}

func newPair(t testing.TB, cfg Config) *pair {
	return &pair{t: t, h: New(cfg), ref: newRef(cfg)}
}

func (p *pair) check(op string, addr uint64, got, want Level) {
	p.n++
	if got != want {
		p.t.Fatalf("access %d, %s %#x: level %v, reference %v", p.n, op, addr, got, want)
	}
	if g, w := p.h.Counters(), p.ref.Counters(); g != w {
		p.t.Fatalf("access %d, %s %#x: counters\n  got %+v\n want %+v", p.n, op, addr, g, w)
	}
}

func (p *pair) load(addr uint64, dependent bool) {
	p.check("load", addr, p.h.Load(addr, dependent), p.ref.Load(addr, dependent))
}

func (p *pair) store(addr uint64) {
	p.check("store", addr, p.h.Store(addr), p.ref.Store(addr))
}

func (p *pair) loadRepeat(addr, n uint64) {
	p.h.LoadRepeat(addr, n)
	p.ref.LoadRepeat(addr, n)
	p.check("load-repeat", addr, 0, 0)
}

func (p *pair) storeRepeat(addr, n uint64) {
	p.h.StoreRepeat(addr, n)
	p.ref.StoreRepeat(addr, n)
	p.check("store-repeat", addr, 0, 0)
}

func (p *pair) prefetch(on bool) {
	p.h.SetPrefetchEnabled(on)
	p.ref.SetPrefetchEnabled(on)
}

// resetCaches flushes both sides and requires the product's flushed caches
// and stream table to equal newly built ones, stale LRU stamps included.
func (p *pair) resetCaches() {
	p.h.ResetCaches()
	p.ref.ResetCaches()
	cfg := p.h.cfg
	for _, c := range []struct {
		name string
		got  *cache
		cfg  CacheConfig
	}{{"L1D", p.h.l1d, cfg.L1D}, {"L2", p.h.l2, cfg.L2}, {"L3", p.h.l3, cfg.L3}} {
		if !reflect.DeepEqual(c.got, newCache(c.cfg)) {
			p.t.Fatalf("access %d: %s after ResetCaches differs from a new cache", p.n, c.name)
		}
	}
	if p.h.pf != nil && !reflect.DeepEqual(p.h.pf, newPrefetcher(p.h.pf.cfg)) {
		p.t.Fatalf("access %d: stream table after ResetCaches differs from a new one", p.n)
	}
}

// tiny is the i7 hierarchy shrunk to 8/32/128 lines, so that a few hundred
// accesses evict at every level.
func tiny() Config {
	cfg := I7_4790()
	cfg.L1D.SizeBytes = 8 * LineSize
	cfg.L1D.Ways = 2
	cfg.L2.SizeBytes = 32 * LineSize
	cfg.L2.Ways = 4
	cfg.L3.SizeBytes = 128 * LineSize
	cfg.L3.Ways = 8
	return cfg
}

// armTCM is the ARM profile (no L2, no L3) with a DTCM window over lines
// [256, 512).
func armTCM() Config {
	cfg := ARM1176JZFS()
	cfg.TCM = &TCMConfig{DataBase: 256 * LineSize, DataSize: 256 * LineSize, LatencyCycles: 4}
	return cfg
}

func (c Config) with(edit func(*Config)) Config {
	edit(&c)
	return c
}

// TestOracle runs seeded access streams through product and reference. Each
// stream gets a region of `lines` lines, four times the last cache level, and
// a budget of n accesses.
func TestOracle(t *testing.T) {
	streams := []struct {
		name string
		cfg  Config
		run  func(p *pair, rng *rand.Rand, lines uint64, n int)
	}{
		{"sequential", tiny().with(func(c *Config) { c.Prefetch.Enabled = true }),
			func(p *pair, _ *rand.Rand, lines uint64, n int) {
				for i := 0; i < n; i++ {
					p.load(uint64(i)%lines*LineSize, false)
				}
			}},
		{"pointer-chase", tiny(),
			func(p *pair, rng *rand.Rand, lines uint64, n int) {
				for i := 0; i < n; i++ {
					p.load(rng.Uint64()%lines*LineSize+uint64(rng.Intn(LineSize)), true)
				}
			}},
		{"same-line-repeats", tiny().with(func(c *Config) { c.Prefetch.Enabled = true }),
			func(p *pair, rng *rand.Rand, lines uint64, n int) {
				for i := 0; i < n; {
					addr := rng.Uint64() % lines * LineSize
					for k := rng.Intn(4); k >= 0; k-- {
						if rng.Intn(3) == 0 {
							p.store(addr)
						} else {
							p.load(addr, rng.Intn(2) == 0)
						}
						i++
					}
				}
			}},
		{"store-misses", tiny(),
			func(p *pair, rng *rand.Rand, lines uint64, n int) {
				for i := 0; i < n; i++ {
					addr := rng.Uint64() % lines * LineSize
					if rng.Intn(8) == 0 {
						p.load(addr, false)
					} else {
						p.store(addr)
					}
				}
			}},
		{"repeat-calls", tiny(),
			func(p *pair, rng *rand.Rand, lines uint64, n int) {
				for i := 0; i < n; i++ {
					addr := rng.Uint64() % lines * LineSize
					if rng.Intn(2) == 0 {
						p.loadRepeat(addr, uint64(rng.Intn(6)))
					} else {
						p.storeRepeat(addr, uint64(rng.Intn(6)))
					}
				}
			}},
		{"prefetch-toggled", tiny().with(func(c *Config) { c.Prefetch.Enabled = true; c.Prefetch.L1DNextLine = true }),
			func(p *pair, rng *rand.Rand, lines uint64, n int) {
				on := true
				for i := 0; i < n; {
					if rng.Intn(20) == 0 {
						on = !on
						p.prefetch(on)
					}
					// A run of consecutive lines trains the streamer.
					start := rng.Uint64() % lines
					for k := uint64(0); k < uint64(1+rng.Intn(12)); k++ {
						p.load((start+k)%lines*LineSize, false)
						i++
					}
				}
			}},
		{"prefetch-enabled-late", tiny(), mixed},
		{"reset-mid-run", tiny().with(func(c *Config) { c.Prefetch.Enabled = true }), mixed},
		{"arm-tcm", armTCM(), mixed},
		{"direct-fill", tiny().with(func(c *Config) { c.DirectFill = true; c.Prefetch.Enabled = true }), mixed},
		{"i7", I7_4790().with(func(c *Config) { c.Prefetch.Enabled = true; c.Prefetch.L1DNextLine = true }), mixed},
	}
	for _, s := range streams {
		t.Run(s.name, func(t *testing.T) {
			last := s.cfg.L1D
			if s.cfg.L3.Present() {
				last = s.cfg.L3
			}
			lines := uint64(4 * last.SizeBytes / LineSize)
			n := 40 * int(lines)
			if s.name == "i7" {
				// The 8 MB L3 takes 131072 fills before it evicts.
				if testing.Short() {
					t.Skip("full-size hierarchy: long under -race")
				}
				n = int(lines)
			}
			s.run(newPair(t, s.cfg), rand.New(rand.NewSource(17)), lines, n)
		})
	}
}

// mixed interleaves every entry point: runs of consecutive lines, random
// loads and stores, repeat calls, prefetcher toggles and cache flushes.
func mixed(p *pair, rng *rand.Rand, lines uint64, n int) {
	for i := 0; i < n; i++ {
		addr := rng.Uint64()%lines*LineSize + uint64(rng.Intn(LineSize))
		switch op := rng.Intn(64); {
		case op < 20:
			p.load(addr, op%2 == 0)
		case op < 30:
			p.store(addr)
		case op < 34:
			p.loadRepeat(addr, uint64(rng.Intn(5)))
		case op < 38:
			p.storeRepeat(addr, uint64(rng.Intn(5)))
		case op == 38:
			p.prefetch(rng.Intn(3) != 0)
		case op == 39 && rng.Intn(40) == 0:
			p.resetCaches()
		default:
			for k := uint64(0); k < uint64(op-38); k++ {
				p.load(addr+k*LineSize, false)
				i++
			}
		}
	}
}

// FuzzHierarchy turns bytes into an access stream and runs it through the
// same pair. The first byte picks the configuration; every following three
// pick an operation and a line among 1024, few enough that the tiny caches
// and the ARM L1D both hit and evict.
func FuzzHierarchy(f *testing.F) {
	f.Add([]byte{0x01, 0x3f, 0x00, 0x00, 0x3f, 0x08, 0x00, 0x00, 0x00, 0x00})
	f.Add([]byte{0x03, 0x02, 0x10, 0x01, 0x0b, 0x10, 0x01, 0x06, 0x00, 0x00, 0x00, 0x10, 0x01})
	f.Add([]byte{0x08, 0x01, 0x00, 0x01, 0x02, 0xff, 0x00, 0x1c, 0x80, 0x01})
	f.Add([]byte{0x05, 0x7f, 0xf0, 0x03, 0x0d, 0x00, 0x00, 0x7f, 0xf0, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := tiny()
		if data[0]&8 != 0 {
			cfg = armTCM()
		}
		cfg.Prefetch.Enabled = data[0]&1 != 0
		cfg.Prefetch.L1DNextLine = data[0]&2 != 0
		cfg.DirectFill = data[0]&4 != 0
		p := newPair(t, cfg)
		for data = data[1:]; len(data) >= 3; data = data[3:] {
			op, arg := data[0]&7, uint64(data[0]>>3)
			addr := (uint64(data[1]) | uint64(data[2]&3)<<8) * LineSize
			switch op {
			case 0:
				p.load(addr, false)
			case 1:
				p.load(addr, true)
			case 2:
				p.store(addr)
			case 3:
				p.loadRepeat(addr, arg)
			case 4:
				p.storeRepeat(addr, arg)
			case 5:
				p.prefetch(arg&1 != 0)
			case 6:
				p.resetCaches()
			case 7:
				for k := uint64(0); k <= arg; k++ {
					p.load(addr+k*LineSize, false)
				}
			}
		}
	})
}
