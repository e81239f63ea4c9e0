package memsim

// cache is a set-associative cache with true-LRU replacement. Only tags are
// tracked: the simulator models placement and movement, not contents.
//
// A set is assoc consecutive ways of one slice, so probing it reads one
// contiguous run of host memory. An empty way is the zero way: tag 0 never
// matches (tags are line+1) and used 0 is below every tick, so the LRU search
// picks an empty way before any filled one without a valid bit.
type cache struct {
	ways    []way
	assoc   int
	setMask uint64
	tick    uint64
	// mru indexes the way touched last, by a hit or a placement.
	mru int
}

// way is one line's metadata: its tag (line+1, zero when empty) and the
// cache's tick at its last touch.
type way struct {
	tag  uint64
	used uint64
}

func newCache(cfg CacheConfig) *cache {
	if !cfg.Present() {
		return nil
	}
	sets := cfg.Sets()
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("memsim: cache set count must be a positive power of two")
	}
	return &cache{
		ways:    make([]way, sets*cfg.Ways),
		assoc:   cfg.Ways,
		setMask: uint64(sets - 1),
	}
}

// access probes for the line and refreshes its LRU state on a hit. On a miss
// with fill set it places the line over the LRU way of the set it has just
// read: nothing else touches this cache between a miss and the fill that
// answers it, so one visit leaves the state two would.
//
// A hit on the way touched last returns at once, inlined into the caller: that
// way already holds the highest tick, and only the order of ticks within a
// set is ever read, so there is nothing to refresh.
func (c *cache) access(line uint64, fill bool) bool {
	if c.ways[c.mru].tag == line+1 {
		return true
	}
	return c.scan(line, fill)
}

// scan compares the set's tags first, so a hit leaves before any victim
// bookkeeping.
func (c *cache) scan(line uint64, fill bool) bool {
	tag := line + 1
	base := int(line&c.setMask) * c.assoc
	set := c.ways[base : base+c.assoc]
	for i := range set {
		if set[i].tag == tag {
			c.tick++
			set[i].used = c.tick
			c.mru = base + i
			return true
		}
	}
	if fill {
		c.place(line)
	}
	return false
}

// place overwrites the least recently used way of the line's set.
func (c *cache) place(line uint64) {
	base := int(line&c.setMask) * c.assoc
	set := c.ways[base : base+c.assoc]
	victim, oldest := 0, set[0].used
	for i := 1; i < len(set); i++ {
		if set[i].used < oldest {
			victim, oldest = i, set[i].used
		}
	}
	c.tick++
	set[victim] = way{line + 1, c.tick}
	c.mru = base + victim
}

// contains probes without disturbing LRU state (used by the prefetchers).
func (c *cache) contains(line uint64) bool {
	tag := line + 1
	base := int(line&c.setMask) * c.assoc
	for _, w := range c.ways[base : base+c.assoc] {
		if w.tag == tag {
			return true
		}
	}
	return false
}

// insert places the line over the LRU way unless the set already holds it,
// and reports whether it did. A line already present keeps its LRU state:
// the prefetchers check before issuing and a dropped prefetch touches nothing.
func (c *cache) insert(line uint64) bool {
	if c.contains(line) {
		return false
	}
	c.place(line)
	return true
}

// reset empties the cache: afterwards it equals a new one.
func (c *cache) reset() {
	clear(c.ways)
	c.tick = 0
	c.mru = 0
}
