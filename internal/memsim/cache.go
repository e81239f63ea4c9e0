package memsim

// cache is a set-associative cache with true-LRU replacement. Only tags are
// tracked: the simulator models placement and movement, not contents.
//
// A set is assoc consecutive tags of one slice, ordered from the most to the
// least recently used, so probing it reads one contiguous run of host memory
// and the position of a tag is its LRU rank. A hit moves its tag to the
// front; a placement shifts the set back one and writes the front, so the
// last tag is the victim. An empty slot is tag 0, which never matches (tags
// are line+1) and, since a set fills from the front, always sits behind
// every filled one.
//
// A tag is 32 bits: lines below MaxAddr/LineSize fit, so a 16-way set is
// 64 B, one host cache line.
type cache struct {
	tags    []uint32
	assoc   int
	setMask uint64
	// mru indexes the front of the set touched last, by a hit or a
	// placement.
	mru int
	// cold is set until the first placement after the cache was built or
	// reset (ThrashPass computes only from cold caches).
	cold bool
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
		tags:    make([]uint32, sets*cfg.Ways),
		assoc:   cfg.Ways,
		setMask: uint64(sets - 1),
		cold:    true,
	}
}

// access probes for the line and moves it to the front of its set on a hit.
// On a miss with fill set it places the line in the set it has just read:
// nothing else touches this cache between a miss and the fill that answers
// it, so one visit leaves the state two would.
//
// A hit on the front of the set touched last returns at once, inlined into
// the caller: the line is already the most recently used of its set.
func (c *cache) access(line uint64, fill bool) bool {
	if c.tags[c.mru] == uint32(line+1) {
		return true
	}
	return c.scan(line, fill)
}

// scan compares the set's tags first, so a hit leaves before any placement.
func (c *cache) scan(line uint64, fill bool) bool {
	tag := uint32(line + 1)
	base := int(line&c.setMask) * c.assoc
	set := c.tags[base : base+c.assoc]
	for i, t := range set {
		if t == tag {
			copy(set[1:i+1], set[:i])
			set[0] = tag
			c.mru = base
			return true
		}
	}
	if fill {
		c.place(line)
	}
	return false
}

// place evicts the least recently used tag of the line's set, the last, and
// makes the line the most recently used.
func (c *cache) place(line uint64) {
	base := int(line&c.setMask) * c.assoc
	set := c.tags[base : base+c.assoc]
	copy(set[1:], set)
	set[0] = uint32(line + 1)
	c.mru = base
	c.cold = false
}

// contains probes without disturbing LRU state (used by the prefetchers).
func (c *cache) contains(line uint64) bool {
	tag := uint32(line + 1)
	base := int(line&c.setMask) * c.assoc
	for _, t := range c.tags[base : base+c.assoc] {
		if t == tag {
			return true
		}
	}
	return false
}

// insert places the line over the LRU tag unless the set already holds it,
// and reports whether it did. A line already present keeps its LRU rank:
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
	clear(c.tags)
	c.mru = 0
	c.cold = true
}
