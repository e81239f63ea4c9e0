package memsim

import "slices"

// State is everything about a hierarchy that a later access can read, in a
// form that two hierarchies share exactly when no sequence of further
// accesses tells them apart: from Equal states the same Load, Store and Exec
// calls return the same levels, move the counters by the same amounts and
// end in Equal states again.
//
// A cache is read only through the tags of a set and the order of their LRU
// stamps (cache.access), so a set is kept as its tags from the most to the
// least recently used and neither the way a tag sits in nor the value of its
// stamp is part of the state. The rest is kept as it stands: the latency and
// fill configuration, the TCM window, the page of the last demand access,
// and the streamer's table with its clock. The table is compared stamp for
// stamp, so two states with a running streamer are Equal only if the
// streamers saw equally many accesses; nothing that compares states runs it.
// The hints (cache.mru, prefetcher.last) are left out: each is checked
// against the tag or page it names before it is believed.
type State struct {
	cfg         Config // less its TCM pointer: the window is compared by value
	hasTCM      bool
	tcm         TCMConfig
	l1d, l2, l3 []uint64
	lastPage    uint64
	havePage    bool
	streams     []stream
	pfClock     uint64
}

// State captures the hierarchy's current state. The counters are not part of
// it: they record the past and no access reads them.
func (h *Hierarchy) State() State {
	s := State{
		cfg:      h.cfg,
		l1d:      h.l1d.ranked(),
		l2:       h.l2.ranked(),
		l3:       h.l3.ranked(),
		lastPage: h.lastPage,
		havePage: h.havePage,
	}
	if !h.havePage {
		s.lastPage = 0 // stale until the next access overwrites it
	}
	if h.cfg.TCM != nil {
		s.hasTCM, s.tcm = true, *h.cfg.TCM
		s.cfg.TCM = nil
	}
	if h.pf != nil {
		s.streams = slices.Clone(h.pf.streams)
		s.pfClock = h.pf.clock
	}
	return s
}

// Equal reports whether the two states are the same state.
func (s State) Equal(o State) bool {
	return s.cfg == o.cfg && s.hasTCM == o.hasTCM && s.tcm == o.tcm &&
		s.havePage == o.havePage && s.lastPage == o.lastPage &&
		s.pfClock == o.pfClock && slices.Equal(s.streams, o.streams) &&
		slices.Equal(s.l1d, o.l1d) && slices.Equal(s.l2, o.l2) && slices.Equal(s.l3, o.l3)
}

// ranked returns the cache's tags set by set, each set from its most to its
// least recently used way. Filled ways carry distinct stamps (every touch but
// a repeated one on the newest way takes a new tick), so the order is total;
// empty ways, tag and stamp zero, come last. An absent level has no tags.
func (c *cache) ranked() []uint64 {
	if c == nil {
		return nil
	}
	tags := make([]uint64, len(c.ways))
	sorted := make([]way, c.assoc)
	for base := 0; base < len(c.ways); base += c.assoc {
		// Insertion sort, newest stamp first: a set is a handful of ways.
		for i, w := range c.ways[base : base+c.assoc] {
			j := i
			for ; j > 0 && sorted[j-1].used < w.used; j-- {
				sorted[j] = sorted[j-1]
			}
			sorted[j] = w
		}
		for i, w := range sorted {
			tags[base+i] = w.tag
		}
	}
	return tags
}

// Credit moves the counters by d without simulating an access. It is for a
// caller that has walked a sequence of accesses from some state, seen it end
// in an Equal state with the counters moved by d, and is about to issue the
// same sequence again: walking it would move the counters by d once more and
// end in an Equal state, which the hierarchy, left as it is, is already in.
func (h *Hierarchy) Credit(d Counters) { h.ctr = h.ctr.Add(d) }
