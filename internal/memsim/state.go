package memsim

import "slices"

// State is everything about a hierarchy that a later access can read, in a
// form that two hierarchies share exactly when no sequence of further
// accesses tells them apart: from Equal states the same Load, Store and Exec
// calls return the same levels, move the counters by the same amounts and
// end in Equal states again.
//
// A cache is kept as its tags: an access reads only which tags each set
// holds and in what LRU order, and a set stores them in that order. The rest
// is kept as it stands too: the latency and fill configuration, the TCM
// window, the page of the last demand access, and the streamer's table with
// its clock. The table is compared stamp for stamp, so two states with a
// running streamer are Equal only if the streamers saw equally many
// accesses; nothing that compares states runs it. The hints (cache.mru,
// prefetcher.last) are left out: each is checked against the tag or page it
// names before it is believed. So is cache.cold, which holds exactly while
// every tag of the cache is zero.
type State struct {
	cfg         Config // less its TCM pointer: the window is compared by value
	hasTCM      bool
	tcm         TCMConfig
	l1d, l2, l3 []uint32
	lastPage    uint64
	havePage    bool
	streams     []stream
	pfClock     uint64
}

// State captures the hierarchy's current state. The counters are not part of
// it: they record the past and no access reads them.
func (h *Hierarchy) State() State {
	var s State
	h.StateInto(&s)
	return s
}

// StateInto sets *s to the hierarchy's current state, reusing the tag and
// stream buffers s already holds: a copy of s taken before shares them and
// is overwritten too.
func (h *Hierarchy) StateInto(s *State) {
	v := h.view()
	v.l1d = append(s.l1d[:0], v.l1d...)
	v.l2 = append(s.l2[:0], v.l2...)
	v.l3 = append(s.l3[:0], v.l3...)
	v.streams = append(s.streams[:0], v.streams...)
	*s = v
}

// Matches reports whether the hierarchy is in state s, which is
// State().Equal(s) without copying the state.
func (h *Hierarchy) Matches(s State) bool { return h.view().Equal(s) }

// view is the hierarchy's state over its own tag slices and stream table,
// not copies: it holds only until the next access.
func (h *Hierarchy) view() State {
	s := State{
		cfg:      h.cfg,
		l1d:      h.l1d.tagsOrNil(),
		l2:       h.l2.tagsOrNil(),
		l3:       h.l3.tagsOrNil(),
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
		s.streams, s.pfClock = h.pf.streams, h.pf.clock
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

// tagsOrNil is the cache's tags; an absent level has none.
func (c *cache) tagsOrNil() []uint32 {
	if c == nil {
		return nil
	}
	return c.tags
}

// Credit moves the counters by d without simulating an access. It is for a
// caller that has walked a sequence of accesses from some state, seen it end
// in an Equal state with the counters moved by d, and is about to issue the
// same sequence again: walking it would move the counters by d once more and
// end in an Equal state, which the hierarchy, left as it is, is already in.
func (h *Hierarchy) Credit(d Counters) { h.ctr = h.ctr.Add(d) }
