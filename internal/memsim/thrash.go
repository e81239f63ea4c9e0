package memsim

import "fmt"

// ThrashPass issues one load to each line base+order[i]*LineSize in order, all
// dependent or all independent, without walking the caches, and reports
// whether it did. It leaves the counters and State that the Load loop would:
// n loads, each missing at every present level and reaching DRAM, with the
// loop's issue slots, stall cycles and page crossings, and each set of each
// level that keeps lines holding the last ways lines the pass mapped to it,
// in access order.
//
// That holds for any pass over distinct lines from cold caches: no line has
// been seen, so every load misses everywhere. Whether the pass repeats itself
// is a second fact, reported as repeats: if every set of every present level
// that the pass sends lines to is sent more than it has ways, the pass leaves
// each such set holding only lines the start of the pass evicts before it
// returns to them, so under LRU every repetition of the pass misses everywhere
// too and ends in the same State; mubench counts on that to account the
// passes after its first. A pass that fits some set is issued all the same,
// and its repetition, which hits in that set, is the caller's to walk.
//
// It refuses, touching nothing, when a recorder is installed (its owner wants
// the events), a TCM window is set, the prefetcher is on, a cache is not
// cold, or a line repeats. It also refuses an order spread over more than 64
// times its length in lines, too thin to check for repeats with a bitmap.
// The caller then walks the pass. A pass that reaches past MaxAddr panics.
func (h *Hierarchy) ThrashPass(base uint64, order []uint32, dependent bool) (issued, repeats bool) {
	if len(order) == 0 {
		return false, false
	}
	lo, hi := order[0], order[0]
	for _, idx := range order {
		lo, hi = min(lo, idx), max(hi, idx)
	}
	if end := base + (uint64(hi)+1)*LineSize; base > MaxAddr || end > MaxAddr {
		panic(fmt.Sprintf("memsim: pass over [%#x, %#x) reaches past MaxAddr %#x", base, end, uint64(MaxAddr)))
	}
	if h.rec != nil || h.cfg.TCM != nil || h.cfg.Prefetch.Enabled {
		return false, false
	}
	caches := make([]*cache, 0, 3)
	for _, c := range []*cache{h.l1d, h.l2, h.l3} {
		if c == nil {
			continue
		}
		if !c.cold {
			return false, false
		}
		caches = append(caches, c)
	}

	span := uint64(hi-lo) + 1
	if span > 64*uint64(len(order)) {
		return false, false
	}
	seen := make([]uint64, (span+63)/64)
	sent := make([][]int32, len(caches))
	for i, c := range caches {
		sent[i] = make([]int32, c.setMask+1)
	}
	crossings, lastPage, havePage := uint64(0), h.lastPage, h.havePage
	for _, idx := range order {
		bit := uint64(idx - lo)
		if seen[bit/64]&(1<<(bit%64)) != 0 {
			return false, false
		}
		seen[bit/64] |= 1 << (bit % 64)
		addr := base + uint64(idx)*LineSize
		if page := addr / PageSize; !havePage || page != lastPage { // notePage's rule
			crossings++
			lastPage, havePage = page, true
		}
		for i, c := range caches {
			sent[i][addr/LineSize&c.setMask]++
		}
	}
	repeats = true
	for i, c := range caches {
		for _, k := range sent[i] {
			if k > 0 && int(k) <= c.assoc {
				repeats = false
				break
			}
		}
	}

	n := uint64(len(order))
	h.ctr.Loads += n
	h.ctr.IssueSlots += n * loadSlots(dependent)
	h.ctr.StallCycles += n * h.stall(LevelMem, dependent)
	h.ctr.PageCrossings += crossings
	h.lastPage, h.havePage = lastPage, havePage
	h.ctr.L1DAccesses += n
	h.ctr.L1DMisses += n
	h.l1d.fillTail(base, order, sent[0])
	if h.l2 != nil {
		h.ctr.L2Accesses += n
		h.ctr.L2Misses += n
		if h.l3 != nil {
			h.ctr.L3Accesses += n
			h.ctr.L3Misses += n
		}
		if !h.cfg.DirectFill { // a miss fills every level it missed in
			for i, c := range caches[1:] {
				c.fillTail(base, order, sent[1+i])
			}
		}
	}
	h.ctr.MemAccesses += n
	return true, repeats
}

// fillTail leaves the cold cache as the misses of the pass would: each set
// holding the last assoc lines the pass sent it (all of them, where it was
// sent fewer), from the pass's last to its earliest, and the newest-set hint
// on the set of its last line. sent is scratch, one count per set.
func (c *cache) fillTail(base uint64, order []uint32, sent []int32) {
	clear(sent)
	left := len(c.tags)
	for i := len(order) - 1; i >= 0 && left > 0; i-- {
		line := (base + uint64(order[i])*LineSize) / LineSize
		set := int(line & c.setMask)
		k := int(sent[set])
		if k == c.assoc {
			continue
		}
		sent[set]++
		left--
		c.tags[set*c.assoc+k] = uint32(line + 1)
		if i == len(order)-1 {
			c.mru = set * c.assoc
		}
	}
	c.cold = false
}
