package main

import (
	"fmt"

	"energydb/internal/memsim"
	"energydb/internal/trace"
)

// replay drives recorded accesses through h the way the executor did.
// trace.Replay expands every repeat event into single Load/Store calls, which
// makes it several times slower than the execution it recorded; here a head
// access and the repeat event that follows it are fused back into the one
// LoadRepeat/StoreRepeat call the executor made, so the time replay takes is
// the time the execution spent inside memsim. Scans issued through LoadRange
// were recorded line by line and are replayed line by line.
func replay(ev []trace.Event, h *memsim.Hierarchy) error {
	for i := 0; i < len(ev); i++ {
		e := ev[i]
		var next *trace.Event
		if i+1 < len(ev) {
			next = &ev[i+1]
		}
		switch e.Kind {
		case memsim.AccessLoadDep:
			h.Load(e.Addr, true)
		case memsim.AccessLoadInd:
			if next != nil && next.Kind == memsim.AccessLoadRepeat && next.Addr == e.Addr {
				h.LoadRepeat(e.Addr, 1+next.N)
				i++
			} else {
				h.Load(e.Addr, false)
			}
		case memsim.AccessStore:
			if next != nil && next.Kind == memsim.AccessStoreRepeat && next.Addr == e.Addr {
				h.StoreRepeat(e.Addr, 1+next.N)
				i++
			} else {
				h.Store(e.Addr)
			}
		case memsim.AccessLoadRepeat, memsim.AccessStoreRepeat:
			return fmt.Errorf("replay: event %d is a repeat of %#x with no head access before it", i, e.Addr)
		case memsim.AccessExecAdd:
			h.Exec(e.N, memsim.InstrAdd)
		case memsim.AccessExecNop:
			h.Exec(e.N, memsim.InstrNop)
		case memsim.AccessExecOther:
			h.Exec(e.N, memsim.InstrOther)
		default:
			return fmt.Errorf("replay: event %d has unknown kind %d", i, e.Kind)
		}
	}
	return nil
}

// checkFidelity fails unless a replay did the recorded execution's work. The
// issue asked for equal loads, stores and instructions and miss counts within
// 0.5 %; since the replay starts from the state the execution started from,
// every counter must come out the same, and that is what is checked.
func checkFidelity(recorded, replayed memsim.Counters) error {
	if recorded == replayed {
		return nil
	}
	return fmt.Errorf("replay diverged from the recorded execution: loads %d vs %d, stores %d vs %d, instructions %d vs %d, L1D misses %d vs %d, L2 misses %d vs %d, L3 misses %d vs %d",
		replayed.Loads, recorded.Loads, replayed.Stores, recorded.Stores,
		replayed.Instructions(), recorded.Instructions(),
		replayed.L1DMisses, recorded.L1DMisses, replayed.L2Misses, recorded.L2Misses,
		replayed.L3Misses, recorded.L3Misses)
}
