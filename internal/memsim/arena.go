package memsim

import "fmt"

// Arena hands out simulated virtual addresses. Workloads allocate regions
// from an arena and then drive the hierarchy with loads and stores against
// those addresses; no real memory proportional to the allocation is used.
//
// The zero address is never allocated so that 0 can serve as a nil pointer
// in simulated data structures.
type Arena struct {
	base uint64
	next uint64
	end  uint64
}

// MaxAddr bounds the simulated address space: every address a workload
// loads or stores lies below it. A cache keeps a line as the 32-bit tag
// line+1, and 0 marks an empty way. Below MaxAddr every line has a tag that
// fits and is not 0, and so do the lines the prefetchers pull in after it
// (the next line, the rest of its page). An arena that reaches past it
// panics, and so does a ThrashPass that does, so no address aliases
// another line or an empty way.
const MaxAddr = 1<<38 - PageSize

// NewArena creates an arena spanning [base, base+size). It panics if the
// span reaches past MaxAddr.
func NewArena(base, size uint64) *Arena {
	if base == 0 {
		base = LineSize // keep address 0 unallocated
	}
	if base > MaxAddr || size > MaxAddr-base {
		panic(fmt.Sprintf("memsim: arena [%#x, +%#x) reaches past MaxAddr %#x", base, size, uint64(MaxAddr)))
	}
	return &Arena{base: base, next: base, end: base + size}
}

// Alloc reserves size bytes aligned to align (which must be a power of two;
// zero means cache-line alignment) and returns the starting address.
func (a *Arena) Alloc(size, align uint64) uint64 {
	if align == 0 {
		align = LineSize
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("memsim: alignment %d is not a power of two", align))
	}
	addr := (a.next + align - 1) &^ (align - 1)
	if addr+size > a.end {
		panic(fmt.Sprintf("memsim: arena exhausted (want %d bytes at %#x, end %#x)", size, addr, a.end))
	}
	a.next = addr + size
	return addr
}

// AllocLines reserves n cache lines and returns the starting address.
func (a *Arena) AllocLines(n int) uint64 {
	return a.Alloc(uint64(n)*LineSize, LineSize)
}

// Used returns the number of bytes allocated so far.
func (a *Arena) Used() uint64 { return a.next - a.base }

// Remaining returns the bytes still available.
func (a *Arena) Remaining() uint64 { return a.end - a.next }

// Reset releases all allocations (addresses may be handed out again).
func (a *Arena) Reset() { a.next = a.base }
