// Package trace implements access-trace capture and replay: record the
// exact load/store/instruction stream a workload drives through the
// simulator, persist it compactly, and replay it onto machines with
// *different* architectures — the classic trace-driven methodology for the
// customized-CPU design space the paper motivates ("design a novel
// customized CPU architecture for energy-efficient database machine").
//
// The X5 experiment uses this to sweep L1D geometries and cache-energy
// designs over one captured TPC-H query without re-running the engine.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"energydb/internal/cpusim"
	"energydb/internal/memsim"
)

// Event is one recorded access.
type Event struct {
	Kind memsim.AccessKind
	Addr uint64
	// N is the repeat/instruction count (1 for plain loads and stores).
	N uint64
}

// Trace is a captured access stream.
type Trace struct {
	Events []Event
}

// Len returns the event count.
func (t *Trace) Len() int { return len(t.Events) }

// Ops returns the total simulated operations (expanding repeats).
func (t *Trace) Ops() uint64 {
	var n uint64
	for _, e := range t.Events {
		n += e.N
	}
	return n
}

// Capture runs fn with a recorder installed on the machine's hierarchy and
// returns the trace. A recorder already installed keeps receiving every
// event and is left installed afterwards, so a capture inside a recorded
// region takes nothing from the outer recording.
func Capture(m *cpusim.Machine, fn func()) *Trace {
	t := &Trace{}
	outer := m.Hier.Recorder()
	defer m.Hier.SetRecorder(outer)
	m.Hier.SetRecorder(func(kind memsim.AccessKind, addr, n uint64) {
		t.Events = append(t.Events, Event{Kind: kind, Addr: addr, N: n})
		if outer != nil {
			outer(kind, addr, n)
		}
	})
	fn()
	return t
}

// Replay drives the trace through a hierarchy so the PMU operation counts
// match the capture exactly: repeat events issue only their recorded
// remainder (their head was recorded as the preceding plain access). The
// hierarchy may model any architecture — that is the point.
func Replay(t *Trace, h *memsim.Hierarchy) {
	for _, e := range t.Events {
		switch e.Kind {
		case memsim.AccessLoadDep:
			h.Load(e.Addr, true)
		case memsim.AccessLoadInd:
			h.Load(e.Addr, false)
		case memsim.AccessStore:
			h.Store(e.Addr)
		case memsim.AccessLoadRepeat:
			for i := uint64(0); i < e.N; i++ {
				h.Load(e.Addr, false)
			}
		case memsim.AccessStoreRepeat:
			for i := uint64(0); i < e.N; i++ {
				h.Store(e.Addr)
			}
		case memsim.AccessExecAdd:
			h.Exec(e.N, memsim.InstrAdd)
		case memsim.AccessExecNop:
			h.Exec(e.N, memsim.InstrNop)
		case memsim.AccessExecOther:
			h.Exec(e.N, memsim.InstrOther)
		}
	}
}

// File format: magic, version, event count, then varint-packed events.
const (
	magic   = 0x45545243 // "CRTE"
	version = 1
)

// Save writes the trace to a file.
func (t *Trace) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], magic)
	binary.LittleEndian.PutUint32(hdr[4:8], version)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(t.Events)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var buf [2*binary.MaxVarintLen64 + 1]byte
	for _, e := range t.Events {
		buf[0] = byte(e.Kind)
		n := 1
		n += binary.PutUvarint(buf[n:], e.Addr)
		n += binary.PutUvarint(buf[n:], e.N)
		if _, err := w.Write(buf[:n]); err != nil {
			return err
		}
	}
	return w.Flush()
}

// Load reads a trace file.
func Load(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: short header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != magic {
		return nil, fmt.Errorf("trace: bad magic")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != version {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	count := binary.LittleEndian.Uint32(hdr[8:12])
	t := &Trace{Events: make([]Event, 0, count)}
	for i := uint32(0); i < count; i++ {
		kind, err := r.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: truncated at event %d: %w", i, err)
		}
		addr, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("trace: truncated addr at event %d: %w", i, err)
		}
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("trace: truncated count at event %d: %w", i, err)
		}
		t.Events = append(t.Events, Event{Kind: memsim.AccessKind(kind), Addr: addr, N: n})
	}
	return t, nil
}
