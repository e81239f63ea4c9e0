package storage

import (
	"slices"

	"energydb/internal/db/value"
	"energydb/internal/memsim"
)

// Dictionary runs (DESIGN.md §17). A column heap's string column whose bulk
// load finds at most MaxCodes distinct values is coded: its run holds a
// one-byte code a slot, and a Dict maps codes to the strings they stand for.
// The host rows keep their strings; what coding changes is the geometry the
// simulation walks (a coded run is one byte a slot) and the loads a reader of
// the values pays (one dictionary load per value decoded).

// MaxCodes is how many distinct strings a coded column's one-byte code space
// holds; code NullCode stands for NULL.
const (
	MaxCodes = 255
	NullCode = MaxCodes
)

// DictEntryBytes is the simulated size of one dictionary entry (a string
// header), and DictBytes the region a coded column's dictionary takes on a
// device: one entry per code.
const (
	DictEntryBytes = 16
	DictBytes      = (MaxCodes + 1) * DictEntryBytes
)

// Dict is a coded column's dictionary: the strings its codes stand for, in
// code order, which is the order they were first written. A published Dict is
// never changed; a write of a value it lacks publishes a longer copy, so a
// code once given stands for the same string for good.
type Dict struct {
	vals  []string
	codes map[string]uint8
}

// Len returns how many strings the dictionary holds.
func (dc *Dict) Len() int { return len(dc.vals) }

// Code returns v's code: NullCode for NULL, and ok false for a value the
// dictionary does not hold.
func (dc *Dict) Code(v value.Value) (c uint8, ok bool) {
	if v.IsNull() {
		return NullCode, true
	}
	if v.T != value.TypeStr {
		return 0, false
	}
	c, ok = dc.codes[v.S]
	return c, ok
}

// with returns a copy of the dictionary holding s as well, under the next
// code.
func (dc *Dict) with(s string) *Dict {
	out := &Dict{vals: append(slices.Clip(dc.vals), s), codes: make(map[string]uint8, len(dc.codes)+1)}
	for k, c := range dc.codes {
		out.codes[k] = c
	}
	out.codes[s] = uint8(len(dc.vals))
	return out
}

// Dict returns column j's dictionary, nil when the column is plain.
func (d *TableData) Dict(j int) *Dict { return d.geo.Load().dicts[j] }

// code decides, from the rows a bulk load is about to append to the empty
// column heap d, which columns to code: each string column wider than a code
// whose non-NULL values are all strings, at most MaxCodes distinct. Its run
// becomes one byte a slot, in pages of pageSize bytes, and its dictionary
// lists the values in order of first appearance. No access is simulated:
// nothing is stored yet.
func (d *TableData) code(rows []value.Row, pageSize int) {
	g := d.geo.Load()
	neu := &geometry{runs: slices.Clone(g.runs), dicts: slices.Clone(g.dicts), coded: g.coded}
	for j, col := range d.schema.Columns {
		if col.Type != value.TypeStr || d.runs()[d.colRun[j]].width <= 1 {
			continue
		}
		dc := &Dict{codes: map[string]uint8{}}
		for _, r := range rows {
			v := &r[j]
			if v.IsNull() {
				continue
			}
			if v.T != value.TypeStr {
				dc = nil
				break
			}
			if _, ok := dc.codes[v.S]; ok {
				continue
			}
			if dc.Len() == MaxCodes {
				dc = nil
				break
			}
			dc.codes[v.S] = uint8(dc.Len())
			dc.vals = append(dc.vals, v.S)
		}
		if dc != nil {
			neu.runs[d.colRun[j]] = newRun(pageSize, 1)
			neu.dicts[j] = dc
			neu.coded++
		}
	}
	d.geo.Store(neu)
}

// encoded is what making a written row's values codes did: the columns whose
// dictionary took a new value, and the runs rewritten plain, each with the
// geometry it had before and the slots it held.
type encoded struct {
	grown []int
	plain []rewrite
}

type rewrite struct {
	k     int
	old   run
	slots int
}

// encode makes every coded column's dictionary hold row's value, under the
// write lock, before the row is published: a string the dictionary lacks is
// appended under the next code; a value that fits no code — a string past
// the code space, or a value of another type — turns the column plain, its
// run rewritten at the column's own width and its dictionary dropped. A
// write never fails for want of a code.
func (d *TableData) encode(row value.Row, pageSize int) encoded {
	var e encoded
	g := d.geo.Load()
	if g.coded == 0 {
		return e
	}
	var neu *geometry
	for j, dc := range g.dicts {
		if dc == nil {
			continue
		}
		if _, ok := dc.Code(row[j]); ok {
			continue
		}
		if neu == nil {
			neu = &geometry{runs: slices.Clone(g.runs), dicts: slices.Clone(g.dicts), coded: g.coded}
		}
		if row[j].T == value.TypeStr && dc.Len() < MaxCodes {
			neu.dicts[j] = dc.with(row[j].S)
			e.grown = append(e.grown, j)
			continue
		}
		k := d.colRun[j]
		e.plain = append(e.plain, rewrite{k, g.runs[k], len(d.slots)})
		neu.runs[k] = newRun(pageSize, d.schema.Columns[j].Width)
		neu.dicts[j] = nil
		neu.coded--
	}
	if neu != nil {
		d.geo.Store(neu)
	}
	return e
}

// encodeCharge issues what writing row's coded columns costs the writer
// beyond its slot stores, after encode made e: per coded column the lookup
// of its value's entry, the store of each entry a dictionary took, and for
// each run rewritten plain every page of the old run read and every page of
// the new one stored.
func (hf *HeapFile) encodeCharge(row value.Row, e encoded) {
	d := hf.data
	h := hf.dev.M.Hier
	for _, rw := range e.plain {
		neu := d.runs()[rw.k]
		for _, r := range [2]run{rw.old, neu} {
			for p := 0; p*r.perPage < rw.slots; p++ {
				pid := PageID{r.file, p}
				addr := hf.pool.frameAddr[hf.pool.locate(pid, true)] + pageHeaderBytes
				n := uint64(min(r.perPage, rw.slots-p*r.perPage) * r.width)
				if r == rw.old {
					h.LoadRange(addr, n)
					continue
				}
				h.StoreRange(addr, n)
				hf.pool.MarkDirty(pid)
			}
		}
	}
	g := d.geo.Load()
	for j, dc := range g.dicts {
		if dc == nil {
			continue
		}
		c, _ := dc.Code(row[j])
		h.Load(hf.dictEntry(j, c), false)
	}
	for _, j := range e.grown {
		if dc := g.dicts[j]; dc != nil {
			c, _ := dc.Code(row[j])
			h.Store(hf.dictEntry(j, c))
		}
	}
}

// decode charges a row operator's read of row's coded columns among runs —
// a row handed to an interpreter is read as values — one load of the code's
// dictionary entry per coded column. Nothing for an invisible row.
func (hf *HeapFile) decode(runs []int, row value.Row) {
	g := hf.data.geo.Load()
	if g.coded == 0 || row == nil {
		return
	}
	for j, dc := range g.dicts {
		if dc == nil || !slices.Contains(runs, hf.data.colRun[j]) {
			continue
		}
		c, _ := dc.Code(row[j])
		hf.dev.M.Hier.Load(hf.dictEntry(j, c), false)
	}
}

// dictKey names one column's dictionary region on a device.
type dictKey struct {
	d   *TableData
	col int
}

// DictAddr returns the simulated address of column j's dictionary in the
// view's device, zero when the column is plain. A device places a column's
// dictionary at its first use, DictBytes of it.
func (hf *HeapFile) DictAddr(j int) uint64 {
	if hf.data.Dict(j) == nil {
		return 0
	}
	if hf.dictAt == nil {
		hf.dictAt = make([]uint64, len(hf.data.colRun))
	}
	if hf.dictAt[j] == 0 {
		dev := hf.dev
		if dev.dicts == nil {
			dev.dicts = make(map[dictKey]uint64)
		}
		k := dictKey{hf.data, j}
		if dev.dicts[k] == 0 {
			dev.dicts[k] = dev.Arena.Alloc(DictBytes, memsim.LineSize)
		}
		hf.dictAt[j] = dev.dicts[k]
	}
	return hf.dictAt[j]
}

// dictEntry is the simulated address of code c's entry in column j's
// dictionary.
func (hf *HeapFile) dictEntry(j int, c uint8) uint64 {
	return hf.DictAddr(j) + uint64(c)*DictEntryBytes
}

// Load bulk-loads rows into the heap as Append does, one by one, and returns
// the first one's id. Loading a column heap that is still empty first
// decides from the rows which columns to code (TableData.code); any other
// load appends to the geometry the heap has.
func (hf *HeapFile) Load(rows []value.Row) int {
	d := hf.data
	if d.Layout() == Columns {
		d.mu.Lock()
		if len(d.slots) == 0 {
			d.code(rows, hf.pool.pageSize)
		}
		d.mu.Unlock()
	}
	first := d.rowCount()
	for i, r := range rows {
		if id := hf.Append(r); i == 0 {
			first = id
		}
	}
	return first
}

// Coded is a coded column as one view reads it: its dictionary, and where
// the view's device keeps it (HeapFile.DictAddr).
type Coded struct {
	Dict *Dict
	Addr uint64
}

// Dicts returns the dictionaries of the coded columns one of rs reads, by
// column; nil when none does.
func (d *TableData) Dicts(rs ...Reads) map[int]*Dict {
	var out map[int]*Dict
	for j, dc := range d.geo.Load().dicts {
		if dc == nil {
			continue
		}
		for _, r := range rs {
			if slices.Contains(d.touched(r), d.colRun[j]) {
				if out == nil {
					out = map[int]*Dict{}
				}
				out[j] = dc
				break
			}
		}
	}
	return out
}

// Codes returns, per column, the coded column one of rs reads, zero for any
// other; nil when none is coded. A batch off those reads holds their codes.
func (hf *HeapFile) Codes(rs ...Reads) []Coded {
	dicts := hf.data.Dicts(rs...)
	if dicts == nil {
		return nil
	}
	out := make([]Coded, len(hf.data.colRun))
	for j, dc := range dicts {
		out[j] = Coded{dc, hf.DictAddr(j)}
	}
	return out
}
