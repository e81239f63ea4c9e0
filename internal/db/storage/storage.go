// Package storage implements the disk, buffer-pool and heap-file layers the
// database engines run on. All in-memory structures live at simulated
// addresses: every page touch, row read and row write is driven through the
// memory-hierarchy simulator so the energy profiler sees the same access
// stream a real engine would generate.
//
// # Sharing model
//
// A heap file is split in two: TableData is the shared half (versioned tuple
// chains, schema, page geometry) that every worker sees, and HeapFile is a
// per-worker view that binds the shared data to one device and buffer pool.
// Views over the same TableData read and write identical row contents while
// driving their own simulated machine, so per-worker energy attribution
// stays exact.
//
// # Versioning model
//
// Every slot holds a chain of Versions, newest first. A version carries
// begin/end timestamps in the encoding of internal/db/txn (commit timestamp
// or writing-transaction ID) and an immutable row payload. Readers resolve a
// slot against the ambient snapshot on their Device (Device.Snap) without
// blocking writers: TableData's RWMutex only guards the slot slice itself
// (growth on insert, head swaps on update/abort), never a whole statement.
// Version begin/end fields are atomics because commit stamping races
// concurrent readers by design; the txn manager's publish-last protocol
// makes torn commits unobservable.
//
// Chain walks are charged to the reading device as dependent loads in a
// dedicated simulated region (old versions live off-page, as in a real MVCC
// engine's version store), so snapshot overhead shows up in the energy
// ledgers.
//
// # Reclamation
//
// What writes leave behind is reclaimed by later writes, on the writing
// worker's device, against the oldest registered snapshot (txn.Manager.
// Oldest): UpdateTxn unlinks the versions below the slot head that no
// snapshot can reach any more, and Reap releases the slots of rows whose
// delete committed, or whose insert aborted, at or below that horizon. There
// is no background goroutine: every access a reclamation makes is issued by,
// and charged to, the statement that runs it.
package storage

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"energydb/internal/cpusim"
	"energydb/internal/db/catalog"
	"energydb/internal/db/txn"
	"energydb/internal/db/value"
	"energydb/internal/memsim"
)

// Device bundles the simulated machine resources the storage layer uses.
type Device struct {
	M *cpusim.Machine
	// Arena allocates simulated addresses for buffer frames, indexes and
	// scratch memory.
	Arena *memsim.Arena
	// Disk models I/O latency.
	Disk DiskModel

	// Snap is the ambient MVCC snapshot every read through this device
	// resolves version chains against. The engine sets it per statement
	// (autocommit reads) or per transaction (Bind); its zero value sees
	// exactly the bulk-loaded data (begin timestamp 0).
	Snap txn.Snap

	// everRead tracks pages that have been read from disk at least once
	// and therefore live in the OS page cache: the paper's testbed has
	// 32GB of memory against at most 1GB of data, so only first-ever
	// reads pay disk latency; buffer-pool misses on previously-read
	// pages cost a pread from the page cache (a memory copy).
	everRead map[PageID]bool

	// verBase/verOff place version-chain hops in a lazily allocated
	// simulated region: each hop is a dependent load of the next
	// version's header line in the version store.
	verBase uint64
	verOff  uint64

	// maps places each column heap's visibility map (TableData.vm) in this
	// device's simulated memory, at its first use (HeapFile.mapLine), and
	// dicts each coded column's dictionary (HeapFile.DictAddr).
	maps  map[*TableData]uint64
	dicts map[dictKey]uint64
}

// VersionStoreBytes sizes the simulated version-store region chain hops,
// commit stamps and undo records are charged against.
const VersionStoreBytes = 1 << 20

// NewDevice builds a device with a private arena.
func NewDevice(m *cpusim.Machine, arenaBytes uint64) *Device {
	return &Device{
		M:        m,
		Arena:    memsim.NewArena(1<<32, arenaBytes),
		Disk:     DefaultDisk(),
		everRead: make(map[PageID]bool),
	}
}

// versions simulates n accesses to consecutive version headers in the
// version-store region: per header one dependent load, and with write the
// store of its timestamp line.
func (dev *Device) versions(n int, write bool) {
	if n <= 0 {
		return
	}
	if dev.verBase == 0 {
		dev.verBase = dev.Arena.Alloc(VersionStoreBytes, memsim.PageSize)
	}
	h := dev.M.Hier
	for i := 0; i < n; i++ {
		h.Load(dev.verBase+dev.verOff, true)
		if write {
			h.StoreRange(dev.verBase+dev.verOff, memsim.LineSize)
		}
		dev.verOff = (dev.verOff + memsim.LineSize) % VersionStoreBytes
	}
}

// ChargeChain simulates walking n version-chain hops: one dependent load of
// the next version's header line per hop, placed in the version-store
// region so snapshot overhead is attributed like any other memory traffic.
func (dev *Device) ChargeChain(n int) { dev.versions(n, false) }

// ChargeUndo simulates rolling back n undo records: each is a dependent load
// of the record in the version store followed by a line store that unwinds
// it, so aborts cost energy in proportion to the work being thrown away.
func (dev *Device) ChargeUndo(n int) { dev.versions(n, true) }

// ChargeCommit simulates stamping n written versions at commit: each stamp
// is a dependent load of the version header followed by a store of the
// begin/end timestamp line — the mirror image of ChargeUndo, so publishing
// work costs energy in proportion to the work being published. The txn
// manager's stamping loop itself is machine-free (it is shared across
// workers); the committing worker pays here.
func (dev *Device) ChargeCommit(n int) { dev.versions(n, true) }

// VisibilityMapBytes sizes the simulated region a column heap's visibility
// map takes on a device: one bit per tuple-header page, 32 768 pages before
// the map's lines repeat.
const VisibilityMapBytes = 4 << 10

// DiskModel gives per-page read latencies for the local SATA drive of the
// paper's testbed plus the OS page-cache hit cost. Sequential reads ride OS
// readahead; random reads seek.
type DiskModel struct {
	RandomReadSec     float64
	SequentialReadSec float64
	// PageCacheSec is the syscall + lookup overhead of a pread served
	// from the OS page cache (the copy itself is simulated as stores).
	PageCacheSec float64
}

// DefaultDisk returns latencies for a 500GB SATA hard drive under a large
// OS page cache.
func DefaultDisk() DiskModel {
	return DiskModel{RandomReadSec: 2e-3, SequentialReadSec: 30e-6, PageCacheSec: 1.5e-6}
}

// PageID identifies a page within a file.
type PageID struct {
	File int
	Page int
}

// BufferPool caches pages in simulated-memory frames with clock eviction.
// Its size and page size are the knobs of the paper's Table 4
// (shared_buffers / cache_size / innodb_buffer_pool_size).
type BufferPool struct {
	dev        *Device
	pageSize   int
	frames     int
	frameAddr  []uint64
	framePage  []PageID
	frameUsed  []bool
	frameRef   []bool
	frameDirty []bool
	pageTable  map[PageID]int
	clockHand  int
	// recent is, per file (a run's pages are a file of their own), the
	// frame the file's last lookup found: scans and bulk loads resolve one
	// page of a run many times in a row, and a check of it saves them the
	// page table's hashing. Host work alone; a hit counts as any other.
	recent [16]int

	// Misses counts pages read from disk; Hits counts buffer hits.
	Hits   uint64
	Misses uint64
	// WriteBacks counts dirty pages written back on eviction or
	// checkpoint.
	WriteBacks uint64
	// WriteBackSec is the (asynchronous, mostly-hidden) latency charged
	// per written-back page.
	WriteBackSec float64
}

// NewBufferPool allocates the frame array from the device arena.
func NewBufferPool(dev *Device, poolBytes, pageSize int) *BufferPool {
	if pageSize <= 0 {
		panic("storage: page size must be positive")
	}
	frames := poolBytes / pageSize
	if frames < 4 {
		frames = 4
	}
	bp := &BufferPool{
		dev:          dev,
		pageSize:     pageSize,
		frames:       frames,
		frameAddr:    make([]uint64, frames),
		framePage:    make([]PageID, frames),
		frameUsed:    make([]bool, frames),
		frameRef:     make([]bool, frames),
		frameDirty:   make([]bool, frames),
		pageTable:    make(map[PageID]int, frames),
		WriteBackSec: 5e-6,
	}
	for i := 0; i < frames; i++ {
		bp.frameAddr[i] = dev.Arena.Alloc(uint64(pageSize), memsim.PageSize)
	}
	return bp
}

// Frames returns the number of frames.
func (bp *BufferPool) Frames() int { return bp.frames }

// Fetch returns the simulated frame address of the page, reading it from
// disk on a miss. sequential marks accesses that ride readahead. The page
// header is touched (one dependent load) on every fetch, as an engine
// touches the page's slot directory.
func (bp *BufferPool) Fetch(id PageID, sequential bool) uint64 {
	return bp.frameAddr[bp.fetch(id, sequential, true)]
}

// fetch is Fetch returning the frame index, with the page-header load
// dependent or not: a batch that resolves many pages before it reads any of
// them issues their headers back to back (HeapFile.ReadRows).
func (bp *BufferPool) fetch(id PageID, sequential, dependent bool) int {
	idx := bp.locate(id, sequential)
	bp.dev.M.Hier.Load(bp.frameAddr[idx], dependent)
	return idx
}

// locate is fetch without the page-header load: the frame that holds the
// page, read in on a miss.
func (bp *BufferPool) locate(id PageID, sequential bool) int {
	h := bp.dev.M.Hier
	last := &bp.recent[uint(id.File)%uint(len(bp.recent))]
	idx, ok := *last, bp.holds(*last, id)
	if !ok {
		idx, ok = bp.pageTable[id]
	}
	if ok {
		bp.Hits++
		bp.frameRef[idx] = true
		*last = idx
		return idx
	}
	bp.Misses++
	idx = bp.evict()
	*last = idx
	bp.pageTable[id] = idx
	bp.framePage[idx] = id
	bp.frameUsed[idx] = true
	bp.frameRef[idx] = true

	// First-ever reads pay disk latency; re-reads are served by the OS
	// page cache for syscall cost only. Either way the page is copied
	// into the frame (one store per cache line, as memcpy issues).
	switch {
	case bp.dev.everRead[id]:
		bp.dev.M.AddIdle(bp.dev.Disk.PageCacheSec)
	case sequential:
		bp.dev.M.AddIdle(bp.dev.Disk.SequentialReadSec)
		bp.dev.everRead[id] = true
	default:
		bp.dev.M.AddIdle(bp.dev.Disk.RandomReadSec)
		bp.dev.everRead[id] = true
	}
	h.StoreRange(bp.frameAddr[idx], uint64(bp.pageSize))
	return idx
}

// holds reports whether frame idx still holds page id (no accesses
// simulated).
func (bp *BufferPool) holds(idx int, id PageID) bool {
	return bp.frameUsed[idx] && bp.framePage[idx] == id
}

// Contains reports whether the page is resident (no accesses simulated).
func (bp *BufferPool) Contains(id PageID) bool {
	_, ok := bp.pageTable[id]
	return ok
}

// evict picks a frame with the clock algorithm.
func (bp *BufferPool) evict() int {
	for {
		idx := bp.clockHand
		bp.clockHand = (bp.clockHand + 1) % bp.frames
		if !bp.frameUsed[idx] {
			return idx
		}
		if bp.frameRef[idx] {
			bp.frameRef[idx] = false
			continue
		}
		if bp.frameDirty[idx] {
			bp.writeBack(idx)
		}
		delete(bp.pageTable, bp.framePage[idx])
		return idx
	}
}

// writeBack flushes one dirty frame: the kernel reads the frame out and the
// (buffered, asynchronous) write costs a small latency.
func (bp *BufferPool) writeBack(idx int) {
	bp.dev.M.Hier.LoadRange(bp.frameAddr[idx], uint64(bp.pageSize))
	bp.dev.M.AddIdle(bp.WriteBackSec)
	bp.frameDirty[idx] = false
	bp.WriteBacks++
}

// MarkDirty flags a resident page as modified; it will be written back on
// eviction or checkpoint. Marking a non-resident page is a no-op.
func (bp *BufferPool) MarkDirty(id PageID) {
	if idx, ok := bp.pageTable[id]; ok {
		bp.frameDirty[idx] = true
	}
}

// Checkpoint writes back every dirty frame (the periodic flush real engines
// run), returning how many pages were written.
func (bp *BufferPool) Checkpoint() int {
	n := 0
	for idx := range bp.frameDirty {
		if bp.frameDirty[idx] {
			bp.writeBack(idx)
			n++
		}
	}
	return n
}

// DirtyCount returns the number of dirty resident pages.
func (bp *BufferPool) DirtyCount() int {
	n := 0
	for _, d := range bp.frameDirty {
		if d {
			n++
		}
	}
	return n
}

// RelocateFrames moves the first frames of the pool to addresses drawn from
// alloc until it declines. It returns how many frames moved. The Section 4.2
// co-design uses this to put a slice of the database buffer into DTCM.
func (bp *BufferPool) RelocateFrames(alloc func(size uint64) (uint64, bool)) int {
	moved := 0
	for i := 0; i < bp.frames; i++ {
		addr, ok := alloc(uint64(bp.pageSize))
		if !ok {
			break
		}
		bp.frameAddr[i] = addr
		moved++
	}
	return moved
}

// pageHeaderBytes models the slotted-page header walked on row access.
const pageHeaderBytes = 24

// Version is one entry in a slot's tuple chain, newest first. begin/end
// hold the txn-package timestamp encoding and are atomics because commit
// stamping races snapshot readers by design. The row payload is immutable
// once the version is published; updates push a new chain head instead.
type Version struct {
	begin atomic.Uint64
	end   atomic.Uint64
	row   value.Row
	prev  *Version
}

// newVersion builds a live version (open end timestamp).
func newVersion(begin uint64, row value.Row, prev *Version) *Version {
	v := &Version{row: row, prev: prev}
	v.begin.Store(begin)
	v.end.Store(txn.Infinity)
	return v
}

// resolve walks the chain to the newest version visible to snap, returning
// its payload (nil if no version is visible) and the number of chain hops
// taken past the head. Callers charge the hops via Device.ChargeChain.
func resolve(v *Version, snap txn.Snap) (value.Row, int) {
	hops := 0
	for v != nil {
		if snap.Visible(v.begin.Load(), v.end.Load()) {
			return v.row, hops
		}
		v = v.prev
		hops++
	}
	return nil, hops
}

// tombstone is the one version every reclaimed or never-filled slot points
// at: aborted, so invisible to every snapshot and a write-write conflict for
// every writer, and without a payload. Nothing ever stores to it.
var tombstone = newVersion(txn.Aborted, nil, nil)

// prune unlinks the versions below v whose end is a commit at or below
// oldest — ends fall down a chain, so the first such version takes the rest
// of the chain with it — and returns the hops walked and the versions cut.
// The caller holds the table's write lock and charges both.
func prune(v *Version, oldest uint64) (walked, cut int) {
	for ; v.prev != nil; v = v.prev {
		walked++
		if v.prev.end.Load() > oldest {
			continue
		}
		// What one unlink releases; the unlink is one store whatever the count.
		for p := v.prev; p != nil; p = p.prev {
			cut++
		}
		v.prev = nil
		break
	}
	return walked, cut
}

// TableData is the shared half of a heap file: versioned tuple chains,
// schema and page/slot geometry. Per-worker HeapFile views over one
// TableData see identical rows while simulating their accesses on their own
// machines. The RWMutex guards only the slot slice (growth, head swaps) —
// reads resolve snapshots lock-free against version atomics, so statements
// never serialize behind DML.
type TableData struct {
	mu     sync.RWMutex
	schema *catalog.Schema
	slots  []*Version
	// geo is the page geometry and the column dictionaries (geometry),
	// replaced whole under mu when a write changes either, so a reader loads
	// it once without the lock. colRun and colOff place each column in its
	// run's slot, and all lists every run; neither ever changes.
	geo            atomic.Pointer[geometry]
	colRun, colOff []int
	all            []int
	// TupleOverhead is the per-row header width (PostgreSQL's 24-byte
	// heap tuple header, InnoDB's record header, ...), an engine knob.
	TupleOverhead int

	// vm is a column heap's visibility map, one entry per page of the
	// tuple-header run: true while every slot on the page was bulk-loaded
	// (Append) and no write has changed a head there since, so every snapshot
	// sees each of its slots at the head, with no chain hop. A read that
	// consults it (Reads) loads the map's line for such a page in place of
	// its tuple headers. Nil on a row-major heap, which keeps no map. Guarded
	// by mu; visible counts its true entries, for the planner, without it.
	vm      []bool
	visible atomic.Int64

	// dead queues the slots a DeleteTxn stamped or an aborted InsertTxn left
	// behind, until Reap finds them out of every snapshot's reach.
	dead []int

	// changes counts rows inserted, updated and deleted since the optimizer
	// last analyzed the table; pending mirrors len(dead); pruned and reaped
	// count versions unlinked and slots released. Atomics, so planners and
	// gauges read them without the lock.
	changes atomic.Int64
	pending atomic.Int64
	pruned  atomic.Uint64
	reaped  atomic.Uint64
}

// Changes returns how many rows were inserted, updated or deleted since the
// last Analyzed call.
func (d *TableData) Changes() int { return int(d.changes.Load()) }

// Analyzed tells the table that statistics covering n of its counted changes
// were just collected.
func (d *TableData) Analyzed(n int) { d.changes.Add(-int64(n)) }

// ReclaimStats is what reclamation has done to one table and what it still
// has queued.
type ReclaimStats struct {
	VersionsPruned  uint64
	DeadRowsReaped  uint64
	DeadRowsPending int
}

// Reclaimed reads the table's reclamation counters.
func (d *TableData) Reclaimed() ReclaimStats {
	return ReclaimStats{
		VersionsPruned:  d.pruned.Load(),
		DeadRowsReaped:  d.reaped.Load(),
		DeadRowsPending: int(d.pending.Load()),
	}
}

// queueDead appends slot id to the dead queue; the caller holds the lock.
func (d *TableData) queueDead(id int) {
	d.dead = append(d.dead, id)
	d.pending.Store(int64(len(d.dead)))
}

// rowCount returns the number of slots under the read lock.
func (d *TableData) rowCount() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.slots)
}

// row resolves slot id against snap under the read lock: row is nil when no
// version is visible, hops counts chain hops past the head, all reports
// whether the visibility map marks the slot's page all-visible, ok is false
// only when id is out of range. Returned rows are immutable payloads, so
// they stay valid after the lock is released.
func (d *TableData) row(id int, snap txn.Snap) (row value.Row, hops int, all, ok bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if id < 0 || id >= len(d.slots) {
		return nil, 0, false, false
	}
	row, hops = resolve(d.slots[id], snap)
	return row, hops, d.allVisible(id / d.runs()[0].perPage), true
}

// ForEachRaw visits the latest committed version of every slot under the
// read lock without simulating any accesses. It is the ANALYZE path:
// statistics collection is bookkeeping on the Go side, not part of any
// measured statement, so it must not advance the PMU counters of whichever
// worker happens to run it. Slots with no committed version (in-flight
// inserts, aborted tombstones, committed deletes) are skipped. fn runs under
// the table's read lock and must take no lock: its callers live in the
// engine, and an engine lock taken in fn would invert the engine → txn →
// storage → btree order (package engine).
func (d *TableData) ForEachRaw(fn func(id int, row value.Row)) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	latest := txn.Latest()
	// ANALYZE path: statistics collection must not advance any worker's PMU
	// counters.
	for i, v := range d.slots {
		if row, _ := resolve(v, latest); row != nil {
			fn(i, row)
		}
	}
}

// LiveCount returns the number of slots with a version visible to the
// latest-committed snapshot (no accesses simulated).
func (d *TableData) LiveCount() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	latest := txn.Latest()
	n := 0
	// Bookkeeping count, no accesses simulated.
	for _, v := range d.slots {
		if row, _ := resolve(v, latest); row != nil {
			n++
		}
	}
	return n
}

// rowSpan resolves up to len(dst) slots starting at lo against snap under
// one read lock. Invisible slots leave nil holes in dst. It returns the
// number of slots examined and the total chain hops taken, and appends to
// vis, for each tuple-header page the slots lie on, whether the visibility
// map marks it all-visible (nothing on a row-major heap).
func (d *TableData) rowSpan(lo int, dst []value.Row, snap txn.Snap, vis []bool) (n, hops int, _ []bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if lo < 0 || lo >= len(d.slots) {
		return 0, 0, vis
	}
	n = len(d.slots) - lo
	if n > len(dst) {
		n = len(dst)
	}
	// Machine-free resolution under the shared lock; BatchScanner.NextBatch
	// charges the returned hops and the page runs.
	for i := 0; i < n; i++ {
		row, h := resolve(d.slots[lo+i], snap)
		dst[i] = row
		hops += h
	}
	if d.vm != nil {
		per := d.runs()[0].perPage
		for p := lo / per; p <= (lo+n-1)/per; p++ {
			vis = append(vis, d.allVisible(p))
		}
	}
	return n, hops, vis
}

// allVisible reports whether the visibility map marks tuple-header page p
// all-visible; the caller holds the lock.
func (d *TableData) allVisible(p int) bool { return p < len(d.vm) && d.vm[p] }

// loaded extends the visibility map over slot id, which Append just filled
// under the write lock: a page the bulk load opens is all-visible, and a page
// it continues keeps its bit.
func (d *TableData) loaded(id int) {
	if d.Layout() == Columns && id/d.runs()[0].perPage == len(d.vm) {
		d.vm = append(d.vm, true)
		d.visible.Add(1)
	}
}

// written clears the all-visible bit of slot id's page, whose head a write
// just changed under the write lock, extending the map over any page the
// write opens. It reports whether a set bit was cleared, which the writer
// then stores to its device's copy of the map (HeapFile.cleared).
func (d *TableData) written(id int) bool {
	if d.Layout() == Rows {
		return false
	}
	p := id / d.runs()[0].perPage
	for len(d.vm) <= p {
		d.vm = append(d.vm, false)
	}
	if !d.vm[p] {
		return false
	}
	d.vm[p] = false
	d.visible.Add(-1)
	return true
}

var nextFileID atomic.Int64

// Layout is how a heap lays its slots out in runs.
type Layout uint8

const (
	// Rows is the row-major heap (NSM): one run holding each slot's tuple
	// header and every column.
	Rows Layout = iota
	// Columns is the column heap (DSM): one run of tuple headers and one run
	// per column, so a read of some columns touches only their runs.
	Columns
)

// run is a group of columns stored at fixed widths, slot by slot, in pages
// of its own: slot id lies in page id/perPage of the run's file, at offset
// pageHeaderBytes + id%perPage*width.
type run struct{ file, width, perPage int }

// geometry is a heap's runs and, per column, its dictionary: nil for a plain
// column, and for every column of a row-major heap. It is never written in
// place: a write that extends a dictionary or rewrites a coded run plain
// publishes a new one (TableData.geo).
type geometry struct {
	runs  []run
	dicts []*Dict
	coded int // the columns with a dictionary
}

// runs is the heap's current run geometry.
func (d *TableData) runs() []run { return d.geo.Load().runs }

// Reads is what a read of some columns touches in one heap: the header run
// and each run holding one of the columns, in run order. The zero Reads
// touches every run. On a column heap a read consults the visibility map
// and skips the header run on an all-visible page, unless it is a write's
// read (Writing). A later stage of a staged read (Later) touches column runs
// alone, for rows a read with the header run already resolved.
type Reads struct {
	runs  []int
	write bool
	later bool
}

// Writing returns r as the read of a write: it reads the tuple-header run on
// every page, all-visible or not, as first-updater-wins tests the head's
// stamps.
func (r Reads) Writing() Reads {
	r.write = true
	return r
}

// consults reports whether a read of r consults the visibility map.
func (d *TableData) consults(r Reads) bool { return d.Layout() == Columns && !r.write && !r.later }

// Reads resolves a column set against the heap's runs: nil reads every
// column, an empty set only the tuple headers.
func (d *TableData) Reads(cols []int) Reads {
	if cols == nil || len(d.runs()) == 1 {
		return Reads{}
	}
	return Reads{runs: append([]int{0}, d.colRuns(cols)...)}
}

// Later resolves a column set as a later stage of a staged read: the runs of
// the columns, without the header run, read for rows an earlier stage (a
// read of Reads) resolved. A row-major heap's one run is the header run,
// which the first stage read whole, so there a later stage reads nothing.
// Only ReadRows reads a later stage.
func (d *TableData) Later(cols []int) Reads {
	if len(d.runs()) == 1 {
		return Reads{runs: []int{}, later: true}
	}
	return Reads{runs: d.colRuns(cols), later: true}
}

// colRuns lists the column runs holding cols, in run order.
func (d *TableData) colRuns(cols []int) []int {
	runs := []int{}
	for k := 1; k < len(d.runs()); k++ {
		for _, c := range cols {
			if d.colRun[c] == k {
				runs = append(runs, k)
				break
			}
		}
	}
	return runs
}

// Layout reports how the heap lays its slots out.
func (d *TableData) Layout() Layout {
	if len(d.runs()) > 1 {
		return Columns
	}
	return Rows
}

// touched lists the runs r reads.
func (d *TableData) touched(r Reads) []int {
	if r.runs == nil {
		return d.all
	}
	return r.runs
}

// page is the page of run k that holds slot id.
func (d *TableData) page(k, id int) PageID {
	return PageID{d.runs()[k].file, id / d.runs()[k].perPage}
}

// frame resolves page pid of run k through the view's pool and returns the
// frame's index. A page of the header run (a row-major page) has its
// header line loaded, dependent or not, as the slot directory every read of
// a slot consults; a column run's page has no directory — a value's address
// follows from the slot id — so it is located in the pool (a miss still pays
// its read and copy) with no load.
func (hf *HeapFile) frame(k int, pid PageID, sequential, dependent bool) int {
	if k > 0 {
		return hf.pool.locate(pid, sequential)
	}
	return hf.pool.fetch(pid, sequential, dependent)
}

// slotAddr is the simulated address of slot id in run k, in a frame at
// frameAddr that holds its page.
func (d *TableData) slotAddr(k int, frameAddr uint64, id int) uint64 {
	r := d.runs()[k]
	return frameAddr + uint64(pageHeaderBytes+id%r.perPage*r.width)
}

// Span is what reading a column set of one slot touches: the bytes of the
// runs read, tuple header included; the loads a lone slot read issues in
// them (each run's slot in whole lines); and the loads per slot of a scan
// that streams them page by page. A column run's slots narrower than a line
// share it; a row-major slot is priced at whole lines, as the row scans'
// price always was. Only the header run's page costs a header load
// (HeapFile.frame), so a slot read makes one page-frame lookup whatever it
// reads. Mapped is the share of the header run's pages the read finds
// all-visible: on those it reads no tuple header, and its page-frame lookup
// is a load of the visibility map's line instead, so the header run counts
// in the other fields for the remaining share only. Decodes counts the coded
// columns read: a row operator's read of a slot loads one dictionary entry
// for each (HeapFile.decode), and a write of a whole slot looks each up.
type Span struct{ Bytes, Lines, Stream, Mapped, Decodes float64 }

// Span is the cost model's view of a read of r: the same geometry every
// issue path below walks.
func (d *TableData) Span(r Reads) Span {
	var sp Span
	if d.consults(r) {
		if pages := (d.rowCount() + d.runs()[0].perPage - 1) / d.runs()[0].perPage; pages > 0 {
			sp.Mapped = float64(d.visible.Load()) / float64(pages)
		}
	}
	g := d.geo.Load()
	for j, dc := range g.dicts {
		if dc != nil && slices.Contains(d.touched(r), d.colRun[j]) {
			sp.Decodes++
		}
	}
	for _, k := range d.touched(r) {
		w := float64(g.runs[k].width)
		lines := math.Ceil(w / memsim.LineSize)
		share := 1.0
		if k == 0 {
			share -= sp.Mapped
		}
		sp.Bytes += share * w
		sp.Lines += share * lines
		if w < memsim.LineSize && len(g.runs) > 1 {
			lines = w / memsim.LineSize
		}
		sp.Stream += share * lines
	}
	return sp
}

// mapLine is the simulated address of the line holding the visibility-map
// bit of tuple-header page p, in the region the view's device keeps for the
// heap's map.
func (hf *HeapFile) mapLine(p int) uint64 {
	if hf.vmBase == 0 {
		dev := hf.dev
		if dev.maps == nil {
			dev.maps = make(map[*TableData]uint64)
		}
		if dev.maps[hf.data] == 0 {
			dev.maps[hf.data] = dev.Arena.Alloc(VisibilityMapBytes, memsim.LineSize)
		}
		hf.vmBase = dev.maps[hf.data]
	}
	return hf.vmBase + uint64(p/8)%VisibilityMapBytes/memsim.LineSize*memsim.LineSize
}

// cleared stores the map bit of slot id's page after a write cleared it
// (TableData.written).
func (hf *HeapFile) cleared(id int) {
	hf.dev.M.Hier.Store(hf.mapLine(id / hf.data.runs()[0].perPage))
}

// At is where a read found its first slot: the slot's address in each run
// the read touched, zero in the others.
type At struct {
	d    *TableData
	slot []uint64
}

// Col returns the simulated address of column j in the slot. It panics when
// the read did not touch column j's run: the plan under-stated its columns.
func (a *At) Col(j int) uint64 {
	at := a.slot[a.d.colRun[j]]
	if at == 0 {
		panic(fmt.Sprintf("storage: column %d was not read", j))
	}
	return at + uint64(a.d.colOff[j])
}

// reset empties a for a read of d.
func (a *At) reset(d *TableData) {
	if a.d != d {
		a.d, a.slot = d, make([]uint64, len(d.runs()))
	}
	clear(a.slot)
}

// HeapFile stores fixed-width rows in slotted pages behind a buffer pool.
// Row *contents* live on the Go side (the shared TableData); the page/slot
// geometry determines the simulated addresses touched when rows are read.
// A HeapFile is a per-worker view: the data is shared, the device and pool
// (and therefore every simulated access) belong to this view alone.
type HeapFile struct {
	dev  *Device
	pool *BufferPool
	data *TableData

	// frames, slots and hops are the read paths' scratch: the frame each
	// (id, run) resolved to, one slot's address in each run, and each id's
	// chain hops.
	frames []int
	slots  []uint64
	hops   []int
	// vmBase is where the device keeps the heap's visibility map, once
	// mapLine has placed it; dictAt, per column, its dictionary, once
	// DictAddr has.
	vmBase uint64
	dictAt []uint64
}

// NewHeapFile creates an empty heap file on the pool, with fresh shared
// table data laid out as layout says.
func NewHeapFile(dev *Device, pool *BufferPool, schema *catalog.Schema, tupleOverhead int, layout Layout) *HeapFile {
	d := &TableData{schema: schema, TupleOverhead: tupleOverhead}
	n := len(schema.Columns)
	d.colRun, d.colOff = make([]int, n), make([]int, n)
	g := &geometry{dicts: make([]*Dict, n)}
	addRun := func(width int) int {
		g.runs = append(g.runs, newRun(pool.pageSize, width))
		d.all = append(d.all, len(d.all))
		return len(g.runs) - 1
	}
	if layout == Rows {
		addRun(schema.RowWidth() + tupleOverhead)
		for j := range d.colOff {
			d.colOff[j] = schema.ColOffset(j)
		}
	} else {
		addRun(tupleOverhead)
		for j, c := range schema.Columns {
			d.colRun[j] = addRun(c.Width)
		}
	}
	d.geo.Store(g)
	return &HeapFile{dev: dev, pool: pool, data: d}
}

// newRun lays out a run of slots of the given width in pages of pageSize
// bytes, in a file of its own.
func newRun(pageSize, width int) run {
	width = max(width, 1)
	return run{int(nextFileID.Add(1)), width, max((pageSize-pageHeaderBytes)/width, 1)}
}

// Data returns the shared table data behind this view.
func (hf *HeapFile) Data() *TableData { return hf.data }

// Device returns the device this view simulates its accesses on.
func (hf *HeapFile) Device() *Device { return hf.dev }

// View returns a heap file over the same shared table data bound to a
// different device and buffer pool — the per-worker attachment path: row
// contents and page geometry are shared, while every simulated access (page
// fetches, row loads, row stores) drives the view's own machine.
func (d *TableData) View(dev *Device, pool *BufferPool) *HeapFile {
	return &HeapFile{dev: dev, pool: pool, data: d}
}

// Schema returns the row schema.
func (hf *HeapFile) Schema() *catalog.Schema { return hf.data.schema }

// RowCount returns the number of slots (including dead versions' slots);
// it determines the file's page geometry.
func (hf *HeapFile) RowCount() int { return hf.data.rowCount() }

// PageCount returns the number of pages the slots occupy, over every run.
func (hf *HeapFile) PageCount() int {
	n, total := hf.data.rowCount(), 0
	for _, r := range hf.data.runs() {
		total += (n + r.perPage - 1) / r.perPage
	}
	return total
}

// SlotPages returns the pages a write of slot id stores into, one per run;
// a stamp writes the tuple header's alone (storeSlot).
func (d *TableData) SlotPages(id int, stamp bool) []PageID {
	runs := d.all
	if stamp {
		runs = runs[:1]
	}
	pids := make([]PageID, len(runs))
	for i, k := range runs {
		pids[i] = d.page(k, id)
	}
	return pids
}

// TupleOverhead returns the per-row header width knob.
func (hf *HeapFile) TupleOverhead() int { return hf.data.TupleOverhead }

// Append bulk-loads a row outside any transaction (begin timestamp 0:
// committed before every snapshot), simulating the page write. It takes the
// table write lock for the slot insertion. The TPC-H loader and tests use
// this path; transactional inserts go through InsertTxn.
func (hf *HeapFile) Append(r value.Row) int {
	d := hf.data
	v := newVersion(0, r.Clone(), nil)
	d.mu.Lock()
	e := d.encode(r, hf.pool.pageSize)
	id := len(d.slots)
	d.slots = append(d.slots, v)
	d.loaded(id)
	d.mu.Unlock()
	d.changes.Add(1)
	hf.encodeCharge(r, e)
	hf.storeSlot(id, true, false, false)
	return id
}

// storeSlot simulates writing slot id: in each run, the fetch of its page
// (sequential rides readahead) and a store per line of the slot. A stamp
// writes the tuple header alone: a row-major slot's first line, a header
// run's slot. dirty marks the pages written.
func (hf *HeapFile) storeSlot(id int, sequential, stamp, dirty bool) {
	d := hf.data
	for _, k := range d.all {
		pid := d.page(k, id)
		n := uint64(d.runs()[k].width)
		if stamp && d.Layout() == Rows {
			n = memsim.LineSize
		}
		hf.dev.M.Hier.StoreRange(d.slotAddr(k, hf.pool.frameAddr[hf.frame(k, pid, sequential, true)], id), n)
		if dirty {
			hf.pool.MarkDirty(pid)
		}
		if stamp {
			return
		}
	}
}

// insertRecord undoes/commits an InsertTxn: commit stamps the begin
// timestamp, abort marks the version aborted and queues its slot for Reap,
// which releases the payload and hands the row back so its index entries can
// go too (row IDs are never reused, so recovery and concurrent scans keep
// stable geometry).
type insertRecord struct {
	d  *TableData
	id int
	v  *Version
}

func (r *insertRecord) Commit(ts uint64) { r.v.begin.Store(ts) }

func (r *insertRecord) Abort() {
	r.v.begin.Store(txn.Aborted)
	r.d.mu.Lock()
	r.d.queueDead(r.id)
	r.d.mu.Unlock()
}

// updateRecord undoes/commits an UpdateTxn: commit stamps the new head's
// begin and the old head's end with the commit timestamp; abort swaps the
// old head back and reopens its end timestamp.
type updateRecord struct {
	d   *TableData
	id  int
	old *Version
	neu *Version
}

func (r *updateRecord) Commit(ts uint64) {
	r.neu.begin.Store(ts)
	r.old.end.Store(ts)
}

func (r *updateRecord) Abort() {
	r.old.end.Store(txn.Infinity)
	r.d.mu.Lock()
	r.d.slots[r.id] = r.old
	r.d.mu.Unlock()
}

// deleteRecord undoes/commits a DeleteTxn: commit stamps the end timestamp,
// abort reopens it.
type deleteRecord struct{ v *Version }

func (r *deleteRecord) Commit(ts uint64) { r.v.end.Store(ts) }
func (r *deleteRecord) Abort()           { r.v.end.Store(txn.Infinity) }

// wwConflict applies first-updater-wins to a slot head: the write loses if
// the head was deleted or superseded (any stamped end), written by another
// in-flight or aborted transaction, or committed after t's snapshot.
func wwConflict(head *Version, t *txn.Txn) bool {
	b, e := head.begin.Load(), head.end.Load()
	if e != txn.Infinity {
		return true
	}
	if b >= txn.TxnIDBase {
		return b != t.ID()
	}
	return b > t.Snap().TS
}

// InsertTxn appends a new row version owned by t and registers the undo
// record. The slot becomes visible to other snapshots only at commit; abort
// leaves an invisible tombstone. The page write is simulated like Append
// plus a dirty mark.
func (hf *HeapFile) InsertTxn(t *txn.Txn, r value.Row) int {
	d := hf.data
	v := newVersion(t.ID(), r.Clone(), nil)
	d.mu.Lock()
	e := d.encode(r, hf.pool.pageSize)
	id := len(d.slots)
	d.slots = append(d.slots, v)
	cleared := d.written(id)
	d.mu.Unlock()
	d.changes.Add(1)
	t.Log(&insertRecord{d: d, id: id, v: v})
	if cleared {
		hf.cleared(id)
	}
	hf.encodeCharge(r, e)
	hf.storeSlot(id, true, false, true)
	return id
}

// InsertAtTxn applies a recovered insert at a specific slot id (WAL replay
// must reproduce the original row geometry because later log records address
// rows by id). Slots lost to the crash — allocated by transactions whose
// records never became durable — are back-filled with the tombstone; a log
// tail replayed onto a checkpointed store finds the slots of the transactions
// that were open at the checkpoint back-filled so, and fills them. It
// simulates the same page write as InsertTxn.
func (hf *HeapFile) InsertAtTxn(t *txn.Txn, id int, r value.Row) error {
	d := hf.data
	v := newVersion(t.ID(), r.Clone(), nil)
	d.mu.Lock()
	if id < len(d.slots) && d.slots[id] != tombstone {
		n := len(d.slots)
		d.mu.Unlock()
		return fmt.Errorf("storage: replay slot %d already allocated (have %d)", id, n)
	}
	e := d.encode(r, hf.pool.pageSize)
	// Of the pages this write reaches, only the first can be all-visible:
	// the one holding id, or the load's last page the back-fill continues.
	first, cleared := min(id, len(d.slots)), false
	for len(d.slots) <= id {
		d.slots = append(d.slots, tombstone)
		cleared = d.written(len(d.slots)-1) || cleared
	}
	d.slots[id] = v
	cleared = d.written(id) || cleared
	d.mu.Unlock()
	d.changes.Add(1)
	t.Log(&insertRecord{d: d, id: id, v: v})
	if cleared {
		hf.cleared(first)
	}
	hf.encodeCharge(r, e)
	hf.storeSlot(id, true, false, true)
	return nil
}

// UpdateTxn pushes a new version of slot id owned by t, first-updater-wins:
// txn.ErrWriteConflict reports a head written by another in-flight
// transaction or committed past t's snapshot. The old head stays reachable
// for older snapshots (its end is stamped at commit); the versions below it
// that no registered snapshot can reach are unlinked on the way (prune), the
// walk and the unlink charged to this device. row becomes the new version's
// payload, which is immutable: the caller gives it up (the log record of the
// change may share it). It returns the number of bytes logically written, for
// WAL sizing.
func (hf *HeapFile) UpdateTxn(t *txn.Txn, id int, row value.Row) (int, error) {
	d := hf.data
	oldest := t.Oldest() // txn before storage: never under d.mu
	d.mu.Lock()
	if id < 0 || id >= len(d.slots) {
		n := len(d.slots)
		d.mu.Unlock()
		return 0, fmt.Errorf("storage: row %d out of range [0, %d)", id, n)
	}
	head := d.slots[id]
	if wwConflict(head, t) {
		d.mu.Unlock()
		return 0, txn.ErrWriteConflict
	}
	walked, cut := prune(head, oldest)
	e := d.encode(row, hf.pool.pageSize)
	nv := newVersion(t.ID(), row, head)
	head.end.Store(t.ID())
	d.slots[id] = nv
	cleared := d.written(id)
	d.mu.Unlock()
	d.changes.Add(1)
	t.Log(&updateRecord{d: d, id: id, old: head, neu: nv})
	hf.dev.ChargeChain(walked)
	if cut > 0 {
		d.pruned.Add(uint64(cut))
		hf.dev.versions(1, true)
	}
	if cleared {
		hf.cleared(id)
	}
	hf.encodeCharge(row, e)
	hf.storeSlot(id, false, false, true)
	return d.schema.RowWidth() + d.TupleOverhead, nil
}

// DeleteTxn stamps slot id's head with t's ID (first-updater-wins, as
// UpdateTxn) so it disappears from snapshots after commit, and queues the
// slot for Reap. The simulated write touches the tuple header line only.
func (hf *HeapFile) DeleteTxn(t *txn.Txn, id int) error {
	d := hf.data
	d.mu.Lock()
	if id < 0 || id >= len(d.slots) {
		n := len(d.slots)
		d.mu.Unlock()
		return fmt.Errorf("storage: row %d out of range [0, %d)", id, n)
	}
	head := d.slots[id]
	if wwConflict(head, t) {
		d.mu.Unlock()
		return txn.ErrWriteConflict
	}
	head.end.Store(t.ID())
	d.queueDead(id)
	cleared := d.written(id)
	d.mu.Unlock()
	d.changes.Add(1)
	t.Log(&deleteRecord{v: head})
	if cleared {
		hf.cleared(id)
	}
	hf.storeSlot(id, false, true, true)
	return nil
}

// Reaped is one slot Reap released: its id and the row it held, which the
// caller needs to find the slot's index entries.
type Reaped struct {
	ID  int
	Row value.Row
}

// Reap releases the queued dead slots that no snapshot at or above oldest can
// see — the delete committed at or below it, or the insert aborted — by
// pointing them at the tombstone: the payload and the chain below it become
// garbage, the slot id stays taken. A slot whose delete rolled back leaves
// the queue; one whose delete is still in flight, or committed above oldest,
// stays. Every queued slot costs this device a look at its tuple header, every
// released one the store that marks it. The caller removes the index entries
// of what is returned, after this returns and so outside the table lock.
func (hf *HeapFile) Reap(oldest uint64) []Reaped {
	d := hf.data
	if d.pending.Load() == 0 {
		return nil
	}
	var out []Reaped
	d.mu.Lock()
	queued := d.dead
	keep := d.dead[:0]
	// Machine-free pass under the table lock; the header looks and marking
	// stores are issued below, outside it.
	for _, id := range queued {
		v := d.slots[id]
		begin, end := v.begin.Load(), v.end.Load()
		switch {
		case v == tombstone || (begin != txn.Aborted && end == txn.Infinity):
		case begin == txn.Aborted || end <= oldest:
			out = append(out, Reaped{ID: id, Row: v.row})
			d.slots[id] = tombstone
			d.written(id) // a no-op: the write that queued the slot cleared its page
		default:
			keep = append(keep, id)
		}
	}
	examined := len(queued)
	d.dead = keep
	d.pending.Store(int64(len(keep)))
	d.mu.Unlock()
	d.reaped.Add(uint64(len(out)))

	hf.dev.ChargeChain(examined)
	for _, r := range out {
		hf.storeSlot(r.ID, false, true, true)
	}
	return out
}

// Pool returns the backing buffer pool.
func (hf *HeapFile) Pool() *BufferPool { return hf.pool }

// ReadRow reads row id's columns r names in scan order under the device's
// ambient snapshot: each run's page fetch rides readahead and the slot
// streams (streamSlot); on a page the visibility map marks all-visible the
// map's line is loaded in place of the header run's. visible is false (with
// a nil row) when no version of the slot is visible. A read of a row an
// index entry named is FetchRow.
func (hf *HeapFile) ReadRow(id int, r Reads) (row value.Row, visible bool, err error) {
	d := hf.data
	row, hops, all, ok := d.row(id, hf.dev.Snap)
	if !ok {
		return nil, false, fmt.Errorf("storage: row %d out of range [0, %d)", id, d.rowCount())
	}
	runs := d.touched(r)
	hf.slots = hf.slots[:0]
	for j, k := range runs {
		pid := d.page(k, id)
		if j == 0 && all && d.consults(r) {
			hf.dev.M.Hier.Load(hf.mapLine(pid.Page), true)
			hf.slots = append(hf.slots, 0)
			continue
		}
		hf.slots = append(hf.slots, d.slotAddr(k, hf.pool.frameAddr[hf.frame(k, pid, true, true)], id))
	}
	hf.streamSlot(runs, hf.slots, row, hops)
	return row, row != nil, nil
}

// streamSlot charges a slot read in scan order, at slot[j] in run runs[j]:
// its version-chain hops, then each run's slot as one streaming range and
// the decode of each coded column read (decode), or only the tuple header's
// first line when no version is visible. A zero slot[0] is a header the
// visibility map stood in for.
func (hf *HeapFile) streamSlot(runs []int, slot []uint64, row value.Row, hops int) {
	h := hf.dev.M.Hier
	hf.dev.ChargeChain(hops)
	if row == nil {
		h.Load(slot[0], false)
		return
	}
	geo := hf.data.runs()
	for j, k := range runs {
		if slot[j] != 0 {
			h.LoadRange(slot[j], uint64(geo[k].width))
		}
	}
	hf.decode(runs, row)
}

// FetchRow reads row id's columns r names, the row named by an index entry,
// under the device's ambient snapshot: a ReadRows of one id whose page-header
// load and tuple header's first-line load (or, on an all-visible page, the
// visibility map's line) are dependent, since a lone row's address waits on
// the entry that named it (a pointer chase). visible is false (with a nil
// row) when no version of the slot is visible — index probes skip such hits.
func (hf *HeapFile) FetchRow(id int, r Reads) (row value.Row, visible bool, err error) {
	ids, dst := [1]int{id}, [1]value.Row{}
	if err := hf.readRows(ids[:], dst[:], r, nil, true, true); err != nil {
		return nil, false, err
	}
	return dst[0], dst[0] != nil, nil
}

// ReadRows reads the columns r names of the rows ids name under the device's
// ambient snapshot into dst (len(dst) >= len(ids); dst[i] is nil when no
// version of ids[i] is visible) on the schedule a batch engine can follow:
// slots are fixed-width, so a slot's address in every run follows from its
// id and its page's frame, never from a header's contents, and no id's loads
// wait on another's. at, if not nil, learns where the first id's slot was
// read. Nothing is simulated when an id is out of range.
//
// A later stage of a staged read (r from Later) reads rows an earlier
// ReadRows of them found visible: per id it issues its runs' slot lines and
// nothing else — no visibility-map, header or chain-hop load — resolves
// nothing and leaves dst as it is (it may be nil). at keeps the runs the
// earlier stages recorded and learns the first id's slot in each of its own.
func (hf *HeapFile) ReadRows(ids []int, dst []value.Row, r Reads, at *At) error {
	return hf.readRows(ids, dst, r, at, false, false)
}

// readRows is the one issue path of a fetched row, grouped (ReadRows) or, for
// a batch of one, dependent (FetchRow). Pass 1 resolves every id's row and
// its page in every run read through the pool, in id order (a miss keeps
// its disk charge and page copy), and issues the header run's page-header
// loads back to back. Pass 2 charges each row's version-chain hops, which
// stay dependent, then in each run issues the slot's first line and streams
// the rest; a slot no version of which is visible costs its tuple header's
// first line alone. A lone row's tuple header waits on the entry; its other
// runs' lines overlap it. A row on a page the visibility map marks
// all-visible has no header page resolved and no tuple header read: the
// map's line is loaded where the header's first line would be. Pass 1 may
// have evicted a frame an earlier id resolved; pass 2 then fetches that page
// again, dependent, rather than load from a frame that holds another page.
// With decode (a row operator's fetch) each visible row's coded columns are
// decoded after its lines (decode).
func (hf *HeapFile) readRows(ids []int, dst []value.Row, r Reads, at *At, dependent, decode bool) error {
	d := hf.data
	n := d.rowCount()
	for _, id := range ids {
		if id < 0 || id >= n {
			return fmt.Errorf("storage: row %d out of range [0, %d)", id, n)
		}
	}
	runs := d.touched(r)
	nr := len(runs)
	consults := d.consults(r)
	if cap(hf.frames) < len(ids)*nr {
		hf.frames = make([]int, len(ids)*nr)
	}
	frames := hf.frames[:len(ids)*nr]
	hf.hops = hf.hops[:0]
	for i, id := range ids {
		all := false
		if !r.later {
			row, hops, mapped, _ := d.row(id, hf.dev.Snap)
			dst[i], all = row, mapped
			hf.hops = append(hf.hops, hops)
		}
		for j, k := range runs {
			if j == 0 && all && consults {
				frames[i*nr] = -1 // the map stands in for the header page
				continue
			}
			frames[i*nr+j] = hf.frame(k, d.page(k, id), false, dependent)
		}
	}
	// A later stage keeps the runs earlier stages recorded.
	if at != nil && (!r.later || at.d != d) {
		at.reset(d)
	}
	h := hf.dev.M.Hier
	for i, id := range ids {
		mapped := nr > 0 && frames[i*nr] < 0
		hf.slots = hf.slots[:0]
		for j, k := range runs {
			if j == 0 && mapped {
				hf.slots = append(hf.slots, 0)
				continue
			}
			pid := d.page(k, id)
			f := frames[i*nr+j]
			if !hf.pool.holds(f, pid) {
				f = hf.frame(k, pid, false, true)
			}
			hf.slots = append(hf.slots, d.slotAddr(k, hf.pool.frameAddr[f], id))
			if i == 0 && at != nil {
				at.slot[k] = hf.slots[j]
			}
		}
		visible := r.later
		if !r.later {
			visible = dst[i] != nil
			hf.dev.ChargeChain(hf.hops[i])
		}
		for j, k := range runs {
			if !visible && j > 0 {
				break
			}
			if j == 0 && mapped {
				h.Load(hf.mapLine(d.page(0, id).Page), dependent)
				continue
			}
			h.Load(hf.slots[j], dependent && k == 0)
			if w := d.runs()[k].width; visible && w > memsim.LineSize {
				h.LoadRange(hf.slots[j]+memsim.LineSize, uint64(w-memsim.LineSize))
			}
		}
		if decode {
			hf.decode(runs, dst[i])
		}
	}
	return nil
}

// Machine exposes the device machine (operators issue compute through it).
func (hf *HeapFile) Machine() *cpusim.Machine { return hf.dev.M }

// ResidentPages reports how many of the pages a read of r fetches — those of
// the runs it reads, less the header run's all-visible ones when it consults
// the visibility map — are currently resident in this view's buffer pool,
// and their total. No
// accesses are simulated; the cost model uses this to predict buffer hit
// behaviour.
func (hf *HeapFile) ResidentPages(r Reads) (resident, total int) {
	d := hf.data
	runs := d.touched(r)
	mapped := d.consults(r)
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := len(d.slots)
	for _, k := range runs {
		for p, pages := 0, (n+d.runs()[k].perPage-1)/d.runs()[k].perPage; p < pages; p++ {
			if k == 0 && mapped && d.allVisible(p) {
				continue
			}
			total++
			if hf.pool.Contains(PageID{d.runs()[k].file, p}) {
				resident++
			}
		}
	}
	return resident, total
}

// pageAt is the page of one run a scan fetched last and its frame address.
type pageAt struct {
	page int
	addr uint64
}

// newEdges starts a scan's per-run page memory, no page fetched yet.
func newEdges(n int) []pageAt {
	e := make([]pageAt, n)
	for j := range e {
		e[j].page = -1
	}
	return e
}

// Scanner iterates a heap file in row order, fetching each page of every run
// it reads once and streaming the slots off it — the sequential-scan access
// pattern whose L1D locality the paper identifies as the energy bottleneck's
// root cause. Slots invisible to the device's snapshot are skipped after a
// header check, so callers only ever see rows their snapshot may read. A
// header page the visibility map marks all-visible costs one load of the
// map's line and no header is read off it.
type Scanner struct {
	hf       *HeapFile
	runs     []int
	consults bool
	next     int
	edge     []pageAt
	slot     []uint64
}

// Scan starts a full-file sequential scan of the columns r names under the
// device's snapshot.
func (hf *HeapFile) Scan(r Reads) *Scanner {
	runs := hf.data.touched(r)
	return &Scanner{hf: hf, runs: runs, consults: hf.data.consults(r), edge: newEdges(len(runs)), slot: make([]uint64, len(runs))}
}

// Next returns the next visible row and its id, or ok=false at the end.
func (s *Scanner) Next() (value.Row, int, bool) {
	hf := s.hf
	d := hf.data
	for {
		row, hops, all, ok := d.row(s.next, hf.dev.Snap)
		if !ok {
			return nil, 0, false
		}
		id := s.next
		s.next++
		for j, k := range s.runs {
			pid := d.page(k, id)
			if j == 0 && all && s.consults {
				if pid.Page != s.edge[0].page {
					hf.dev.M.Hier.Load(hf.mapLine(pid.Page), true)
					s.edge[0] = pageAt{pid.Page, 0}
				}
				s.slot[0] = 0
				continue
			}
			// A page's edge address is zero where the map stood in for it.
			if pid.Page != s.edge[j].page || s.edge[j].addr == 0 {
				s.edge[j] = pageAt{pid.Page, hf.pool.frameAddr[hf.frame(k, pid, true, true)]}
			}
			s.slot[j] = d.slotAddr(k, s.edge[j].addr, id)
		}
		// Invisible slots cost the scan their tuple header.
		hf.streamSlot(s.runs, s.slot, row, hops)
		if row != nil {
			return row, id, true
		}
	}
}

// BatchScanner iterates a heap file a batch at a time: in each run it reads,
// each page is fetched once and each page's slot run is streamed with a
// single range load, so the batch touches the same pages and cache lines as
// the row-at-a-time Scanner while amortizing the per-call bookkeeping over
// the whole batch — the vectorized-scan access pattern. Slots invisible to
// the device's snapshot come back as nil holes; the vectorized scan drops
// them via its selection vector. Batches arrive in slot order, every scan:
// a heap longer than the last-level cache refills each time it is scanned
// again (DESIGN.md §11).
type BatchScanner struct {
	hf       *HeapFile
	runs     []int
	consults bool
	next     int
	edge     []pageAt
	at       At // where the last batch's first slot was streamed from
	buf      []value.Row
	vis      []bool // the batch's header pages the visibility map marks all-visible
}

// BatchScan starts a full-file sequential scan of the columns r names that
// yields up to max rows per batch.
func (hf *HeapFile) BatchScan(max int, r Reads) *BatchScanner {
	if max < 1 {
		max = 1
	}
	runs := hf.data.touched(r)
	return &BatchScanner{hf: hf, runs: runs, consults: hf.data.consults(r), edge: newEdges(len(runs)), buf: make([]value.Row, max)}
}

// At returns where the last batch's first slot was streamed from, in the
// frames that held its pages then. It is updated in place by every batch.
func (s *BatchScanner) At() *At { return &s.at }

// NextBatch returns the next run of rows (nil entries mark slots invisible
// to the snapshot) and the id of the first, or ok=false when every batch has
// been handed out. The returned slice is only valid until the following
// NextBatch call (the batch buffer is reused).
func (s *BatchScanner) NextBatch() ([]value.Row, int, bool) {
	hf := s.hf
	d := hf.data
	base := s.next
	var n, hops int
	n, hops, s.vis = d.rowSpan(base, s.buf, hf.dev.Snap, s.vis[:0])
	if n == 0 {
		return nil, 0, false
	}
	s.next = base + n
	h := hf.dev.M.Hier
	hf.dev.ChargeChain(hops)
	s.at.reset(d)
	for j, k := range s.runs {
		r := d.runs()[k]
		// The page this batch shares with the one before it, the previous
		// batch's last, is fetched once.
		edge := &s.edge[j]
		for id := base; id < base+n; {
			page, slot := id/r.perPage, id%r.perPage
			run := min(r.perPage-slot, base+n-id)
			if j == 0 && s.consults && s.vis[page-base/r.perPage] {
				// All-visible: the map's line stands in for the page's
				// fetch and its headers; the edge keeps a zero address.
				if page != edge.page {
					h.Load(hf.mapLine(page), true)
				}
				*edge = pageAt{page, 0}
				id += run
				continue
			}
			addr := edge.addr
			if page != edge.page || addr == 0 {
				addr = hf.pool.frameAddr[hf.frame(k, PageID{r.file, page}, true, true)]
			}
			*edge = pageAt{page, addr}
			if id == base {
				s.at.slot[k] = d.slotAddr(k, addr, id)
			}
			h.LoadRange(d.slotAddr(k, addr, id), uint64(run*r.width))
			id += run
		}
	}
	return s.buf[:n], base, true
}
