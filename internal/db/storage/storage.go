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

// PageSize returns the pool's page size.
func (bp *BufferPool) PageSize() int { return bp.pageSize }

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
	h := bp.dev.M.Hier
	if idx, ok := bp.pageTable[id]; ok {
		bp.Hits++
		bp.frameRef[idx] = true
		h.Load(bp.frameAddr[idx], dependent)
		return idx
	}
	bp.Misses++
	idx := bp.evict()
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
	h.Load(bp.frameAddr[idx], dependent)
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

// Flush drops every cached page, forcing subsequent fetches to disk (used
// by cold-run experiments).
func (bp *BufferPool) Flush() {
	bp.pageTable = make(map[PageID]int, bp.frames)
	for i := range bp.frameUsed {
		bp.frameUsed[i] = false
		bp.frameRef[i] = false
		bp.frameDirty[i] = false
	}
	bp.clockHand = 0
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
	mu       sync.RWMutex
	schema   *catalog.Schema
	slots    []*Version
	fileID   int
	rowWidth int
	perPage  int
	// TupleOverhead is the per-row header width (PostgreSQL's 24-byte
	// heap tuple header, InnoDB's record header, ...), an engine knob.
	TupleOverhead int

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

	// forwardScans and reverseScans count the batch scans every view has
	// started over this table, by the direction they took.
	forwardScans, reverseScans atomic.Uint64
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

// ScanCounts returns how many batch scans of the table have started front to
// back and back to front, over all its views.
func (d *TableData) ScanCounts() (forward, reverse uint64) {
	return d.forwardScans.Load(), d.reverseScans.Load()
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
// version is visible, hops counts chain hops past the head, ok is false
// only when id is out of range. Returned rows are immutable payloads, so
// they stay valid after the lock is released.
func (d *TableData) row(id int, snap txn.Snap) (row value.Row, hops int, ok bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if id < 0 || id >= len(d.slots) {
		return nil, 0, false
	}
	row, hops = resolve(d.slots[id], snap)
	return row, hops, true
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
// number of slots examined and the total chain hops taken.
func (d *TableData) rowSpan(lo int, dst []value.Row, snap txn.Snap) (n, hops int) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if lo < 0 || lo >= len(d.slots) {
		return 0, 0
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
	return n, hops
}

var nextFileID atomic.Int64

// HeapFile stores fixed-width rows in slotted pages behind a buffer pool.
// Row *contents* live on the Go side (the shared TableData); the page/slot
// geometry determines the simulated addresses touched when rows are read.
// A HeapFile is a per-worker view: the data is shared, the device and pool
// (and therefore every simulated access) belong to this view alone.
type HeapFile struct {
	dev  *Device
	pool *BufferPool
	data *TableData

	// reverse is the direction this view's next batch scan takes if the heap
	// is longer than the last-level cache (see BatchScanner). It belongs to
	// the view because the caches it speaks of are the view's machine's.
	reverse bool
	// frames is ReadRows' scratch: the frame pass 1 resolved for each id.
	frames []int
}

// NewHeapFile creates an empty heap file on the pool, with fresh shared
// table data.
func NewHeapFile(dev *Device, pool *BufferPool, schema *catalog.Schema, tupleOverhead int) *HeapFile {
	width := schema.RowWidth() + tupleOverhead
	perPage := (pool.pageSize - pageHeaderBytes) / width
	if perPage < 1 {
		perPage = 1
	}
	data := &TableData{
		schema:        schema,
		fileID:        int(nextFileID.Add(1)),
		rowWidth:      width,
		perPage:       perPage,
		TupleOverhead: tupleOverhead,
	}
	return &HeapFile{dev: dev, pool: pool, data: data}
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

// PageCount returns the number of pages the slots occupy.
func (hf *HeapFile) PageCount() int {
	n := hf.data.rowCount()
	if n == 0 {
		return 0
	}
	return (n + hf.data.perPage - 1) / hf.data.perPage
}

// RowsPerPage returns the slot count per page.
func (hf *HeapFile) RowsPerPage() int { return hf.data.perPage }

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
	id := len(d.slots)
	d.slots = append(d.slots, v)
	d.mu.Unlock()
	d.changes.Add(1)
	hf.storeSlot(id, true, uint64(d.rowWidth))
	return id
}

// storeSlot simulates writing the first n bytes of slot id's row: the fetch
// of its page (sequential rides readahead) and a store per line. It returns
// the page, for the callers that mark it dirty.
func (hf *HeapFile) storeSlot(id int, sequential bool, n uint64) PageID {
	d := hf.data
	pid := PageID{d.fileID, id / d.perPage}
	hf.dev.M.Hier.StoreRange(d.rowAddr(hf.pool.Fetch(pid, sequential), id), n)
	return pid
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
	id := len(d.slots)
	d.slots = append(d.slots, v)
	d.mu.Unlock()
	d.changes.Add(1)
	t.Log(&insertRecord{d: d, id: id, v: v})
	hf.pool.MarkDirty(hf.storeSlot(id, true, uint64(d.rowWidth)))
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
	for len(d.slots) <= id {
		d.slots = append(d.slots, tombstone)
	}
	d.slots[id] = v
	d.mu.Unlock()
	d.changes.Add(1)
	t.Log(&insertRecord{d: d, id: id, v: v})
	hf.pool.MarkDirty(hf.storeSlot(id, true, uint64(d.rowWidth)))
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
	nv := newVersion(t.ID(), row, head)
	head.end.Store(t.ID())
	d.slots[id] = nv
	d.mu.Unlock()
	d.changes.Add(1)
	t.Log(&updateRecord{d: d, id: id, old: head, neu: nv})
	hf.dev.ChargeChain(walked)
	if cut > 0 {
		d.pruned.Add(uint64(cut))
		hf.dev.versions(1, true)
	}
	hf.pool.MarkDirty(hf.storeSlot(id, false, uint64(d.rowWidth)))
	return d.rowWidth, nil
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
	d.mu.Unlock()
	d.changes.Add(1)
	t.Log(&deleteRecord{v: head})
	hf.pool.MarkDirty(hf.storeSlot(id, false, memsim.LineSize))
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
		hf.pool.MarkDirty(hf.storeSlot(r.ID, false, memsim.LineSize))
	}
	return out
}

// Pool returns the backing buffer pool.
func (hf *HeapFile) Pool() *BufferPool { return hf.pool }

// ReadRow reads row id in scan order under the device's ambient snapshot:
// the page fetch rides readahead and the row streams (streamRow). visible is
// false (with a nil row) when no version of the slot is visible. A read of a
// row an index entry named is FetchRow.
func (hf *HeapFile) ReadRow(id int) (row value.Row, visible bool, err error) {
	d := hf.data
	row, hops, ok := d.row(id, hf.dev.Snap)
	if !ok {
		return nil, false, fmt.Errorf("storage: row %d out of range [0, %d)", id, d.rowCount())
	}
	hf.streamRow(d.rowAddr(hf.pool.Fetch(PageID{d.fileID, id / d.perPage}, true), id), row, hops)
	return row, row != nil, nil
}

// streamRow charges a slot read in scan order: its version-chain hops, then
// the row's lines as one streaming range, or only the tuple header when no
// version is visible.
func (hf *HeapFile) streamRow(rowAddr uint64, row value.Row, hops int) {
	h := hf.dev.M.Hier
	hf.dev.ChargeChain(hops)
	if row == nil {
		h.Load(rowAddr, false)
		return
	}
	h.LoadRange(rowAddr, uint64(hf.data.rowWidth))
}

// FetchRow reads row id, named by an index entry, under the device's ambient
// snapshot: a ReadRows of one id whose page-header load and first-line load
// are dependent, since a lone row's address waits on the entry that named it
// (a pointer chase). visible is false (with a nil row) when no version of the
// slot is visible — index probes skip such hits.
func (hf *HeapFile) FetchRow(id int) (row value.Row, visible bool, err error) {
	ids, dst := [1]int{id}, [1]value.Row{}
	if _, err := hf.readRows(ids[:], dst[:], true); err != nil {
		return nil, false, err
	}
	return dst[0], dst[0] != nil, nil
}

// ReadRows reads the rows ids name under the device's ambient snapshot into
// dst (len(dst) >= len(ids); dst[i] is nil when no version of ids[i] is
// visible) on the schedule a batch engine can follow: slots are fixed-width,
// so a row's address follows from its id and its page's frame, never from a
// header's contents, and no id's loads wait on another's. It returns the
// simulated address it read the first id's row at. Nothing is simulated when
// an id is out of range.
func (hf *HeapFile) ReadRows(ids []int, dst []value.Row) (first uint64, err error) {
	return hf.readRows(ids, dst, false)
}

// readRows is the one issue path of a fetched row, grouped (ReadRows) or, for
// a batch of one, dependent (FetchRow). Pass 1 resolves every id's page
// through the pool in id order (a miss keeps its disk charge and page copy)
// and issues the page-header loads, back to back. Pass 2 charges each row's
// version-chain hops, which stay dependent, then issues the row's first line
// and streams the rest; a slot no version of which is visible costs its
// first line alone. Pass 1 may have evicted a frame an earlier id resolved;
// pass 2 then fetches that page again, dependent, rather than load from a
// frame that holds another page.
func (hf *HeapFile) readRows(ids []int, dst []value.Row, dependent bool) (first uint64, err error) {
	d := hf.data
	n := d.rowCount()
	for _, id := range ids {
		if id < 0 || id >= n {
			return 0, fmt.Errorf("storage: row %d out of range [0, %d)", id, n)
		}
	}
	if cap(hf.frames) < len(ids) {
		hf.frames = make([]int, len(ids))
	}
	frames := hf.frames[:len(ids)]
	for i, id := range ids {
		frames[i] = hf.pool.fetch(PageID{d.fileID, id / d.perPage}, false, dependent)
	}
	h := hf.dev.M.Hier
	for i, id := range ids {
		pid := PageID{d.fileID, id / d.perPage}
		if !hf.pool.holds(frames[i], pid) {
			frames[i] = hf.pool.fetch(pid, false, true)
		}
		row, hops, _ := d.row(id, hf.dev.Snap)
		dst[i] = row
		rowAddr := d.rowAddr(hf.pool.frameAddr[frames[i]], id)
		if i == 0 {
			first = rowAddr
		}
		hf.dev.ChargeChain(hops)
		h.Load(rowAddr, dependent)
		if row != nil && d.rowWidth > memsim.LineSize {
			h.LoadRange(rowAddr+memsim.LineSize, uint64(d.rowWidth-memsim.LineSize))
		}
	}
	return first, nil
}

// rowAddr is the simulated address of slot id's row in a frame at
// frameAddr that holds its page.
func (d *TableData) rowAddr(frameAddr uint64, id int) uint64 {
	return frameAddr + uint64(pageHeaderBytes+id%d.perPage*d.rowWidth)
}

// Machine exposes the device machine (operators issue compute through it).
func (hf *HeapFile) Machine() *cpusim.Machine { return hf.dev.M }

// ResidentPages reports how many of the file's pages are currently resident
// in this view's buffer pool, and the total page count. No accesses are
// simulated; the cost model uses this to predict buffer hit behaviour.
func (hf *HeapFile) ResidentPages() (resident, total int) {
	total = hf.PageCount()
	for p := 0; p < total; p++ {
		if hf.pool.Contains(PageID{hf.data.fileID, p}) {
			resident++
		}
	}
	return resident, total
}

// Scanner iterates a heap file in row order, fetching each page once and
// streaming the rows off it — the sequential-scan access pattern whose L1D
// locality the paper identifies as the energy bottleneck's root cause.
// Slots invisible to the device's snapshot are skipped after a header
// check, so callers only ever see rows their snapshot may read.
type Scanner struct {
	hf       *HeapFile
	next     int
	curPage  int
	pageAddr uint64
}

// Scan starts a full-file sequential scan under the device's snapshot.
func (hf *HeapFile) Scan() *Scanner {
	return &Scanner{hf: hf, curPage: -1}
}

// Next returns the next visible row and its id, or ok=false at the end.
func (s *Scanner) Next() (value.Row, int, bool) {
	hf := s.hf
	d := hf.data
	for {
		row, hops, ok := d.row(s.next, hf.dev.Snap)
		if !ok {
			return nil, 0, false
		}
		id := s.next
		s.next++
		if page := id / d.perPage; page != s.curPage {
			s.pageAddr = hf.pool.Fetch(PageID{d.fileID, page}, true)
			s.curPage = page
		}
		// Invisible slots cost the scan their tuple header.
		hf.streamRow(d.rowAddr(s.pageAddr, id), row, hops)
		if row != nil {
			return row, id, true
		}
	}
}

// BatchScanner iterates a heap file a batch at a time: each page is fetched
// once and each page's row run is streamed with a single range load, so the
// batch touches the same pages and cache lines as the row-at-a-time Scanner
// while amortizing the per-call bookkeeping over the whole batch — the
// vectorized-scan access pattern. Slots invisible to the device's snapshot
// come back as nil holes; the vectorized scan drops them via its selection
// vector.
//
// Batches arrive in slot order unless the heap is longer than the device's
// last-level cache. Such a heap, scanned front to back again, finds none of
// its lines: under LRU each was evicted by the scan's own later lines. So a
// scan of one starts at the end where the view's previous batch scan finished
// (HeapFile.reverse) and finds that scan's tail still cached. Only the order
// of the batches turns around — the same batches, each one's rows, pages and
// lines ascending, so the per-page streamer still trains and a batch's row
// ids stay base+i. The view's direction turns when a scan hands out its last
// batch: a scan abandoned early (LIMIT, a cancelled statement) walked off
// nothing and leaves it alone.
type BatchScanner struct {
	hf       *HeapFile
	next     int
	curPage  int
	pageAddr uint64
	rowAt    uint64 // where the last batch's first row was streamed from
	buf      []value.Row

	started bool
	reverse bool
	total   int // slots when the scan began, if the heap alternates; else 0
	left    int // reverse: batches not handed out yet
}

// BatchScan starts a full-file sequential scan that yields up to max rows
// per batch.
func (hf *HeapFile) BatchScan(max int) *BatchScanner {
	if max < 1 {
		max = 1
	}
	return &BatchScanner{hf: hf, curPage: -1, buf: make([]value.Row, max)}
}

// Alternates reports whether consecutive batch scans of this heap take turns
// in direction: its pages do not fit the device's last-level cache.
func (hf *HeapFile) Alternates() bool {
	l3 := hf.dev.M.Hier.Config().L3
	return l3.Present() && hf.PageCount()*hf.pool.pageSize > l3.SizeBytes
}

// start fixes the scan's direction, at its first batch rather than when it
// was opened: of two scans one statement opens together over one heap, the
// second to run starts where the first finished.
func (s *BatchScanner) start() {
	hf := s.hf
	s.started = true
	if hf.Alternates() {
		s.reverse = hf.reverse
		s.total = hf.RowCount()
		if s.reverse {
			s.left = (s.total + len(s.buf) - 1) / len(s.buf)
		}
	}
	if s.reverse {
		hf.data.reverseScans.Add(1)
	} else {
		hf.data.forwardScans.Add(1)
	}
}

// Reverse reports whether the scan hands its batches out back to front. It
// is settled by the first NextBatch.
func (s *BatchScanner) Reverse() bool { return s.reverse }

// RowAddr returns the simulated address the last batch's first row was
// streamed from, in the frame that held its page then.
func (s *BatchScanner) RowAddr() uint64 { return s.rowAt }

// NextBatch returns the next run of rows (nil entries mark slots invisible
// to the snapshot) and the id of the first, or ok=false when every batch has
// been handed out. The returned slice is only valid until the following
// NextBatch call (the batch buffer is reused).
func (s *BatchScanner) NextBatch() ([]value.Row, int, bool) {
	hf := s.hf
	d := hf.data
	if !s.started {
		s.start()
	}
	base, dst := s.next, s.buf
	if s.reverse {
		if s.left == 0 {
			return nil, 0, false
		}
		s.left--
		base = s.left * len(s.buf)
		if rem := s.total - base; rem < len(dst) {
			dst = dst[:rem]
		}
	}
	n, hops := d.rowSpan(base, dst, hf.dev.Snap)
	if n == 0 {
		return nil, 0, false
	}
	s.next = base + n
	if s.total > 0 && (s.reverse && s.left == 0 || !s.reverse && s.next >= s.total) {
		hf.reverse = !s.reverse
	}
	h := hf.dev.M.Hier
	hf.dev.ChargeChain(hops)
	// The page this batch shares with the one after it is fetched once: the
	// last page of a batch walking up, the first of one walking down.
	edgePage, edgeAddr := s.curPage, s.pageAddr
	for id := base; id < base+n; {
		page, slot := id/d.perPage, id%d.perPage
		addr := s.pageAddr
		if page != s.curPage {
			addr = hf.pool.Fetch(PageID{d.fileID, page}, true)
		}
		if !s.reverse || id == base {
			edgePage, edgeAddr = page, addr
		}
		if id == base {
			s.rowAt = d.rowAddr(addr, id)
		}
		run := d.perPage - slot
		if rem := base + n - id; run > rem {
			run = rem
		}
		h.LoadRange(d.rowAddr(addr, id), uint64(run*d.rowWidth))
		id += run
	}
	s.curPage, s.pageAddr = edgePage, edgeAddr
	return dst[:n], base, true
}
