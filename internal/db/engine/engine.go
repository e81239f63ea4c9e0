// Package engine assembles the storage and executor layers into the three
// database-system profiles the paper benchmarks: PostgreSQL 9.5, SQLite
// 3.14 and MySQL 8.0. One codebase implements all three; a profile sets the
// distinguishing behaviours the paper's Section 3 analysis attributes the
// energy differences to:
//
//   - SQLite: lean bytecode VM (low per-tuple overhead), sequential-scan
//     bias, index nested-loop joins only — the highest L1D energy share.
//   - PostgreSQL: heap tables + shared buffers, hash joins and sorts under
//     work_mem, moderate executor overhead.
//   - MySQL/InnoDB: clustered primary index, heavier per-row bookkeeping —
//     the highest E_other share.
//
// Knob settings follow Table 4, scaled 1:10 alongside the dataset size
// classes (see DESIGN.md).
//
// # Concurrency and transactions
//
// A database instance is split in two. Shared is the table store — schemas,
// row data (storage.TableData), index structure (btree shared halves), the
// transaction manager and the write-ahead log — and is what all workers see.
// Engine is a per-worker view over one Shared: it binds the store to one
// cpusim.Machine via a private device, buffer pool and executor context, so
// every simulated load, store and instruction cost a statement issues lands
// on that worker's PMU counters alone — the paper's Eq. 1 attribution
// depends on those counters advancing only for the statement being measured.
//
// Statements run under MVCC snapshot isolation, not a statement-scoped
// store lock. Readers resolve versioned tuple chains against the snapshot
// bound to their device (Device.Snap): autocommit statements take a fresh
// snapshot per statement (BeginRead), explicit transactions keep one
// snapshot from Begin to Commit/Rollback (repeatable reads). Writers never
// block readers; write-write conflicts abort the second writer
// (first-updater-wins, txn.ErrWriteConflict).
//
// Every snapshot a view reads under is registered with the transaction
// manager, which is what lets writers reclaim what no snapshot can reach
// (package storage, "Reclamation"): a transaction's by Begin, a view's read
// snapshot by Unbind/BeginRead, which swap the view's one registration for a
// fresh one. Bind drops it (the transaction's covers the view) and EndRead
// drops it when the statement is over, so an idle view pins nothing.
//
// Shared.mu is catalog-scoped only: it guards the tables map (CreateTable,
// CreateIndex, Table lookups), never statement execution. Lock order across
// the stack is engine (Shared.mu) → txn (the Manager's commit and registry
// mutexes) → storage (TableData.mu) → btree (tree shared mu); no layer calls
// back up.
//
// An individual Engine is still NOT goroutine-safe: one worker owns it, and
// all access to it (plan building, execution, transaction binding,
// counter/energy snapshots) must stay on that worker's goroutine. Snapshot
// APIs (memsim.Hierarchy.Counters, rapl sessions) return
// value copies, so snapshots taken on the owner goroutine may be diffed and
// read anywhere afterwards.
//
// DDL (CreateTable, CreateIndex, PlaceTopLevels) is assumed not to run
// concurrently with DML on the affected table: the benchmark harnesses and
// the server build their catalogs before serving statements.
package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"energydb/internal/cpusim"
	"energydb/internal/db/btree"
	"energydb/internal/db/catalog"
	"energydb/internal/db/exec"
	"energydb/internal/db/storage"
	"energydb/internal/db/txn"
	"energydb/internal/db/value"
)

// Kind selects a database-system profile.
type Kind int

// Database systems under test.
const (
	PostgreSQL Kind = iota
	SQLite
	MySQL
)

// String names the system as the paper abbreviates it.
func (k Kind) String() string {
	switch k {
	case PostgreSQL:
		return "PostgreSQL"
	case SQLite:
		return "SQLite"
	case MySQL:
		return "MySQL"
	default:
		return "unknown"
	}
}

// Kinds lists all profiles in the paper's figure order.
func Kinds() []Kind { return []Kind{PostgreSQL, SQLite, MySQL} }

// ParseKind resolves a profile name as flags and handshakes spell it.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(s) {
	case "postgresql", "postgres", "pg":
		return PostgreSQL, nil
	case "sqlite":
		return SQLite, nil
	case "mysql":
		return MySQL, nil
	}
	return 0, fmt.Errorf("unknown engine %q (want postgresql, sqlite or mysql)", s)
}

// Setting selects a Table 4 knob row.
type Setting int

// Knob settings.
const (
	SettingSmall Setting = iota
	SettingBaseline
	SettingLarge
)

// String names the setting.
func (s Setting) String() string {
	switch s {
	case SettingSmall:
		return "small"
	case SettingBaseline:
		return "baseline"
	case SettingLarge:
		return "large"
	default:
		return "unknown"
	}
}

// Settings lists all knob settings.
func Settings() []Setting { return []Setting{SettingSmall, SettingBaseline, SettingLarge} }

// ParseSetting resolves a Table 4 knob setting name.
func ParseSetting(s string) (Setting, error) {
	for _, v := range Settings() {
		if strings.EqualFold(v.String(), s) {
			return v, nil
		}
	}
	return 0, fmt.Errorf("unknown setting %q (want small, baseline or large)", s)
}

// Knobs are the resolved engine parameters (Table 4 rows, scaled 1:10 with
// the data). Table 4's work_mem has no field: sorts and hash tables never
// spill here, so it would change nothing.
type Knobs struct {
	// BufferBytes sizes the buffer pool: shared_buffers (PostgreSQL),
	// cache_size × page_size (SQLite), innodb_buffer_pool_size (MySQL).
	BufferBytes int
	// PageBytes is the page size: 8KB for PostgreSQL, page_size for
	// SQLite, innodb_page_size for MySQL.
	PageBytes int
	// TupleOverhead is the per-row on-page header width.
	TupleOverhead int
	// DisableVectorExec forces the planner to keep every operator on the
	// row-at-a-time path, ignoring the vectorized implementations (used by
	// the X7 experiment to isolate the vectorization effect).
	DisableVectorExec bool
}

// scale is the knob scale-down matching the dataset scale-down.
const scale = 10

// KnobsFor resolves Table 4 for a profile and setting.
func KnobsFor(kind Kind, setting Setting) Knobs {
	mb := func(n int) int { return n << 20 / scale }
	var k Knobs
	switch kind {
	case PostgreSQL:
		k.PageBytes = 8 << 10
		k.TupleOverhead = 24
		switch setting {
		case SettingSmall:
			k.BufferBytes = mb(8)
		case SettingBaseline:
			k.BufferBytes = mb(128)
		default:
			k.BufferBytes = mb(1024)
		}
	case SQLite:
		k.TupleOverhead = 6
		switch setting {
		case SettingSmall:
			k.PageBytes = 4 << 10
			k.BufferBytes = 2000 * k.PageBytes / scale
		case SettingBaseline:
			k.PageBytes = 8 << 10
			k.BufferBytes = 16000 * k.PageBytes / scale
		default:
			k.PageBytes = 16 << 10
			k.BufferBytes = 65000 * k.PageBytes / scale
		}
	case MySQL:
		k.TupleOverhead = 18
		switch setting {
		case SettingSmall:
			k.PageBytes = 4 << 10
			k.BufferBytes = mb(8)
		case SettingBaseline:
			k.PageBytes = 8 << 10
			k.BufferBytes = mb(128)
		default:
			k.PageBytes = 16 << 10
			k.BufferBytes = mb(1024)
		}
	}
	return k
}

// costFor returns the executor cost model of a profile. The numbers encode
// the Section 3.3 analysis: SQLite's VM is lean and scan-friendly;
// PostgreSQL and MySQL add per-tuple bookkeeping ("extra calculations" that
// "hinder hardware optimization"), lowering the L1D energy share and
// raising E_other.
func costFor(kind Kind) exec.CostModel {
	switch kind {
	case SQLite:
		// Lean bytecode VM: fewer instructions per tuple, but nearly all
		// its memory traffic hits the hot register file and cursor — the
		// highest L1D energy share of the three systems.
		return exec.CostModel{
			TupleInstr: 260, TupleLoads: 230, TupleStores: 115,
			EvalInstr: 14, EvalLoads: 10, EvalStores: 6,
		}
	case PostgreSQL:
		// Heavier executor (slot deforming, memory contexts, expression
		// trees): more plain instructions per tuple, so a larger E_other.
		return exec.CostModel{
			TupleInstr: 560, TupleLoads: 250, TupleStores: 95,
			EvalInstr: 30, EvalLoads: 12, EvalStores: 5,
		}
	default: // MySQL
		// The heaviest per-row bookkeeping (InnoDB record formats, latch
		// protocol): the highest E_other share of the three.
		return exec.CostModel{
			TupleInstr: 950, TupleLoads: 265, TupleStores: 95,
			EvalInstr: 38, EvalLoads: 13, EvalStores: 6,
		}
	}
}

// Table is a stored table with optional secondary indexes.
type Table struct {
	Name    string
	File    *storage.HeapFile
	Indexes map[string]*btree.Tree
	schema  *catalog.Schema
}

// Schema returns the table schema.
func (t *Table) Schema() *catalog.Schema { return t.schema }

// Index returns the index on the named column, if any.
func (t *Table) Index(col string) *btree.Tree { return t.Indexes[col] }

// sharedTable is the cross-worker half of a table: schema, shared row data
// and the shared index structures (stored as trees bound to the creating
// worker's hierarchy; other workers re-view them).
type sharedTable struct {
	name    string
	schema  *catalog.Schema
	data    *storage.TableData
	indexes map[string]*btree.Tree

	// statsMu guards the cached optimizer statistics below. Planning
	// happens on many workers at once, and the first planner to need
	// statistics computes them for everyone.
	statsMu sync.Mutex
	stats   *catalog.TableStats
	// analyzes counts the ANALYZE passes the cache above has cost.
	analyzes atomic.Uint64
}

// Shared is the table store of one database instance: everything that is
// common across workers — tables, the transaction manager and the
// write-ahead log. Engines are per-worker views created with View. mu is
// catalog-scoped (it guards the tables map, never statement execution);
// statement isolation comes from MVCC snapshots, per the package
// documentation.
type Shared struct {
	Kind  Kind
	Knobs Knobs

	// Txns hands out snapshots and transaction IDs and drives
	// commit/abort of the version stamps.
	Txns *txn.Manager
	// Wal is the instance-wide write-ahead log. All sessions append to
	// the one log (as real engines do); each append/fsync is charged to
	// the calling worker's device so per-session energy attribution
	// stays exact.
	Wal *storage.WAL

	mu     sync.RWMutex
	tables map[string]*sharedTable
}

// NewShared creates an empty table store for the given profile and setting.
func NewShared(kind Kind, setting Setting) *Shared {
	return &Shared{
		Kind:   kind,
		Knobs:  KnobsFor(kind, setting),
		Txns:   txn.NewManager(),
		Wal:    storage.NewWAL(),
		tables: make(map[string]*sharedTable),
	}
}

// StoreStats is what a store's writers have left behind, have reclaimed and
// still retain: the state of the machinery that keeps a long-running store
// bounded, for gauges.
type StoreStats struct {
	// OldestSnapshotLag is how many commits the oldest registered snapshot
	// is behind the horizon: what holds reclamation back.
	OldestSnapshotLag uint64
	// VersionsPruned, DeadRowsReaped and DeadRowsPending sum the tables'
	// storage.ReclaimStats.
	VersionsPruned  uint64
	DeadRowsReaped  uint64
	DeadRowsPending int
	// WALRetained is the number of records the log holds; WALCheckpoints
	// how often it has been recycled.
	WALRetained    int
	WALCheckpoints uint64
	// Analyzes counts the ANALYZE passes per table.
	Analyzes map[string]uint64
	// HeapScansForward and HeapScansReverse count the batch scans started
	// over the store's heaps by direction, all views together (storage.
	// TableData.ScanCounts): a reverse scan is a vector scan of a heap longer
	// than the last-level cache starting where the one before it ended.
	HeapScansForward uint64
	HeapScansReverse uint64
}

// Stats reads the store's reclamation state (each figure atomically; the set
// is advisory).
func (sh *Shared) Stats() StoreStats {
	oldest := sh.Txns.Oldest() // before the horizon, which only moves on
	st := StoreStats{
		OldestSnapshotLag: sh.Txns.Horizon() - oldest,
		WALRetained:       sh.Wal.Retained(),
		WALCheckpoints:    sh.Wal.Checkpoints.Load(),
		Analyzes:          make(map[string]uint64),
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for name, t := range sh.tables {
		r := t.data.Reclaimed()
		st.VersionsPruned += r.VersionsPruned
		st.DeadRowsReaped += r.DeadRowsReaped
		st.DeadRowsPending += r.DeadRowsPending
		st.Analyzes[name] = t.analyzes.Load()
		f, rev := t.data.ScanCounts()
		st.HeapScansForward += f
		st.HeapScansReverse += rev
	}
	return st
}

// TableCount returns the number of tables in the store.
func (sh *Shared) TableCount() int {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.tables)
}

// Engine is one per-worker view of a database instance: the shared table
// store bound to one simulated machine through a private device, buffer pool
// and executor context.
type Engine struct {
	Kind  Kind
	Knobs Knobs
	M     *cpusim.Machine
	Dev   *storage.Device
	Pool  *storage.BufferPool
	Ctx   *exec.Ctx

	shared *Shared
	tables map[string]*Table // per-view table cache

	// tx is the explicit transaction bound to this worker, nil in
	// autocommit mode. While bound, the device snapshot is pinned to the
	// transaction's snapshot (repeatable reads + read-own-writes).
	tx *txn.Txn
	// reading says Dev.Snap is a read snapshot this view has registered
	// with the transaction manager and not yet released.
	reading bool
}

// arenaBytes is the per-engine simulated address space (buffers, indexes,
// hash tables, scratch).
const arenaBytes = 3 << 30

// New creates an engine of the given profile at the given knob setting, with
// a store of its own. Additional workers attach to the same store with
// Shared().View(m).
func New(kind Kind, m *cpusim.Machine, setting Setting) *Engine {
	return NewShared(kind, setting).View(m)
}

// View creates an engine over this store bound to machine m. The view owns a
// fresh device, buffer pool and executor context, so its simulated accesses
// drive m alone; table data, index structure, transactions and the log stay
// shared.
func (sh *Shared) View(m *cpusim.Machine) *Engine {
	dev := storage.NewDevice(m, arenaBytes)
	pool := storage.NewBufferPool(dev, sh.Knobs.BufferBytes, sh.Knobs.PageBytes)
	return &Engine{
		Kind:   sh.Kind,
		Knobs:  sh.Knobs,
		M:      m,
		Dev:    dev,
		Pool:   pool,
		Ctx:    exec.NewCtx(m, dev.Arena, costFor(sh.Kind)),
		shared: sh,
		tables: make(map[string]*Table),
	}
}

// Shared returns the table store behind this engine.
func (e *Engine) Shared() *Shared { return e.shared }

// Begin opens an explicit transaction and binds it to this worker: until
// Commit or Rollback, every statement run through the engine reads the
// transaction's snapshot and writes under its ID.
func (e *Engine) Begin() *txn.Txn {
	t := e.shared.Txns.Begin()
	e.Bind(t)
	return t
}

// Bind pins the worker to an existing transaction (the server re-binds a
// session's transaction to its worker on every statement). The view's own
// read registration is released: the transaction's covers what it reads.
func (e *Engine) Bind(t *txn.Txn) {
	e.EndRead()
	e.tx = t
	e.Dev.Snap = t.Snap()
}

// Unbind returns the worker to autocommit mode with a fresh read snapshot,
// registered until the next Bind, Unbind, BeginRead or EndRead.
func (e *Engine) Unbind() {
	e.EndRead()
	e.tx = nil
	e.Dev.Snap = e.shared.Txns.Pin()
	e.reading = true
}

// EndRead releases the view's read snapshot registration, if it holds one:
// the statement that read under it is over. Reads through the view must be
// preceded by a new BeginRead, Unbind or Bind.
func (e *Engine) EndRead() {
	if e.reading {
		e.shared.Txns.Unpin(e.Dev.Snap)
		e.reading = false
	}
}

// Txn returns the transaction bound to this worker, nil in autocommit mode.
func (e *Engine) Txn() *txn.Txn { return e.tx }

// BeginRead establishes the snapshot for one read statement: autocommit
// statements see everything committed so far; inside an explicit
// transaction the snapshot stays pinned (repeatable reads). Call it before
// planning/running each statement.
func (e *Engine) BeginRead() {
	if e.tx == nil {
		e.Unbind()
	}
}

// Commit makes t's writes durable and visible: the WAL commit record is
// appended and fsynced (group commit) on this worker's device, then the
// version stamps publish — each stamped version charged to this worker via
// Device.ChargeCommit, the mirror of Rollback's undo walk. Read-only
// transactions skip the log and the stamping entirely. A commit that finds
// the log a checkpoint interval past the last checkpoint takes the next one,
// on this worker's device like the rest of the commit.
func (e *Engine) Commit(t *txn.Txn) error {
	n := t.Writes()
	if n > 0 {
		e.shared.Wal.Commit(e.Dev, t.ID())
		e.Dev.ChargeCommit(n)
	}
	_, err := e.shared.Txns.Commit(t)
	e.Unbind()
	if n > 0 && e.shared.Wal.CheckpointDue() {
		e.Checkpoint()
	}
	return err
}

// Rollback aborts t, unwinding its version-chain writes in reverse order.
// The undo walk and the WAL abort record are charged to this worker, so
// throwing work away costs energy in proportion to the work.
func (e *Engine) Rollback(t *txn.Txn) error {
	n := t.Writes()
	err := e.shared.Txns.Abort(t)
	if n > 0 {
		e.Dev.ChargeUndo(n)
		e.shared.Wal.Abort(e.Dev, t.ID())
	}
	e.Unbind()
	return err
}

// CreateTable registers a table, taking the catalog lock. MySQL's profile
// organizes rows under the clustered primary index; the others use plain
// heap files (SQLite's B-tree tables scan sequentially in rowid order,
// which the heap file reproduces).
func (e *Engine) CreateTable(name string, schema *catalog.Schema) *Table {
	sh := e.shared
	sh.mu.Lock()
	defer sh.mu.Unlock()
	file := storage.NewHeapFile(e.Dev, e.Pool, schema, e.Knobs.TupleOverhead)
	sh.tables[name] = &sharedTable{
		name:    name,
		schema:  schema,
		data:    file.Data(),
		indexes: make(map[string]*btree.Tree),
	}
	t := &Table{
		Name:    name,
		File:    file,
		Indexes: make(map[string]*btree.Tree),
		schema:  schema,
	}
	e.tables[name] = t
	return t
}

// viewTable builds this engine's view of a shared table.
func (e *Engine) viewTable(st *sharedTable) *Table {
	t := &Table{
		Name:    st.name,
		File:    st.data.View(e.Dev, e.Pool),
		Indexes: make(map[string]*btree.Tree, len(st.indexes)),
		schema:  st.schema,
	}
	for col, tree := range st.indexes {
		t.Indexes[col] = tree.View(e.M.Hier)
	}
	return t
}

// Table fetches this engine's view of a table by name, building it on first
// use (and rebuilding when indexes were added through another view).
func (e *Engine) Table(name string) (*Table, error) {
	sh := e.shared
	sh.mu.RLock()
	st, ok := sh.tables[name]
	var nIdx int
	if ok {
		nIdx = len(st.indexes)
	}
	sh.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("engine: no table %q", name)
	}
	t, ok := e.tables[name]
	if !ok || len(t.Indexes) != nIdx {
		t = e.viewTable(st)
		e.tables[name] = t
	}
	return t, nil
}

// MustTable fetches a statically-known table.
func (e *Engine) MustTable(name string) *Table {
	t, err := e.Table(name)
	if err != nil {
		panic(err)
	}
	return t
}

// Tables returns the number of tables in the store.
func (e *Engine) Tables() int { return e.shared.TableCount() }

// Insert bulk-loads a row outside any transaction (visible to every
// snapshot, no logging) — the TPC-H loader and test-fixture path. The
// storage and btree layers carry their own locks, so concurrent readers
// are safe; transactional inserts go through InsertTxn.
func (e *Engine) Insert(t *Table, row value.Row) {
	id := t.File.Append(row)
	for col, idx := range t.Indexes {
		ci := t.schema.MustColIndex(col)
		idx.Insert(row[ci], id)
	}
}

// InsertTxn appends a row under transaction tx: the new version is
// invisible to other snapshots until commit, and the insert is logged for
// replay. Index entries are published immediately (as in PostgreSQL);
// readers filter them through the heap visibility check.
func (e *Engine) InsertTxn(tx *txn.Txn, t *Table, row value.Row) int {
	e.Bind(tx)
	id := t.File.InsertTxn(tx, row)
	e.shared.Wal.Append(e.Dev, storage.LogRecord{
		Kind: storage.RecInsert, Txn: tx.ID(), Table: t.Name, Row: id, Data: row.Clone(),
	}, t.schema.RowWidth())
	for col, idx := range t.Indexes {
		ci := t.schema.MustColIndex(col)
		idx.Insert(row[ci], id)
	}
	return id
}

// CreateIndex builds a secondary index on one column over the latest
// committed data, taking the catalog lock for the registration. It must not
// run concurrently with DML on the table (see the package documentation).
func (e *Engine) CreateIndex(t *Table, col string) *btree.Tree {
	ci := t.schema.MustColIndex(col)
	tree := btree.New(e.M.Hier, e.Dev.Arena, e.Knobs.PageBytes)
	prev := e.Dev.Snap
	e.Dev.Snap = txn.Latest()
	for i, n := 0, t.File.RowCount(); i < n; i++ {
		row, visible, err := t.File.ReadRow(i)
		if err != nil {
			e.Dev.Snap = prev
			panic(err)
		}
		if !visible {
			continue
		}
		tree.Insert(row[ci], i)
	}
	e.Dev.Snap = prev
	sh := e.shared
	sh.mu.Lock()
	t.Indexes[col] = tree
	if st, ok := sh.tables[t.Name]; ok {
		st.indexes[col] = tree
	}
	sh.mu.Unlock()
	return tree
}

// Run establishes the statement snapshot and drains a plan with result
// display disabled (the paper's measurement methodology), returning the row
// count.
func (e *Engine) Run(plan exec.Operator) (int, error) {
	e.BeginRead()
	return exec.Drain(plan)
}

// JournalMode selects the engine's durability mechanism for writes.
type JournalMode int

// Journal modes: PostgreSQL and MySQL log records to a write-ahead log;
// SQLite's default rollback journal copies each page image on first touch.
const (
	JournalWAL JournalMode = iota
	JournalRollback
)

// String names the mode.
func (j JournalMode) String() string {
	if j == JournalRollback {
		return "rollback-journal"
	}
	return "wal"
}

// Journal returns the engine's journal mode (by profile).
func (e *Engine) Journal() JournalMode {
	if e.Kind == SQLite {
		return JournalRollback
	}
	return JournalWAL
}

// WAL exposes the instance-wide log (always present; read-only workloads
// simply never append to it).
func (e *Engine) WAL() *storage.WAL { return e.shared.Wal }

// journalPayload sizes one logged row change under the engine's journal
// mode: WAL engines log a logical record per row; the rollback journal
// copies the whole page image on the first touch of each page and rides it
// for later rows. journaled tracks first touches across one statement.
func (e *Engine) journalPayload(t *Table, id int, journaled map[int]bool) int {
	if e.Journal() == JournalRollback {
		page := id / t.File.RowsPerPage()
		if !journaled[page] {
			journaled[page] = true
			return e.Knobs.PageBytes
		}
	}
	return t.schema.RowWidth()
}

// LogBytes estimates what changing rows rows of t appends to the log under
// the engine's journal mode, the way journalPayload sizes it row by row: a
// record per row, and under the rollback journal a page image in place of the
// row for the first touch of each page.
func (e *Engine) LogBytes(t *Table, rows float64) float64 {
	bytes := rows * float64(t.schema.RowWidth()+storage.WALRecordHeader)
	if e.Journal() == JournalRollback {
		pages := min(rows, float64(t.File.PageCount()))
		bytes += pages * float64(e.Knobs.PageBytes-t.schema.RowWidth())
	}
	return bytes
}

// Autocommit runs one statement as a transaction of its own: begin, run,
// commit. Any error (including a write-write conflict) rolls back instead,
// and a rollback failure is joined onto it.
func (e *Engine) Autocommit(run func(*txn.Txn) (int, error)) (int, error) {
	tx := e.Begin()
	n, err := run(tx)
	if err != nil {
		if rbErr := e.Rollback(tx); rbErr != nil {
			return n, errors.Join(err, rbErr)
		}
		return n, err
	}
	return n, e.Commit(tx)
}

// logChange appends one row change of tx to the log, sized by the journal
// mode; journaled tracks first page touches across the statement.
func (e *Engine) logChange(tx *txn.Txn, t *Table, kind storage.RecordKind, id int, data value.Row, journaled map[int]bool) {
	e.shared.Wal.Append(e.Dev, storage.LogRecord{
		Kind: kind, Txn: tx.ID(), Table: t.Name, Row: id, Data: data,
	}, e.journalPayload(t, id, journaled))
}

// Recover replays durable log records (storage.WAL.Durable) after a crash,
// onto the store as of the log's last checkpoint (a freshly loaded one if
// there was none): committed transactions are re-applied in log order,
// transactions with no durable commit record are rolled back. The replayed
// work drives this worker's device — charged once, here — and appends nothing
// back to the log (the records are already durable). Inserts land on their
// original slot ids so later records address the right rows. It returns the
// number of row changes applied.
func (e *Engine) Recover(records []storage.LogRecord) (applied int, err error) {
	defer exec.RecoverCanceled(&err)
	open := make(map[uint64]*txn.Txn)
	for i, rec := range records {
		e.Ctx.PollEvery(i)
		switch rec.Kind {
		case storage.RecCommit:
			if tx := open[rec.Txn]; tx != nil {
				delete(open, rec.Txn)
				if _, err := e.shared.Txns.Commit(tx); err != nil {
					return applied, err
				}
			}
		case storage.RecAbort:
			if tx := open[rec.Txn]; tx != nil {
				delete(open, rec.Txn)
				if err := e.shared.Txns.Abort(tx); err != nil {
					return applied, err
				}
			}
		default:
			tx := open[rec.Txn]
			if tx == nil {
				// Replay order mirrors original append order, so the
				// lazy Begin sees every commit that preceded this
				// transaction's first write.
				tx = e.shared.Txns.Begin()
				open[rec.Txn] = tx
			}
			t, terr := e.Table(rec.Table)
			if terr != nil {
				return applied, terr
			}
			switch rec.Kind {
			case storage.RecInsert:
				if err := t.File.InsertAtTxn(tx, rec.Row, rec.Data); err != nil {
					return applied, err
				}
				for col, idx := range t.Indexes {
					ci := t.schema.MustColIndex(col)
					idx.Insert(rec.Data[ci], rec.Row)
				}
			case storage.RecUpdate:
				if _, err := t.File.UpdateTxn(tx, rec.Row, rec.Data); err != nil {
					return applied, err
				}
			case storage.RecDelete:
				if err := t.File.DeleteTxn(tx, rec.Row); err != nil {
					return applied, err
				}
			}
			applied++
		}
	}
	// Transactions whose commit record did not survive the crash lose.
	for _, tx := range open {
		n := tx.Writes()
		if err := e.shared.Txns.Abort(tx); err != nil {
			return applied, err
		}
		e.Dev.ChargeUndo(n)
	}
	e.Unbind()
	return applied, nil
}

// Checkpoint flushes this view's dirty buffer pages and then recycles the
// log (storage.WAL.Checkpoint), which bounds recovery work and what the log
// retains. It returns the number of pages written back.
func (e *Engine) Checkpoint() int {
	n := e.Pool.Checkpoint()
	e.shared.Wal.Checkpoint(e.Dev)
	return n
}
