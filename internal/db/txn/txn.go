// Package txn implements the transaction manager for MVCC snapshot
// isolation: monotonically published commit timestamps, transaction
// identities, and the begin/end-timestamp visibility rule every versioned
// tuple chain in internal/db/storage is read through.
//
// # Timestamp encoding
//
// A version's begin and end fields hold either a commit timestamp (below
// TxnIDBase) or the identity of the transaction that wrote it (at or above
// TxnIDBase, Hekaton-style). Bulk-loaded data carries begin 0 — committed
// before every snapshot. Infinity marks a live version's open end; Aborted
// marks a version whose creating transaction rolled back (never visible to
// anyone, forever).
//
// # Commit protocol
//
// Commit serializes on the manager's commit mutex: the committing
// transaction stamps every version it wrote with the next timestamp and
// only then publishes that timestamp as the new snapshot horizon
// (publish-last). A reader that snapshots the horizon therefore either sees
// none of a transaction's versions (it began before publication) or all of
// them — partially stamped state is unreachable because the horizon still
// points below the new timestamp while stamping runs. Aborts need no mutex:
// they only un-write the aborting transaction's own versions.
//
// # Snapshot registry
//
// Every snapshot a reader may still resolve a version chain against is
// registered with the manager: a transaction's from Begin to Commit or
// Abort, an autocommit statement's from Pin to Unpin. Reading the horizon
// and registering it happen under one mutex, and Oldest reads the registry
// under the same one, so no snapshot can exist that Oldest did not bound:
// a version whose end timestamp is a commit at or below Oldest is invisible
// to every snapshot there is or will be, which is what lets the storage
// layer reclaim it (storage.HeapFile.UpdateTxn, Reap). A session that is
// idle between statements holds no registration and holds nothing back.
//
// # Locking model
//
// The manager's commit and registry mutexes are txn-level locks in the
// engine stack's documented order (engine → txn → storage → btree; package
// engine says what holds it). Both are leaves: commit stamping touches only
// version atomics, never a storage or btree lock, and the registry mutex
// guards the pin list alone. Oldest is read before a storage lock is taken,
// never under one. Undo records MAY take storage.TableData's lock (to swap a
// chain head back); Abort runs them with no manager lock held.
package txn

import (
	"errors"
	"sync"
	"sync/atomic"
)

// TxnIDBase splits the timestamp space: values below are commit timestamps,
// values at or above are transaction IDs (uncommitted versions).
const TxnIDBase = uint64(1) << 62

// Infinity is the open end timestamp of a live version.
const Infinity = ^uint64(0)

// Aborted marks a version whose creating transaction rolled back. It sits
// above TxnIDBase and can never equal a real transaction ID, so the
// visibility rule rejects it for every snapshot.
const Aborted = Infinity - 1

// MaxCommitTS is the largest valid commit timestamp.
const MaxCommitTS = TxnIDBase - 1

// ErrWriteConflict is the first-updater-wins outcome: the head version of
// the target row was written by another in-flight transaction, or committed
// after this transaction's snapshot. The statement's transaction must
// abort; retrying on a fresh snapshot is the client's move.
var ErrWriteConflict = errors.New("txn: write-write conflict (first updater wins)")

// ErrNotActive reports a commit or abort of a finished transaction.
var ErrNotActive = errors.New("txn: transaction is not active")

// Snap is a snapshot: the published commit horizon this reader observes,
// plus the reader's own transaction ID (0 for autocommit reads) so a
// transaction sees its own uncommitted writes.
type Snap struct {
	// TS is the commit horizon: versions committed at or below it are
	// visible.
	TS uint64
	// ID is the observing transaction (0 when reading outside one).
	ID uint64
}

// Latest is the read-latest-committed snapshot: every committed version is
// visible, every in-flight one is not. Maintenance paths (index builds,
// statistics, recovery checks) read through it.
func Latest() Snap { return Snap{TS: MaxCommitTS} }

// Visible applies the snapshot-isolation visibility rule to one version's
// begin/end pair.
func (s Snap) Visible(begin, end uint64) bool {
	if begin >= TxnIDBase {
		// Uncommitted (or aborted): visible only to its own writer.
		if begin != s.ID {
			return false
		}
	} else if begin > s.TS {
		// Committed after this snapshot.
		return false
	}
	if end == s.ID {
		// Deleted or superseded by this transaction itself.
		return false
	}
	if end < TxnIDBase && end <= s.TS {
		// Deleted at or before this snapshot.
		return false
	}
	return true
}

// Record is one undoable write registered with its transaction: Commit
// stamps the commit timestamp into the version(s) it touched, Abort
// un-writes them. Implementations live in the storage layer.
type Record interface {
	Commit(ts uint64)
	Abort()
}

// Status is a transaction's lifecycle state.
type Status int

// Transaction states.
const (
	StatusActive Status = iota
	StatusCommitted
	StatusAborted
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusActive:
		return "active"
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	default:
		return "unknown"
	}
}

// Txn is one transaction: an identity, the snapshot taken at begin
// (repeatable reads), and the undo/commit log of its writes. A Txn is owned
// by one goroutine (the session's worker); only the manager's commit path
// touches shared state.
type Txn struct {
	id      uint64
	snap    Snap
	mgr     *Manager
	status  Status
	records []Record
}

// ID returns the transaction identity (>= TxnIDBase).
func (t *Txn) ID() uint64 { return t.id }

// Snap returns the transaction's snapshot (horizon at begin + own ID).
func (t *Txn) Snap() Snap { return t.snap }

// Status returns the lifecycle state.
func (t *Txn) Status() Status { return t.status }

// Writes returns the number of registered write records.
func (t *Txn) Writes() int { return len(t.records) }

// Log registers one write for commit stamping / abort undo.
func (t *Txn) Log(r Record) { t.records = append(t.records, r) }

// Oldest is the manager's Oldest, for the storage layer, which is handed
// transactions and not their manager.
func (t *Txn) Oldest() uint64 { return t.mgr.Oldest() }

// Manager allocates transaction IDs and commit timestamps and publishes the
// snapshot horizon. One manager serves one table store; all fields are
// atomics or guarded by commitMu, so Begin/Commit/Abort may be called
// holding any worker's lane.
type Manager struct {
	// last is the published commit horizon (read by every new snapshot).
	last atomic.Uint64
	// next allocates transaction serials.
	next atomic.Uint64

	// commitMu serializes commit stamping and horizon publication.
	commitMu sync.Mutex

	// snapMu guards pins, the horizon of every registered snapshot (one
	// entry per registration; a handful at most, so a slice).
	snapMu sync.Mutex
	pins   []uint64

	active    atomic.Int64
	started   atomic.Uint64
	committed atomic.Uint64
	aborted   atomic.Uint64
}

// NewManager returns a manager with an empty history (horizon 0).
func NewManager() *Manager { return &Manager{} }

// pin reads the horizon and registers it, atomically with respect to Oldest.
func (m *Manager) pin() uint64 {
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	ts := m.last.Load()
	m.pins = append(m.pins, ts)
	return ts
}

// unpin drops one registration of ts.
func (m *Manager) unpin(ts uint64) {
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	for i, p := range m.pins {
		if p == ts {
			last := len(m.pins) - 1
			m.pins[i] = m.pins[last]
			m.pins = m.pins[:last]
			return
		}
	}
}

// Pin returns a fresh autocommit read snapshot at the current horizon and
// registers it until Unpin.
func (m *Manager) Pin() Snap { return Snap{TS: m.pin()} }

// Unpin releases a snapshot Pin returned.
func (m *Manager) Unpin(s Snap) { m.unpin(s.TS) }

// Oldest returns the horizon of the oldest registered snapshot, or the
// current horizon when none is registered: no snapshot, present or future,
// reads below it.
func (m *Manager) Oldest() uint64 {
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	oldest := m.last.Load()
	for _, p := range m.pins {
		if p < oldest {
			oldest = p
		}
	}
	return oldest
}

// Begin starts a transaction with a snapshot at the current horizon,
// registered until the transaction commits or aborts.
func (m *Manager) Begin() *Txn {
	id := TxnIDBase + m.next.Add(1)
	m.started.Add(1)
	m.active.Add(1)
	return &Txn{
		id:   id,
		snap: Snap{TS: m.pin(), ID: id},
		mgr:  m,
	}
}

// Commit stamps every version the transaction wrote with the next commit
// timestamp, then publishes it (publish-last; see the package comment). It
// returns the commit timestamp; read-only transactions commit without
// consuming one.
func (m *Manager) Commit(t *Txn) (uint64, error) {
	if t.status != StatusActive {
		return 0, ErrNotActive
	}
	var ts uint64
	if len(t.records) > 0 {
		m.commitMu.Lock()
		ts = m.last.Load() + 1
		// The manager is shared across workers and machine-free; the
		// committing worker pays for each stamp via Device.ChargeCommit
		// in engine.Commit.
		for _, r := range t.records {
			r.Commit(ts)
		}
		m.last.Store(ts)
		m.commitMu.Unlock()
	} else {
		ts = m.last.Load()
	}
	t.status = StatusCommitted
	t.records = nil
	m.unpin(t.snap.TS)
	m.active.Add(-1)
	m.committed.Add(1)
	return ts, nil
}

// Abort un-writes the transaction's versions in reverse order and marks it
// aborted. No timestamp is consumed and no horizon moves, so concurrent
// readers notice nothing.
func (m *Manager) Abort(t *Txn) error {
	if t.status != StatusActive {
		return ErrNotActive
	}
	// The undo walk is charged by engine.Rollback (Device.ChargeUndo) on
	// the aborting worker's device; the shared manager stays machine-free.
	for i := len(t.records) - 1; i >= 0; i-- {
		t.records[i].Abort()
	}
	t.status = StatusAborted
	t.records = nil
	m.unpin(t.snap.TS)
	m.active.Add(-1)
	m.aborted.Add(1)
	return nil
}

// Stats is a snapshot of the manager's transaction counters.
type Stats struct {
	Active    int64
	Started   uint64
	Committed uint64
	Aborted   uint64
}

// StatsSnapshot reads the counters (each atomically; the set is advisory).
func (m *Manager) StatsSnapshot() Stats {
	return Stats{
		Active:    m.active.Load(),
		Started:   m.started.Load(),
		Committed: m.committed.Load(),
		Aborted:   m.aborted.Load(),
	}
}

// Horizon returns the published commit timestamp horizon.
func (m *Manager) Horizon() uint64 { return m.last.Load() }
