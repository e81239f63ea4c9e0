package storage

import (
	"sync"
	"sync/atomic"

	"energydb/internal/db/value"
)

// RecordKind tags a WAL record.
type RecordKind int

// WAL record kinds. Data records (insert/update/delete) carry the logical
// after-image; commit/abort close a transaction.
const (
	RecInsert RecordKind = iota + 1
	RecUpdate
	RecDelete
	RecCommit
	RecAbort
)

// String names the record kind.
func (k RecordKind) String() string {
	switch k {
	case RecInsert:
		return "insert"
	case RecUpdate:
		return "update"
	case RecDelete:
		return "delete"
	case RecCommit:
		return "commit"
	case RecAbort:
		return "abort"
	default:
		return "unknown"
	}
}

// LogRecord is one logical WAL entry: which transaction touched which row
// of which table, with the after-image for redo. Replay applies data
// records in log order and commits/aborts transactions as their closing
// records appear (see engine.Recover).
type LogRecord struct {
	Kind  RecordKind
	Txn   uint64
	Table string
	Row   int
	Data  value.Row
}

// walBufBytes is the log buffer size (PostgreSQL's wal_buffers default
// scale, scaled down like the rest of the knobs).
const walBufBytes = 64 << 10

// walCheckpointBytes is how much log may accumulate past the last checkpoint
// before the next committing worker takes one (PostgreSQL's max_wal_size,
// scaled like the buffer): it bounds what recovery replays and what the log
// retains.
const walCheckpointBytes = 2 * walBufBytes

// walBufBase is the simulated address of the shared log buffer. It sits
// below every device arena (arenas start at 1<<32), so all workers' append
// traffic lands on the same hot region — as a real engine's WAL insert
// buffer does.
const walBufBase = uint64(0xE000_0000)

// WAL is the shared write-ahead log of one table store: every
// transactional write appends a logical record before touching the heap,
// commit forces the buffer to stable storage (fsync-charged to the
// committing worker's device), and replay on open restores committed work.
// The log is one structure shared by all workers — the internal mutex
// guards buffer state; counters are atomics so observers never race
// appenders. Simulated costs (buffer stores, flush loads, fsync latency)
// are charged to the Device passed by the calling worker, keeping
// per-session energy attribution exact.
//
// The log is recycled at checkpoints: once the store holds everything a
// closed transaction wrote, its records are dropped, so the durable log is
// the tail recovery still needs and no longer than walCheckpointBytes plus
// what the transactions open at the last checkpoint had written.
type WAL struct {
	mu sync.Mutex
	// bufOff is the fill point of the simulated log buffer.
	bufOff uint64
	// pending are records appended but not yet durable; a crash loses
	// them.
	pending []LogRecord
	// durable are records that reached stable storage since the last
	// checkpoint, behind those of the transactions open at it.
	durable        []LogRecord
	pendingCommits int
	// sinceCheckpoint counts the log bytes appended since the last
	// checkpoint.
	sinceCheckpoint uint64

	// FsyncSec is the commit-time flush latency. Set before use; not
	// synchronized.
	FsyncSec float64
	// GroupCommit batches this many commits per fsync (1 = every commit
	// syncs, as PostgreSQL's synchronous_commit=on). Set before use.
	GroupCommit int

	// Records counts appended records; Syncs counts fsyncs; Bytes counts
	// logical log bytes; Checkpoints counts log recyclings.
	Records     atomic.Uint64
	Syncs       atomic.Uint64
	Bytes       atomic.Uint64
	Checkpoints atomic.Uint64
}

// WALRecordHeader is the per-record header size charged on append.
const WALRecordHeader = 24

// NewWAL returns an empty log.
func NewWAL() *WAL {
	return &WAL{
		FsyncSec:    120e-6, // one rotational-latency-ish flush
		GroupCommit: 1,
	}
}

// log appends one record of the given payload size: a header plus the
// payload streamed into the log buffer (stores with excellent L1D locality),
// charged to dev. Caller holds w.mu.
func (w *WAL) log(dev *Device, rec LogRecord, payload int) {
	size := uint64(payload + WALRecordHeader)
	if w.bufOff+size > walBufBytes {
		// Buffer wrap forces a background flush of the filled portion.
		w.flushLocked(dev)
	}
	dev.M.Hier.StoreRange(walBufBase+w.bufOff, size)
	w.bufOff += size
	w.sinceCheckpoint += size
	w.pending = append(w.pending, rec)
	w.Records.Add(1)
	w.Bytes.Add(size)
}

// Append logs one data record of the given payload size.
func (w *WAL) Append(dev *Device, rec LogRecord, payload int) {
	w.mu.Lock()
	w.log(dev, rec, payload)
	w.mu.Unlock()
}

// Commit logs the transaction's commit record and makes everything
// appended so far durable; with group commit, only every GroupCommit'th
// call pays the fsync. The flush cost lands on the committing worker's
// device.
func (w *WAL) Commit(dev *Device, txnID uint64) {
	w.mu.Lock()
	w.log(dev, LogRecord{Kind: RecCommit, Txn: txnID}, 0)
	w.pendingCommits++
	if w.pendingCommits >= w.GroupCommit {
		w.flushLocked(dev)
	}
	w.mu.Unlock()
}

// Abort logs the transaction's abort record. No fsync is forced — an abort
// needs no durability guarantee (replay aborts unclosed transactions
// anyway); the record rides the next flush.
func (w *WAL) Abort(dev *Device, txnID uint64) {
	w.mu.Lock()
	w.log(dev, LogRecord{Kind: RecAbort, Txn: txnID}, 0)
	w.mu.Unlock()
}

// CheckpointDue reports whether the log has grown walCheckpointBytes past
// the last checkpoint.
func (w *WAL) CheckpointDue() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sinceCheckpoint >= walCheckpointBytes
}

// Checkpoint recycles the log once the caller has written the store back
// (BufferPool.Checkpoint): the buffer is forced out, and every record of a
// transaction that has closed — its commit or abort record is durable, so the
// store holds what it wrote, or nothing of it — is dropped. What stays is
// what the transactions still open have logged, from the first record of the
// oldest of them; Durable is that plus everything appended afterwards.
func (w *WAL) Checkpoint(dev *Device) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.flushLocked(dev)
	// Truncating a log drops files, it reads no record: the forced flush above
	// is the checkpoint's charged work.
	closed := make(map[uint64]bool)
	for _, rec := range w.durable {
		if rec.Kind == RecCommit || rec.Kind == RecAbort {
			closed[rec.Txn] = true
		}
	}
	keep := w.durable[:0]
	for _, rec := range w.durable {
		if !closed[rec.Txn] {
			keep = append(keep, rec)
		}
	}
	clear(w.durable[len(keep):])
	w.durable = keep
	w.sinceCheckpoint = 0
	w.Checkpoints.Add(1)
}

// Sync forces the buffer to stable storage (checkpoint / shutdown path).
func (w *WAL) Sync(dev *Device) {
	w.mu.Lock()
	w.flushLocked(dev)
	w.mu.Unlock()
}

// flushLocked forces the buffer to stable storage. Caller holds w.mu.
func (w *WAL) flushLocked(dev *Device) {
	if w.bufOff == 0 && w.pendingCommits == 0 {
		return
	}
	// The kernel copies the buffer out (loads of the log buffer).
	dev.M.Hier.LoadRange(walBufBase, w.bufOff)
	dev.M.AddIdle(w.FsyncSec)
	w.durable = append(w.durable, w.pending...)
	w.pending = w.pending[:0]
	w.bufOff = 0
	w.pendingCommits = 0
	w.Syncs.Add(1)
}

// Durable returns a copy of the records that have reached stable storage and
// no checkpoint has recycled — what a crash would leave behind for replay
// onto the store as of the last checkpoint. Records still in the buffer
// (appended but never flushed) are lost, exactly like a real log.
func (w *WAL) Durable() []LogRecord {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]LogRecord, len(w.durable))
	copy(out, w.durable)
	return out
}

// PendingLen reports how many records sit in the volatile buffer (test and
// observability hook; no accesses simulated).
func (w *WAL) PendingLen() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.pending)
}

// Retained reports how many records the log holds, durable and buffered.
func (w *WAL) Retained() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.durable) + len(w.pending)
}
