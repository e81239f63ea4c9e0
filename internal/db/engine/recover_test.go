package engine

import (
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/db/exec"
	"energydb/internal/db/storage"
	"energydb/internal/db/txn"
	"energydb/internal/db/value"
)

// TestWalCrashRecovery kills a server mid-commit and replays the durable
// log tail on a fresh engine. The crash point is engineered with group
// commit: txn2's row records reach stable storage (flushed by txn3's
// fsync), but its commit record is still in the volatile buffer when the
// "power cut" happens. Recovery must re-apply txn1 and txn3, roll txn2
// back, charge the replay energy exactly once, and append nothing back to
// the new log.
func TestWalCrashRecovery(t *testing.T) {
	e := newEngine(t, SQLite, SettingBaseline)
	tbl := loadSample(t, e, 50)

	row := func(k int64) value.Row {
		return value.Row{value.Int(k), value.Int(k % 7), value.Float(float64(k))}
	}

	// txn1 commits under GroupCommit=1: fully durable.
	txn1 := e.Begin()
	e.InsertTxn(txn1, tbl, row(100))
	if err := e.Commit(txn1); err != nil {
		t.Fatal(err)
	}

	// txn2 writes but does not commit yet: two inserts and one update.
	txn2 := e.Begin()
	e.InsertTxn(txn2, tbl, row(101))
	e.InsertTxn(txn2, tbl, row(102))
	k5 := exec.BinOp{Op: exec.OpEq, L: exec.Col{Idx: 0}, R: exec.Const{V: value.Int(5)}}
	e.Bind(txn2)
	if n, err := exec.Drain(&Write{E: e, T: tbl, Child: &exec.SeqScan{Ctx: e.Ctx, File: tbl.File, Filter: k5}, Set: func(r value.Row) (value.Row, error) {
		r[2] = value.Float(-1)
		return r, nil
	}}); err != nil || n != 1 {
		t.Fatalf("txn2 update: n=%d err=%v", n, err)
	}

	// txn3's commit fsync flushes everything appended so far — including
	// txn2's row records, which are now durable without their commit.
	txn3 := e.Begin()
	e.InsertTxn(txn3, tbl, row(103))
	if err := e.Commit(txn3); err != nil {
		t.Fatal(err)
	}

	// Widen group commit so txn2's commit record stays buffered, then cut
	// power between the append and the fsync.
	e.WAL().GroupCommit = 1 << 20
	if err := e.Commit(txn2); err != nil {
		t.Fatal(err)
	}
	if e.WAL().PendingLen() == 0 {
		t.Fatal("txn2's commit record should still be volatile")
	}
	durable := e.WAL().Durable()
	if len(durable) == 0 {
		t.Fatal("no durable records to replay")
	}

	// Fresh machine, fresh engine, same DDL and checkpointed base load:
	// what a restart sees.
	m := cpusim.NewMachine(cpusim.IntelI7_4790())
	f := New(SQLite, m, SettingBaseline)
	ftbl := loadSample(t, f, 50)
	loadEnergy := m.ActiveEnergy().Total()

	applied, err := f.Recover(durable)
	if err != nil {
		t.Fatal(err)
	}
	// Row changes replayed: txn1's insert, txn2's 2 inserts + 1 update
	// (applied, then undone by the abort), txn3's insert.
	if applied != 5 {
		t.Fatalf("replayed %d row changes, want 5", applied)
	}
	if m.ActiveEnergy().Total() <= loadEnergy {
		t.Fatal("replay charged no energy; recovered work must be metered once")
	}
	// Recovery never appends to the new log — the records it replays are
	// already durable. A non-zero count here would mean replayed work is
	// logged (and so energy-charged) twice.
	if got := f.WAL().Records.Load(); got != 0 {
		t.Fatalf("recovery appended %d log records, want 0", got)
	}

	// Committed work is back: 50 base rows + txn1's k=100 + txn3's k=103.
	n, err := f.Run(&exec.SeqScan{Ctx: f.Ctx, File: ftbl.File})
	if err != nil {
		t.Fatal(err)
	}
	if n != 52 {
		t.Fatalf("recovered snapshot has %d visible rows, want 52", n)
	}
	// txn2 lost: its inserts are invisible and its update is undone.
	for _, k := range []int64{101, 102} {
		pred := exec.BinOp{Op: exec.OpEq, L: exec.Col{Idx: 0}, R: exec.Const{V: value.Int(k)}}
		if n, err := f.Run(&exec.SeqScan{Ctx: f.Ctx, File: ftbl.File, Filter: pred}); err != nil || n != 0 {
			t.Fatalf("uncommitted insert k=%d visible after recovery (n=%d err=%v)", k, n, err)
		}
	}
	rows, err := exec.Collect(&exec.SeqScan{Ctx: f.Ctx, File: ftbl.File, Filter: k5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][2].AsFloat() != 5 {
		t.Fatalf("k=5 after recovery = %v, want v=5 (txn2's update rolled back)", rows)
	}

	// Replaying the same tail twice must be refused or idempotent-safe;
	// here the second engine start from the same durable tail yields the
	// same snapshot — determinism of log order.
	g := New(SQLite, cpusim.NewMachine(cpusim.IntelI7_4790()), SettingBaseline)
	gtbl := loadSample(t, g, 50)
	if _, err := g.Recover(durable); err != nil {
		t.Fatal(err)
	}
	gn, err := g.Run(&exec.SeqScan{Ctx: g.Ctx, File: gtbl.File})
	if err != nil {
		t.Fatal(err)
	}
	if gn != n {
		t.Fatalf("replay not deterministic: %d vs %d visible rows", gn, n)
	}
}

// TestRecoveryAfterCheckpoint crashes a store that has recycled its log. A
// checkpoint is taken while one writer (open) is still in flight; more
// transactions follow, the open one commits, and the power goes between the
// last one's commit record and its fsync. Durable() is then the tail since
// the checkpoint — what the open writer had logged before it, and everything
// after — and replaying it onto the store as the checkpoint left it (the
// committed state at that moment) must give exactly the acknowledged
// commits: nothing from before the checkpoint is replayed twice, nothing of
// the open writer is lost, and the unsynced transaction is gone.
func TestRecoveryAfterCheckpoint(t *testing.T) {
	e := newEngine(t, PostgreSQL, SettingBaseline)
	tbl := loadSample(t, e, 50)
	row := func(k int64) value.Row {
		return value.Row{value.Int(k), value.Int(k % 7), value.Float(float64(k))}
	}
	key := func(k int64) exec.Expr {
		return exec.BinOp{Op: exec.OpEq, L: exec.Col{Idx: 0}, R: exec.Const{V: value.Int(k)}}
	}
	setV := func(v float64) func(value.Row) (value.Row, error) {
		return func(r value.Row) (value.Row, error) { r[2] = value.Float(v); return r, nil }
	}
	update := func(tx *txn.Txn, k int64, v float64) {
		t.Helper()
		e.Bind(tx)
		if n, err := exec.Drain(&Write{E: e, T: tbl, Child: &exec.SeqScan{Ctx: e.Ctx, File: tbl.File, Filter: key(k)}, Set: setV(v)}); err != nil || n != 1 {
			t.Fatalf("update k=%d: n=%d err=%v", k, n, err)
		}
	}
	commit := func(tx *txn.Txn) {
		t.Helper()
		if err := e.Commit(tx); err != nil {
			t.Fatal(err)
		}
	}

	before := e.Begin()
	e.InsertTxn(before, tbl, row(100))
	update(before, 5, -5)
	commit(before)

	open := e.Begin()
	e.InsertTxn(open, tbl, row(101))
	update(open, 6, -6)

	flusher := e.Begin() // its fsync makes open's records durable
	e.InsertTxn(flusher, tbl, row(102))
	commit(flusher)

	// The store as the checkpoint leaves it holds what had committed by then:
	// a fresh load plus the closed transactions of the log so far.
	var closed []storage.LogRecord
	for _, rec := range e.WAL().Durable() {
		if rec.Txn != open.ID() {
			closed = append(closed, rec)
		}
	}
	e.Checkpoint()
	if got := e.WAL().Checkpoints.Load(); got != 1 {
		t.Fatalf("checkpoints = %d, want 1", got)
	}
	tail := e.WAL().Durable()
	if len(tail) != 2 || tail[0].Txn != open.ID() || tail[1].Txn != open.ID() {
		t.Fatalf("log after the checkpoint = %+v, want the open writer's two records", tail)
	}

	after := e.Begin()
	update(after, 7, -7)
	commit(after)
	commit(open)
	e.WAL().GroupCommit = 1 << 20 // the next commit record stays in the buffer
	lost := e.Begin()
	e.InsertTxn(lost, tbl, row(103))
	update(lost, 8, -8)
	commit(lost)
	if e.WAL().PendingLen() == 0 {
		t.Fatal("the last commit record should still be volatile")
	}

	f := New(PostgreSQL, cpusim.NewMachine(cpusim.IntelI7_4790()), SettingBaseline)
	ftbl := loadSample(t, f, 50)
	if _, err := f.Recover(closed); err != nil {
		t.Fatalf("rebuilding the checkpointed store: %v", err)
	}
	if _, err := f.Recover(e.WAL().Durable()); err != nil {
		t.Fatalf("replaying the tail: %v", err)
	}

	want := map[int64]float64{100: 100, 101: 101, 102: 102, 5: -5, 6: -6, 7: -7, 8: 8}
	rows, err := exec.Collect(&exec.SeqScan{Ctx: f.Ctx, File: ftbl.File})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 53 {
		t.Fatalf("recovered %d visible rows, want 53 (50 loaded, 100, 101, 102)", len(rows))
	}
	for _, r := range rows {
		if v, ok := want[r[0].I]; ok && r[2].F != v {
			t.Errorf("k=%d recovered with v=%v, want %v", r[0].I, r[2].F, v)
		}
		if r[0].I == 103 {
			t.Error("the transaction whose commit never reached the disk is visible")
		}
	}
	// The index went through the same replay: one entry per recovered key.
	for k := range want {
		kv := value.Int(k)
		op := &exec.IndexScan{Ctx: f.Ctx, File: ftbl.File, Tree: ftbl.Index("k"), Lo: &kv, Hi: &kv}
		if n, err := f.Run(op); err != nil || n != 1 {
			t.Errorf("index lookup k=%d found %d rows (err=%v), want 1", k, n, err)
		}
	}
}
