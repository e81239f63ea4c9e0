package engine

import (
	"testing"

	"energydb/internal/db/value"
)

// TestCommitChargesStamping pins the commit-stamping charge: committing a
// write transaction must charge the committing worker for every version
// stamp (a header load plus a timestamp-line store per write), mirroring
// how Rollback charges the undo walk via ChargeUndo. Before the fix the
// stamping loop in txn.Manager.Commit ran on the shared manager with no
// machine attached, so commit-time work was energy-free.
func TestCommitChargesStamping(t *testing.T) {
	e := newEngine(t, PostgreSQL, SettingBaseline)
	tbl := loadSample(t, e, 10)

	const n = 64
	tx := e.Begin()
	e.Bind(tx)
	for i := 0; i < n; i++ {
		e.InsertTxn(tx, tbl, value.Row{value.Int(int64(1000 + i)), value.Int(0), value.Float(0)})
	}
	if got := tx.Writes(); got != n {
		t.Fatalf("registered %d write records, want %d", got, n)
	}

	before := e.M.Hier.Counters()
	if err := e.Commit(tx); err != nil {
		t.Fatal(err)
	}
	d := e.M.Hier.Counters().Sub(before)
	if d.Loads < n {
		t.Errorf("commit of %d writes charged %d loads; each stamp must load its version header", n, d.Loads)
	}
	if d.Stores < n {
		t.Errorf("commit of %d writes charged %d stores; each stamp must store its timestamp line", n, d.Stores)
	}
}

// TestReadOnlyCommitChargesNothing checks the other side of the contract:
// a transaction with no writes skips the WAL commit record and the stamp
// charging entirely.
func TestReadOnlyCommitChargesNothing(t *testing.T) {
	e := newEngine(t, PostgreSQL, SettingBaseline)
	loadSample(t, e, 10)

	tx := e.Begin()
	e.Bind(tx)
	before := e.M.Hier.Counters()
	if err := e.Commit(tx); err != nil {
		t.Fatal(err)
	}
	d := e.M.Hier.Counters().Sub(before)
	if d.Instructions() != 0 {
		t.Errorf("read-only commit charged %d instructions; want 0", d.Instructions())
	}
}

// TestCommitRollbackSymmetry checks that committing N writes and rolling
// back N writes are both O(N) charged walks over the version store:
// neither outcome is free, so throwing work away and keeping it cost
// energy of the same order.
func TestCommitRollbackSymmetry(t *testing.T) {
	const n = 32
	run := func(commit bool) uint64 {
		e := newEngine(t, PostgreSQL, SettingBaseline)
		tbl := loadSample(t, e, 10)
		tx := e.Begin()
		e.Bind(tx)
		for i := 0; i < n; i++ {
			e.InsertTxn(tx, tbl, value.Row{value.Int(int64(2000 + i)), value.Int(0), value.Float(0)})
		}
		before := e.M.Hier.Counters()
		var err error
		if commit {
			err = e.Commit(tx)
		} else {
			err = e.Rollback(tx)
		}
		if err != nil {
			t.Fatal(err)
		}
		return e.M.Hier.Counters().Sub(before).Instructions()
	}
	c, r := run(true), run(false)
	if c == 0 || r == 0 {
		t.Fatalf("commit charged %d instructions, rollback charged %d; both must be nonzero", c, r)
	}
}
