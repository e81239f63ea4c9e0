package engine

import (
	"errors"
	"testing"

	"energydb/internal/db/txn"
	"energydb/internal/db/value"
)

// The error Commit, Rollback and Autocommit return is how a statement learns
// that its transaction did not end the way it asked. txn.ErrNotActive is the
// one error the transaction manager returns from Commit and Abort; these
// tests reach it through each engine call that passes it on, so an engine
// site that drops it fails one of them.

// TestEndFinishedTxn: committing or rolling back a transaction that has
// already committed or rolled back reports txn.ErrNotActive.
func TestEndFinishedTxn(t *testing.T) {
	e := newEngine(t, PostgreSQL, SettingBaseline)
	tbl := loadSample(t, e, 10)
	ends := []struct {
		name string
		end  func(*txn.Txn) error
	}{{"Commit", e.Commit}, {"Rollback", e.Rollback}}
	key := int64(100)
	for _, first := range ends {
		for _, second := range ends {
			key++
			tx := e.Begin()
			e.InsertTxn(tx, tbl, value.Row{value.Int(key), value.Int(0), value.Float(0)})
			if err := first.end(tx); err != nil {
				t.Fatalf("%s: %v", first.name, err)
			}
			if err := second.end(tx); !errors.Is(err, txn.ErrNotActive) {
				t.Errorf("%s after %s returned %v, want %v", second.name, first.name, err, txn.ErrNotActive)
			}
		}
	}
}

// TestAutocommitJoinsRollbackError: when run ends the transaction itself and
// then fails, Autocommit's rollback finds it finished, and the result carries
// both the run's error and the rollback's.
func TestAutocommitJoinsRollbackError(t *testing.T) {
	e := newEngine(t, PostgreSQL, SettingBaseline)
	loadSample(t, e, 10)
	runErr := errors.New("statement failed")
	for _, end := range []struct {
		name string
		end  func(*txn.Txn) error
	}{{"Commit", e.Commit}, {"Rollback", e.Rollback}} {
		_, err := e.Autocommit(func(tx *txn.Txn) (int, error) {
			if err := end.end(tx); err != nil {
				t.Fatalf("%s: %v", end.name, err)
			}
			return 0, runErr
		})
		if !errors.Is(err, runErr) || !errors.Is(err, txn.ErrNotActive) {
			t.Errorf("run ended by %s then failed: Autocommit returned %v, want %v joined with %v", end.name, err, runErr, txn.ErrNotActive)
		}
	}
}

// TestAutocommitReportsCommitError: when run commits the transaction itself
// and succeeds, Autocommit's own commit finds it finished and says so.
func TestAutocommitReportsCommitError(t *testing.T) {
	e := newEngine(t, PostgreSQL, SettingBaseline)
	loadSample(t, e, 10)
	n, err := e.Autocommit(func(tx *txn.Txn) (int, error) {
		if err := e.Commit(tx); err != nil {
			t.Fatal(err)
		}
		return 1, nil
	})
	if n != 1 || !errors.Is(err, txn.ErrNotActive) {
		t.Errorf("Autocommit returned (%d, %v), want (1, %v)", n, err, txn.ErrNotActive)
	}
}
