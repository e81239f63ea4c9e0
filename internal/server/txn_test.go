package server_test

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"energydb/internal/server"
	"energydb/internal/server/client"
	"energydb/internal/server/wire"
)

// dialTxn opens a session on the shared sqlite/baseline/10MB store.
func dialTxn(t *testing.T, addr string) *client.Conn {
	t.Helper()
	conn, err := client.Dial(addr, client.Options{Engine: "sqlite", Setting: "baseline", Class: "10MB"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// oneInt runs a statement expected to produce a single integer cell.
func oneInt(t *testing.T, conn *client.Conn, stmt string) int64 {
	t.Helper()
	res, err := conn.Query(stmt)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		t.Fatalf("%s: got %d rows, want one cell", stmt, len(res.Rows))
	}
	return res.Rows[0][0].AsInt()
}

// TestTxnRepeatableRead pins session A's snapshot at BEGIN: a row B commits
// mid-transaction stays invisible to A until A commits, then appears.
func TestTxnRepeatableRead(t *testing.T) {
	_, addr := startServerCfg(t, server.Config{Workers: 2})
	a := dialTxn(t, addr)
	b := dialTxn(t, addr)

	base := oneInt(t, a, "SELECT COUNT(*) FROM region")
	if _, err := a.Begin(); err != nil {
		t.Fatal(err)
	}
	if got := oneInt(t, a, "SELECT COUNT(*) FROM region"); got != base {
		t.Fatalf("count inside txn = %d, want %d", got, base)
	}
	if n := oneInt(t, b, "INSERT INTO region VALUES (900, 'ATLANTIS')"); n != 1 {
		t.Fatalf("insert affected %d rows, want 1", n)
	}
	// B's committed insert must not leak into A's pinned snapshot.
	if got := oneInt(t, a, "SELECT COUNT(*) FROM region"); got != base {
		t.Fatalf("repeatable read broken: count became %d after concurrent commit, want %d", got, base)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := oneInt(t, a, "SELECT COUNT(*) FROM region"); got != base+1 {
		t.Fatalf("post-commit count = %d, want %d", got, base+1)
	}
}

// TestTxnDirtyReadImpossible keeps B's uncommitted insert invisible to A's
// autocommit reads, and a rollback discards it for good.
func TestTxnDirtyReadImpossible(t *testing.T) {
	_, addr := startServerCfg(t, server.Config{Workers: 2})
	a := dialTxn(t, addr)
	b := dialTxn(t, addr)

	base := oneInt(t, a, "SELECT COUNT(*) FROM region")
	if _, err := b.Begin(); err != nil {
		t.Fatal(err)
	}
	if n := oneInt(t, b, "INSERT INTO region VALUES (901, 'LEMURIA')"); n != 1 {
		t.Fatal("insert inside txn failed")
	}
	// B reads its own write; A must not.
	if got := oneInt(t, b, "SELECT COUNT(*) FROM region"); got != base+1 {
		t.Fatalf("writer does not read its own write: %d, want %d", got, base+1)
	}
	if got := oneInt(t, a, "SELECT COUNT(*) FROM region"); got != base {
		t.Fatalf("dirty read: A sees %d rows, want %d", got, base)
	}
	if err := b.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := oneInt(t, a, "SELECT COUNT(*) FROM region"); got != base {
		t.Fatalf("rolled-back insert visible: %d rows, want %d", got, base)
	}
	if got := oneInt(t, b, "SELECT COUNT(*) FROM region"); got != base {
		t.Fatalf("rolled-back insert visible to its own session: %d rows, want %d", got, base)
	}
}

// TestTxnWriteWriteConflict enforces first-updater-wins: B's autocommit
// update of a row A has already written aborts with a conflict instead of
// silently clobbering, and A's commit then lands.
func TestTxnWriteWriteConflict(t *testing.T) {
	_, addr := startServerCfg(t, server.Config{Workers: 2})
	a := dialTxn(t, addr)
	b := dialTxn(t, addr)

	if _, err := a.Begin(); err != nil {
		t.Fatal(err)
	}
	if n := oneInt(t, a, "UPDATE nation SET n_name = 'AAA' WHERE n_nationkey = 3"); n != 1 {
		t.Fatalf("A updated %d rows, want 1", n)
	}
	_, err := b.Query("UPDATE nation SET n_name = 'BBB' WHERE n_nationkey = 3")
	if err == nil {
		t.Fatal("expected write-write conflict for the second updater")
	}
	if _, ok := err.(*client.QueryError); !ok {
		t.Fatalf("conflict should be a statement error, got %T: %v", err, err)
	}
	if !strings.Contains(err.Error(), "conflict") {
		t.Fatalf("error does not name the conflict: %v", err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	res, qerr := b.Query("SELECT n_name FROM nation WHERE n_nationkey = 3")
	if qerr != nil {
		t.Fatal(qerr)
	}
	if got := res.Rows[0][0].S; got != "AAA" {
		t.Fatalf("committed value = %q, want %q (first updater)", got, "AAA")
	}
}

// TestTxnSQLControls drives BEGIN/COMMIT/ROLLBACK through SQL text and
// checks the statement-level replies, error handling for misuse, and that
// the client's InTxn follows the server's transaction state whichever way
// a control was sent.
func TestTxnSQLControls(t *testing.T) {
	_, addr := startServerCfg(t, server.Config{Workers: 1})
	a := dialTxn(t, addr)
	wantTxn := func(step string, want bool) {
		t.Helper()
		id, in := a.InTxn()
		if in != want || in != (id != 0) {
			t.Fatalf("after %s: InTxn() = (%d, %v), want open=%v", step, id, in, want)
		}
	}

	res, err := a.Query("BEGIN")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || !strings.HasPrefix(res.Rows[0][0].S, "BEGIN") {
		t.Fatalf("BEGIN reply = %+v", res.Rows)
	}
	wantTxn("BEGIN", true)
	if id, _ := a.InTxn(); res.Rows[0][0].S != fmt.Sprintf("BEGIN (txn %d)", id) {
		t.Fatalf("InTxn id %d does not match the reply %q", id, res.Rows[0][0].S)
	}
	if _, err := a.Query("BEGIN"); err == nil {
		t.Fatal("nested BEGIN should fail")
	}
	wantTxn("nested BEGIN", true)
	if _, err := a.Query("COMMIT"); err != nil {
		t.Fatal(err)
	}
	wantTxn("COMMIT", false)
	if _, err := a.Query("ROLLBACK"); err == nil {
		t.Fatal("ROLLBACK with no open transaction should fail")
	}
	wantTxn("stray ROLLBACK", false)

	if _, err := a.Begin(); err != nil {
		t.Fatal(err)
	}
	wantTxn("Begin()", true)
	if _, err := a.Query("COMMIT"); err != nil {
		t.Fatal(err)
	}
	wantTxn("Begin() then COMMIT", false)
	if _, err := a.Query("BEGIN TRANSACTION"); err != nil {
		t.Fatal(err)
	}
	wantTxn("BEGIN TRANSACTION", true)
	if _, err := a.Query("ROLLBACK WORK"); err != nil {
		t.Fatal(err)
	}
	wantTxn("ROLLBACK WORK", false)
}

// TestTxnFailedDMLRollsBack checks that a statement failure inside an
// explicit transaction rolls the whole transaction back server-side AND
// that the client mirrors it: InTxn goes false (the error carries
// wire.TxnRolledBackSuffix), and the transaction's earlier writes are gone.
func TestTxnFailedDMLRollsBack(t *testing.T) {
	srv, addr := startServerCfg(t, server.Config{Workers: 1})
	a := dialTxn(t, addr)

	if _, err := a.Begin(); err != nil {
		t.Fatal(err)
	}
	if n := oneInt(t, a, "UPDATE nation SET n_name = 'DOOMED' WHERE n_nationkey = 4"); n != 1 {
		t.Fatal("first update failed")
	}
	// Updating an indexed column is rejected by the engine mid-transaction.
	_, err := a.Query("UPDATE nation SET n_nationkey = 99 WHERE n_nationkey = 4")
	if err == nil {
		t.Fatal("indexed-column update should fail")
	}
	if !strings.HasSuffix(err.Error(), wire.TxnRolledBackSuffix) {
		t.Fatalf("error does not carry the rollback marker: %v", err)
	}
	if _, in := a.InTxn(); in {
		t.Fatal("client still reports an open transaction after server-side rollback")
	}
	if err := a.Commit(); err == nil {
		t.Fatal("COMMIT after auto-rollback should report no open transaction")
	}
	res, qerr := a.Query("SELECT n_name FROM nation WHERE n_nationkey = 4")
	if qerr != nil {
		t.Fatal(qerr)
	}
	if got := res.Rows[0][0].S; got == "DOOMED" {
		t.Fatal("write from the rolled-back transaction survived")
	}
	if stats := srv.TxnStats(); stats.Aborted != 1 || stats.Active != 0 {
		t.Fatalf("txn counters after auto-rollback: %+v", stats)
	}
}

// TestTxnDisconnectRollsBack drops a connection mid-transaction and checks
// the server aborts the orphan: its writes never surface and later writers
// are not blocked by its stale write claims.
func TestTxnDisconnectRollsBack(t *testing.T) {
	srv, addr := startServerCfg(t, server.Config{Workers: 1})
	a := dialTxn(t, addr)
	if _, err := a.Begin(); err != nil {
		t.Fatal(err)
	}
	if n := oneInt(t, a, "UPDATE nation SET n_name = 'ORPHAN' WHERE n_nationkey = 5"); n != 1 {
		t.Fatal("update failed")
	}
	a.Close()

	b := dialTxn(t, addr)
	// The orphan's write claim must be released. The server aborts it when
	// a's session sees the closed connection, so wait for that event (a
	// bare retry loop can finish before the session goroutine is scheduled).
	for deadline := time.Now().Add(5 * time.Second); srv.TxnStats().Aborted == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	var lastErr error
	for i := 0; i < 50; i++ {
		if _, lastErr = b.Query("UPDATE nation SET n_name = 'FRESH' WHERE n_nationkey = 5"); lastErr == nil {
			break
		}
	}
	if lastErr != nil {
		t.Fatalf("orphaned transaction still blocks writers: %v", lastErr)
	}
	res, err := b.Query("SELECT n_name FROM nation WHERE n_nationkey = 5")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].S; got != "FRESH" {
		t.Fatalf("n_name = %q, want FRESH (orphan write discarded)", got)
	}
	stats := srv.TxnStats()
	if stats.Aborted == 0 {
		t.Fatalf("disconnect did not abort the orphan: %+v", stats)
	}
}

// TestTxnReadersProgressWhileWriterOpen is the acceptance check for
// retiring the statement-scoped RWMutex: with a writer transaction open and
// holding uncommitted row versions, readers on other sessions complete and
// see the pre-commit snapshot — under the old lock they would block until
// the writer finished.
func TestTxnReadersProgressWhileWriterOpen(t *testing.T) {
	_, addr := startServerCfg(t, server.Config{Workers: 4})
	w := dialTxn(t, addr)

	if _, err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	total := oneInt(t, w, "SELECT COUNT(*) FROM nation")
	if n := oneInt(t, w, "UPDATE nation SET n_regionkey = n_regionkey + 100 WHERE n_nationkey < 10"); n != 10 {
		t.Fatalf("writer updated %d rows, want 10", n)
	}

	// Writer txn is OPEN. Readers must complete and see the old values.
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := client.Dial(addr, client.Options{Engine: "sqlite", Setting: "baseline", Class: "10MB"})
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			res, err := conn.Query("SELECT COUNT(*) FROM nation WHERE n_regionkey < 100")
			if err != nil {
				errs <- fmt.Errorf("reader %d: %w", i, err)
				return
			}
			if got := res.Rows[0][0].AsInt(); got != total {
				errs <- fmt.Errorf("reader %d saw %d pre-image rows, want %d (uncommitted update leaked)", i, got, total)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := oneInt(t, w, "SELECT COUNT(*) FROM nation WHERE n_regionkey < 100"); got != total-10 {
		t.Fatalf("post-commit readers see %d untouched rows, want %d", got, total-10)
	}
}

// TestTxnMixedLedgerPartition is the write-path partition invariant under
// -race: 16 sessions over 4 workers, half running read queries, half
// running explicit transactions (insert + update + commit), and the
// session ledgers still sum exactly to the server total — transaction
// control energy (WAL fsyncs, undo walks) is attributed, never dropped.
func TestTxnMixedLedgerPartition(t *testing.T) {
	srv, addr := startServerCfg(t, server.Config{Workers: 4})

	const clients = 16
	actives := make([]float64, clients)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := client.Dial(addr, client.Options{Engine: "sqlite", Setting: "baseline", Class: "10MB"})
			if err != nil {
				errs <- fmt.Errorf("client %d: dial: %w", i, err)
				return
			}
			defer conn.Close()
			if i%2 == 0 {
				// Writer: one committed transaction over disjoint rows,
				// one rolled-back transaction.
				if _, err := conn.Begin(); err != nil {
					errs <- fmt.Errorf("writer %d: begin: %w", i, err)
					return
				}
				for _, stmt := range []string{
					fmt.Sprintf("INSERT INTO region VALUES (%d, 'W%d')", 1000+i, i),
					fmt.Sprintf("UPDATE nation SET n_name = 'W%d' WHERE n_nationkey = %d", i, i),
				} {
					if _, err := conn.Query(stmt); err != nil {
						errs <- fmt.Errorf("writer %d: %s: %w", i, stmt, err)
						return
					}
				}
				if err := conn.Commit(); err != nil {
					errs <- fmt.Errorf("writer %d: commit: %w", i, err)
					return
				}
				if _, err := conn.Begin(); err != nil {
					errs <- fmt.Errorf("writer %d: begin2: %w", i, err)
					return
				}
				if _, err := conn.Query(fmt.Sprintf("UPDATE nation SET n_name = 'X%d' WHERE n_nationkey = %d", i, i)); err != nil {
					errs <- fmt.Errorf("writer %d: update2: %w", i, err)
					return
				}
				if err := conn.Rollback(); err != nil {
					errs <- fmt.Errorf("writer %d: rollback: %w", i, err)
					return
				}
			} else {
				for q := 0; q < 2; q++ {
					if _, err := conn.Query(`\q6`); err != nil {
						errs <- fmt.Errorf("reader %d: %w", i, err)
						return
					}
				}
			}
			// The final read's report carries the session ledger total,
			// including every transaction-control statement before it.
			res, err := conn.Query("SELECT COUNT(*) FROM region")
			if err != nil {
				errs <- fmt.Errorf("client %d: final read: %w", i, err)
				return
			}
			actives[i] = res.Energy.SessionActive
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	sum := 0.0
	for _, a := range actives {
		sum += a
	}
	total := srv.Totals()
	if rel := math.Abs(sum-total.EActive) / total.EActive; rel > 1e-9 {
		t.Errorf("session ledgers (%g J) do not partition server total (%g J) with writers in the mix: rel err %g",
			sum, total.EActive, rel)
	}
	assertJoulesMatchLedgers(t, srv)
	stats := srv.TxnStats()
	if stats.Active != 0 || stats.Committed < 8 || stats.Aborted < 8 {
		t.Errorf("txn counters off: %+v (want 0 active, >=8 committed, >=8 aborted)", stats)
	}
}
