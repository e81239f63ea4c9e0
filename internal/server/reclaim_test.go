package server_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"energydb/internal/db/value"
	"energydb/internal/server"
	"energydb/internal/server/client"
	"energydb/internal/tpch"
)

// TestLongReaderUnderReclamation runs the txn-mixed benchmark's writer beside
// an autocommit reader and a reader that holds one explicit transaction open
// across a thousand writer commits. The writer prunes version chains, reaps
// deleted rows and recycles the log all the while, so:
//
//   - the long reader re-reads the same hot keys and the same scan and must
//     get its first answer every time (repeatable read while chains are
//     pruned under it);
//   - what is kept for it is bounded by its snapshot — versions superseded and
//     rows deleted since it began, nothing older — and collapses once it
//     ends: at most one superseded version per hot key (chain length 2), no
//     dead row waiting after the next write;
//   - sessions that are connected but idle pin nothing;
//   - at rest, Totals is the sum of the session ledgers, and the energy
//     series read Totals: the mix's short writes can measure a negative
//     E_active, which a signed sum keeps and a counter would drop.
func TestLongReaderUnderReclamation(t *testing.T) {
	srv, addr := startServerCfg(t, server.Config{Workers: 3})
	dial := func() *client.Conn {
		t.Helper()
		conn, err := client.Dial(addr, client.Options{Engine: "postgresql", Setting: "baseline", Class: "10MB"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}
	writer, reader, long := dial(), dial(), dial()

	const hotKeys = 64
	orders := tpch.Generate(tpch.Size10MB, 7421).Orders
	rng := rand.New(rand.NewSource(3))
	hot := make([]int64, hotKeys)
	for i := range hot {
		hot[i] = orders[rng.Intn(len(orders))][0].I
	}
	const scan = "SELECT o_orderpriority, COUNT(*), SUM(o_totalprice) FROM orders " +
		"WHERE o_orderdate < '1995-01-01' GROUP BY o_orderpriority ORDER BY o_orderpriority"
	point := func(k int64) string {
		return fmt.Sprintf("SELECT o_totalprice FROM orders WHERE o_orderkey = %d", k)
	}

	// The writer's script, as bench/workload.go generates it; n numbers its
	// transactions across the phases of this test.
	n, updates, deletes := 0, 0, 0
	writeTxn := func(onlyUpdates bool) error {
		n++
		if _, err := writer.Begin(); err != nil {
			return err
		}
		stmts := []string{
			fmt.Sprintf("UPDATE orders SET o_totalprice = %d WHERE o_orderkey = %d", n, hot[n%hotKeys]),
			fmt.Sprintf("UPDATE nation SET n_regionkey = %d WHERE n_nationkey = 24", n),
		}
		if n%5 == 4 && !onlyUpdates {
			stmts = []string{
				fmt.Sprintf("INSERT INTO orders VALUES (%d, 0, 'O', 1.00, 2341, '5-LOW', 0)", 1_000_000+n),
				fmt.Sprintf("DELETE FROM orders WHERE o_orderkey = %d", 1_000_000+n-5),
			}
			deletes++
		} else {
			updates++
		}
		for _, s := range stmts {
			if _, err := writer.Query(s); err != nil {
				return fmt.Errorf("%s: %w", s, err)
			}
		}
		return writer.Commit()
	}
	atRest := func(when string) {
		t.Helper()
		tot, sess := srv.Totals(), srv.SessionTotals()
		if tot.Queries != sess.Queries || math.Abs(tot.EActive-sess.EActive) > 1e-9*tot.EActive {
			t.Errorf("%s: Totals (%d statements, %g J) is not the sum of the session ledgers (%d, %g J)",
				when, tot.Queries, tot.EActive, sess.Queries, sess.EActive)
		}
		assertJoulesMatchLedgers(t, srv)
	}
	// Every update transaction supersedes one version of a hot order and one
	// of the nation row; what has not been pruned is still linked.
	const rowsWritten = hotKeys + 1
	keptVersions := func() int {
		return 2*updates - int(srv.StoreStats().VersionsPruned)
	}

	// Warm-up: every hot key gets its second version, a few rows die.
	for i := 0; i < 2*hotKeys; i++ {
		if err := writeTxn(false); err != nil {
			t.Fatal(err)
		}
	}
	atRest("after the warm-up")
	if kept := keptVersions(); kept > rowsWritten {
		t.Fatalf("%d superseded versions linked before any reader began, want at most one per written row (%d)", kept, rowsWritten)
	}

	// The long reader opens its transaction and takes its first answers.
	if _, err := long.Begin(); err != nil {
		t.Fatal(err)
	}
	ask := func(conn *client.Conn, q string) []value.Row {
		res, err := conn.Query(q)
		if err != nil {
			t.Errorf("%s: %v", q, err)
			return nil
		}
		return res.Rows
	}
	questions := []string{scan}
	for _, k := range hot[:8] {
		questions = append(questions, point(k))
	}
	first := make([][]value.Row, len(questions))
	for i, q := range questions {
		first[i] = ask(long, q)
	}
	keptAtBegin, updatesAtBegin, deletesAtBegin := keptVersions(), updates, deletes

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the long reader re-reads under its one snapshot
		defer wg.Done()
		for round := 0; !stop.Load(); round++ {
			i := round % len(questions)
			if got := ask(long, questions[i]); !sameRows(got, first[i]) {
				t.Errorf("long reader, round %d: %s answered %v, first answer was %v", round, questions[i], got, first[i])
				return
			}
		}
	}()
	go func() { // the autocommit reader sees whole transactions only
		defer wg.Done()
		for round := 0; !stop.Load(); round++ {
			if round%8 == 0 {
				if rows := ask(reader, scan); len(rows) != len(first[0]) {
					t.Errorf("autocommit scan answered %d groups, want %d", len(rows), len(first[0]))
					return
				}
				continue
			}
			rows := ask(reader, point(hot[round%hotKeys]))
			if len(rows) != 1 {
				t.Errorf("autocommit point read answered %d rows", len(rows))
				return
			}
		}
	}()
	const commits = 1000
	var writeErr error
	for i := 0; i < commits && writeErr == nil; i++ {
		writeErr = writeTxn(false)
	}
	stop.Store(true)
	wg.Wait()
	if writeErr != nil {
		t.Fatal(writeErr)
	}

	// Bounded by the long reader's snapshot: nothing superseded or deleted
	// before it began is still held, only what came after.
	st := srv.StoreStats()
	if lag := st.OldestSnapshotLag; lag < commits {
		t.Errorf("oldest snapshot lags %d commits with a reader open across %d", lag, commits)
	}
	if kept, most := keptVersions(), keptAtBegin+2*(updates-updatesAtBegin); kept > most {
		t.Errorf("%d superseded versions linked, want at most the %d the long reader's snapshot can hold back", kept, most)
	}
	if most := deletes - deletesAtBegin + 1; st.DeadRowsPending > most {
		t.Errorf("%d dead rows pending, want at most the %d deleted since the long reader began", st.DeadRowsPending, most)
	}

	// The long reader ends; one pass of updates over the hot keys collapses
	// every chain and the next write finds nothing dead to wait for.
	if err := long.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < hotKeys+1; i++ {
		if err := writeTxn(true); err != nil {
			t.Fatal(err)
		}
	}
	atRest("after the long reader")
	st = srv.StoreStats()
	if kept := keptVersions(); kept > rowsWritten {
		t.Errorf("%d superseded versions still linked after the long reader ended, want at most one per written row (%d): chains longer than 2", kept, rowsWritten)
	}
	if st.DeadRowsPending != 0 || int(st.DeadRowsReaped) != deletes-1 {
		// The very first DELETE found no row: nothing to reap for it.
		t.Errorf("dead rows after the long reader ended: %d pending, %d reaped of %d deleted", st.DeadRowsPending, st.DeadRowsReaped, deletes-1)
	}
	if st.OldestSnapshotLag != 0 {
		t.Errorf("three connected, idle sessions hold the oldest snapshot %d commits back", st.OldestSnapshotLag)
	}
	if st.WALCheckpoints == 0 {
		t.Errorf("%d transactions and the log was never recycled (%d records retained)", n, st.WALRetained)
	}
}

// sameRows compares two result sets cell by cell, numbers to nine digits: the
// plan of a statement may change between two executions (statistics are
// re-collected, pages become resident), and with it the order a SUM adds in.
func sameRows(a, b []value.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j, x := range a[i] {
			y := b[i][j]
			if x.T == value.TypeStr || y.T == value.TypeStr {
				if x.T != y.T || x.S != y.S {
					return false
				}
			} else if math.Abs(x.AsFloat()-y.AsFloat()) > 1e-9*math.Abs(y.AsFloat()) {
				return false
			}
		}
	}
	return true
}
