package server

import (
	"net"
	"testing"

	"energydb/internal/memsim"
	"energydb/internal/server/client"
)

// cancelAfterOps is how many simulated micro-operations a statement issues
// before TestFailedStatementEnergyConserved raises its cancel flag: about a
// third of what TPC-H Q1 issues on the SQLite profile at 10MB, so the
// statement is canceled mid-flight with joules well above the meter's
// resolution already spent.
const cancelAfterOps = 100_000

// TestFailedStatementEnergyConserved checks the pipeline's retire contract
// end to end on the error path: a statement canceled partway through has
// really spent simulated joules, and dropping its measured breakdown would
// break the session-ledgers-partition-the-server-total invariant. The cancel
// is an event, not a timer: an access recorder on the worker's hierarchy
// counts what the running statement issues and raises that statement's own
// cancel flag once cancelAfterOps have been charged, so on any host the
// statement stops at its next checkpoint with that work done. Its energy
// must reach the ledger; the query count must still read 0.
func TestFailedStatementEnergyConserved(t *testing.T) {
	srv, err := New(Config{Workers: 1, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	conn, err := client.Dial(l.Addr().String(), client.Options{Engine: "sqlite", Setting: "baseline", Class: "10MB"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// The recorder runs on the worker goroutine, which owns the machine and
	// the engine views, and counts only inside a statement's guarded region,
	// where the view's Ctx carries the statement's cancel flag.
	wk := srv.workers[0]
	issued := uint64(0)
	if err := wk.submit(func() {
		wk.m.Hier.SetRecorder(func(_ memsim.AccessKind, _ uint64, n uint64) {
			for _, e := range wk.engines {
				if c := e.Ctx.Cancel; c != nil {
					if issued += n; issued >= cancelAfterOps {
						c.Store(true)
					}
				}
			}
		})
	}); err != nil {
		t.Fatal(err)
	}

	before := srv.Totals()
	if _, err := conn.Query(`\q1`); err == nil {
		t.Fatal("expected the statement to be canceled")
	} else if _, ok := err.(*client.QueryError); !ok {
		t.Fatalf("expected QueryError (session kept open), got %T: %v", err, err)
	}
	tot := srv.Totals()
	if tot.Queries != before.Queries {
		t.Fatalf("canceled statement counted as retired: %d queries", tot.Queries-before.Queries)
	}
	if tot.EActive <= before.EActive {
		t.Fatalf("canceled statement's measured energy was dropped: EActive %v -> %v", before.EActive, tot.EActive)
	}
}
