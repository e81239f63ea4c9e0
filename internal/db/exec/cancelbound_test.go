package exec_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/db/engine"
	"energydb/internal/db/exec"
	"energydb/internal/db/plan"
	"energydb/internal/db/sql"
	"energydb/internal/memsim"
	"energydb/internal/tpch"
)

// Cancellation latency bounds, in simulator events: one event is one call
// into the hierarchy's Recorder (a load, a store, a repeated load or store,
// or a block of instructions). A row plan passes a checkpoint on every tuple
// an operator charges, on every row a sort or an aggregate emits and every
// pollStride (256) elements of a buffer loop: the bound is one stride at up
// to eight events an element (the longest measured stretch is 1 280, a
// sort's key extraction). A vector plan passes one per batch per operator:
// the bound is one batch (MaxBatch, 1024 rows) at up to 32 events a row (the
// longest measured is 18 449, an index join's descent of one batch of probe
// keys). DESIGN.md §10 has the derivation.
const (
	cancelBoundRow = 2048
	cancelBoundVec = 32768
)

// TestCancelWithinBound holds the cancellation rule at run time: no stretch
// of either executor's work between two checkpoints (Ctx.TupleCost, Poll,
// PollEvery) is longer than the bound, so a statement timeout stops any
// statement within about one batch, or one pollStride of a buffer loop, of
// work. On the PostgreSQL profile at 10MB — the profile whose plans hold row
// hash joins — it runs the 22 TPC-H texts, the seven basic operations, an
// equijoin whose row plan hashes every lineitem row, an UPDATE and a DELETE,
// each in its row plan (DisableVectorExec) and its vector plan. A first run
// measures, from the hierarchy's recorder, every gap between checkpoints;
// the longest must be within the bound. Then the
// statement runs again with its cancel flag raised by the recorder at the
// start of that longest gap and at seeded points through the run, and must
// return exec.ErrCanceled, or finish, within the bound each time. A loop
// that stops polling shows as a gap as long as the rest of the loop:
// dropping the key-extraction PollEvery of Sort.Open, the comparator Poll of
// SortRun.Order or the build PollEvery of HashJoin.Open fails here (the
// lineitem build then runs 17 827 events, almost nine bounds, unpolled). The
// event stream is deterministic, so the test is; -short raises the flag at
// fewer seeded points.
func TestCancelWithinBound(t *testing.T) {
	points := 6
	if testing.Short() {
		points = 1
	}
	e := engine.New(engine.PostgreSQL, cpusim.NewMachine(cpusim.IntelI7_4790()), engine.SettingBaseline)
	tpch.Setup(e, tpch.Size10MB)
	var canceled atomic.Bool
	e.Ctx.Cancel = &canceled
	// issued counts the run's events; since counts those after the last
	// checkpoint, and gap and gapAt keep the longest such stretch and the
	// event it began at.
	var issued, since, gap, gapAt, raiseAt, passed uint64
	e.M.Hier.SetRecorder(func(memsim.AccessKind, uint64, uint64) {
		issued++
		if c := e.Ctx.Checkpoints(); c != passed {
			passed, since = c, 0
		}
		if since++; since > gap {
			gap, gapAt = since, issued-since+1
		}
		if issued == raiseAt {
			canceled.Store(true)
		}
	})
	// run drains a fresh build of p with the flag raised at event at (never,
	// for 0) and returns how many events it issued and its longest stretch
	// without a checkpoint, with the event that stretch began at. A write
	// runs in a transaction that is rolled back after it, so every run of it
	// starts from the same table.
	run := func(p *plan.Prepared, write bool, at uint64) (n, longest, longestAt uint64, err error) {
		op, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		tx := e.Begin()
		e.Bind(tx)
		canceled.Store(false)
		issued, since, gap, gapAt, raiseAt, passed = 0, 0, 0, 0, at, e.Ctx.Checkpoints()
		_, err = exec.Drain(op)
		n, longest, longestAt, raiseAt = issued, gap, gapAt, 0
		canceled.Store(false)
		end := e.Commit
		if write {
			end = e.Rollback
		}
		if endErr := end(tx); endErr != nil {
			t.Fatal(endErr)
		}
		e.Unbind()
		return n, longest, longestAt, err
	}
	rng := rand.New(rand.NewSource(51))
	for _, s := range cancelStatements(t) {
		_, read := s.stmt.(*sql.SelectStmt)
		for _, row := range []bool{true, false} {
			name := fmt.Sprintf("%s row=%v", s.label, row)
			e.Knobs.DisableVectorExec = row
			bound := uint64(cancelBoundVec)
			if row {
				bound = cancelBoundRow
			}
			p, err := plan.Prepare(e, s.stmt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			total, longest, longestAt, err := run(p, !read, 0)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if longest > bound {
				t.Errorf("%s: %d events from event %d of %d pass no checkpoint (bound %d)", name, longest, longestAt, total, bound)
				continue
			}
			at := []uint64{longestAt}
			for range points {
				at = append(at, 1+uint64(rng.Int63n(int64(total))))
			}
			for _, k := range at {
				n, _, _, err := run(p, !read, k)
				if err != nil && !errors.Is(err, exec.ErrCanceled) {
					t.Fatalf("%s canceled at event %d: %v", name, k, err)
				}
				if n > k && n-k > bound {
					t.Errorf("%s: canceled at event %d of %d, it issued %d more (bound %d)", name, k, total, n-k, bound)
				}
			}
			t.Logf("%s: %d events, longest gap %d from event %d", name, total, longest, longestAt)
		}
	}
}

// cancelStatement is one statement TestCancelWithinBound cancels.
type cancelStatement struct {
	label string
	stmt  sql.Statement
}

// cancelStatements parses the 22 TPC-H texts, the seven basic operations, a
// join of orders and lineitem on two unindexed price columns (the row plan
// builds its hash table from all 5 937 lineitem rows, where the largest TPC-H
// build holds 784), an UPDATE of every lineitem row and a DELETE of about a
// fifth of orders.
func cancelStatements(t *testing.T) []cancelStatement {
	var texts [][2]string
	for _, q := range tpch.SQLQueries() {
		texts = append(texts, [2]string{fmt.Sprintf("Q%d", q.ID), q.Text})
	}
	for _, op := range tpch.BasicOps() {
		texts = append(texts, [2]string{op.Name, op.Text})
	}
	texts = append(texts,
		[2]string{"hash build", "SELECT COUNT(*) FROM orders JOIN lineitem ON o_totalprice = l_extendedprice"},
		[2]string{"update", "UPDATE lineitem SET l_quantity = l_quantity + 1"},
		[2]string{"delete", "DELETE FROM orders WHERE o_orderpriority = '5-LOW'"})
	out := make([]cancelStatement, len(texts))
	for i, lt := range texts {
		stmt, err := sql.ParseStatement(lt[1])
		if err != nil {
			t.Fatalf("%s: %v", lt[0], err)
		}
		out[i] = cancelStatement{lt[0], stmt}
	}
	return out
}
