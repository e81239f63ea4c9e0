package vec

import (
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"energydb/internal/db/catalog"
	"energydb/internal/db/engine"
	"energydb/internal/db/exec"
	"energydb/internal/db/txn"
	"energydb/internal/db/value"
	"energydb/internal/memsim"
)

// indexedEngine is testEngine with indexes on id (unique), grp (seven values,
// so every key fans out to a seventh of the table) and price (NULL every
// 13th row).
func indexedEngine(t testing.TB, rows int) (*engine.Engine, *engine.Table) {
	t.Helper()
	e, tbl := testEngine(t, rows)
	for _, col := range []string{"id", "grp", "price"} {
		e.CreateIndex(tbl, col)
	}
	return e, tbl
}

// meteredPair drains a row operator and a vector operator on two identically
// seeded engines, each under its own meter (kid is the meter for a child, if
// the operator has one), and requires identical rows in identical order and,
// on both sides, per-operator counters that sum exactly to the statement's
// counter delta.
func meteredPair(t *testing.T, label string, er, ev *engine.Engine, row func(ms *exec.MeterSet, kid *exec.Meter) exec.Operator, vec func(ms *exec.MeterSet, kid *exec.Meter) Operator) (mRow, mVec *exec.Meter) {
	t.Helper()
	run := func(e *engine.Engine, build func(ms *exec.MeterSet, top, kid *exec.Meter) exec.Operator) ([]value.Row, *exec.Meter) {
		ms := exec.NewMeterSet(e.Ctx)
		kid := &exec.Meter{Label: "child"}
		top := &exec.Meter{Label: "op", Kids: []*exec.Meter{kid}}
		before := e.M.Hier.Counters()
		rows, err := exec.Collect(build(ms, top, kid))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if sum, delta := top.Own().Add(kid.Own()), e.M.Hier.Counters().Sub(before); sum != delta {
			t.Fatalf("%s: metered counters do not partition the statement delta:\n sum   %+v\n delta %+v", label, sum, delta)
		}
		return rows, top
	}
	want, mRow := run(er, func(ms *exec.MeterSet, top, kid *exec.Meter) exec.Operator {
		return &exec.Metered{Set: ms, M: top, Child: row(ms, kid)}
	})
	got, mVec := run(ev, func(ms *exec.MeterSet, top, kid *exec.Meter) exec.Operator {
		return &RowSource{Child: &Metered{Set: ms, M: top, Child: vec(ms, kid)}}
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: vector result differs from row result (%d vs %d rows)", label, len(got), len(want))
	}
	return mRow, mVec
}

func ptr(v value.Value) *value.Value { return &v }

// TestIndexScanMatchesRow is the differential check for the batched index
// scan: on identically seeded tables it must return the row index scan's rows
// in the row index scan's order — open, closed, half-open and empty ranges,
// with and without a residual, at every batch width — and both meters must
// partition their statement exactly.
func TestIndexScanMatchesRow(t *testing.T) {
	ranges := []struct {
		col    string
		lo, hi *value.Value
	}{
		{"id", nil, nil},
		{"id", ptr(value.Int(100)), ptr(value.Int(349))},
		{"id", ptr(value.Int(590)), nil},
		{"id", nil, ptr(value.Int(3))},
		{"id", ptr(value.Int(900)), ptr(value.Int(950))}, // past the last key
		{"id", ptr(value.Int(40)), ptr(value.Int(39))},   // lo above hi
		{"grp", ptr(value.Int(2)), ptr(value.Int(4))},    // long runs of duplicates
		{"price", ptr(value.Float(3)), ptr(value.Float(9.5))},
	}
	for _, r := range ranges {
		for _, residual := range []exec.Expr{nil, testPred()} {
			for _, batch := range []int{1, 3, 64, 1024} {
				er, tr := indexedEngine(t, 600)
				ev, tv := indexedEngine(t, 600)
				label := fmt.Sprintf("%s [%v, %v] residual=%v batch=%d", r.col, r.lo, r.hi, residual != nil, batch)
				meteredPair(t, label, er, ev,
					func(*exec.MeterSet, *exec.Meter) exec.Operator {
						return &exec.IndexScan{Ctx: er.Ctx, File: tr.File, Tree: tr.Index(r.col), Lo: r.lo, Hi: r.hi, Filter: residual}
					},
					func(*exec.MeterSet, *exec.Meter) Operator {
						return &IndexScan{Ctx: ev.Ctx, File: tv.File, Tree: tv.Index(r.col), Lo: r.lo, Hi: r.hi, Filter: residual, BatchSize: batch}
					})
			}
		}
	}
}

// TestIndexJoinMatchesRow is the differential check for the batched index
// join: same rows in the same order (probe order, then index order within a
// key) as the row index nested loop, for a unique key, a key whose duplicates
// fan out far past one output batch, and a key with NULLs on both sides, with
// and without a residual over the joined row, at every batch width.
func TestIndexJoinMatchesRow(t *testing.T) {
	residual := exec.BinOp{Op: exec.OpLt, L: col(0), R: col(5)} // probe.id < inner.id
	for key, name := range map[int]string{0: "id", 1: "grp", 2: "price"} {
		for _, res := range []exec.Expr{nil, residual} {
			for _, batch := range []int{1, 3, 64, 1024} {
				er, tr := indexedEngine(t, 260)
				ev, tv := indexedEngine(t, 260)
				label := fmt.Sprintf("key=%s residual=%v batch=%d", name, res != nil, batch)
				_, mVec := meteredPair(t, label, er, ev,
					func(ms *exec.MeterSet, kid *exec.Meter) exec.Operator {
						return &exec.IndexJoin{
							Ctx: er.Ctx, Outer: &exec.Metered{Set: ms, M: kid, Child: &exec.SeqScan{Ctx: er.Ctx, File: tr.File, Filter: testPred()}},
							Inner: tr.File, Index: tr.Index(name), OuterKey: key, Residual: res,
						}
					},
					func(ms *exec.MeterSet, kid *exec.Meter) Operator {
						return &IndexJoin{
							Ctx: ev.Ctx, Probe: &Metered{Set: ms, M: kid, Child: &Scan{Ctx: ev.Ctx, File: tv.File, Pred: testPred(), BatchSize: batch}},
							Inner: tv.File, Index: tv.Index(name), ProbeKey: key, Residual: res, BatchSize: batch,
						}
					})
				// 37 matches a probe row: at width 3 every output batch but the
				// last fills up, most of them mid-key.
				if out := mVec.Emitted(); name == "grp" && batch == 3 &&
					(out.Positions <= (out.Batches-1)*batch || out.Positions > out.Batches*batch) {
					t.Fatalf("%s: %d positions in %d batches", label, out.Positions, out.Batches)
				}
			}
		}
	}

	// Hand-made probe batches of four against grp (values 0..6, 37 rows
	// each): one all NULL, so its batch descent has no key at all; one
	// mixing NULL, a repeated key and an absent one; one of an absent key,
	// a NULL and a repeated key.
	keys := []value.Value{
		value.Null(), value.Null(), value.Null(), value.Null(),
		value.Int(3), value.Null(), value.Int(3), value.Int(99),
		value.Int(-1), value.Int(6), value.Null(), value.Int(6),
	}
	probeTable := func(e *engine.Engine) *engine.Table {
		p := e.CreateTable("p", catalog.NewSchema(catalog.Column{Name: "k", Type: value.TypeInt}))
		for _, k := range keys {
			e.Insert(p, value.Row{k})
		}
		return p
	}
	for _, batch := range []int{1, 3, 64} {
		er, tr := indexedEngine(t, 260)
		ev, tv := indexedEngine(t, 260)
		pr, pv := probeTable(er), probeTable(ev)
		label := fmt.Sprintf("hand-made probe batches, batch=%d", batch)
		_, mVec := meteredPair(t, label, er, ev,
			func(ms *exec.MeterSet, kid *exec.Meter) exec.Operator {
				return &exec.IndexJoin{
					Ctx: er.Ctx, Outer: &exec.Metered{Set: ms, M: kid, Child: &exec.SeqScan{Ctx: er.Ctx, File: pr.File}},
					Inner: tr.File, Index: tr.Index("grp"), OuterKey: 0,
				}
			},
			func(ms *exec.MeterSet, kid *exec.Meter) Operator {
				return &IndexJoin{
					Ctx: ev.Ctx, Probe: &Metered{Set: ms, M: kid, Child: &Scan{Ctx: ev.Ctx, File: pv.File, BatchSize: 4}},
					Inner: tv.File, Index: tv.Index("grp"), ProbeKey: 0, BatchSize: batch,
				}
			})
		if mVec.Rows() != 4*37 {
			t.Fatalf("%s: %d rows, want %d", label, mVec.Rows(), 4*37)
		}
	}

	// What the join holds for a probe batch is one key, selection index and
	// iterator (a descent stack as deep as the tree) per probe row, whatever
	// a key matches: as much for grp (37
	// matches a row) as for id (one), at an output width that splits every
	// grp key across batches.
	held := func(index string, key int) []int {
		e, tbl := indexedEngine(t, 260)
		j := &IndexJoin{
			Ctx: e.Ctx, Probe: &Scan{Ctx: e.Ctx, File: tbl.File, BatchSize: 16},
			Inner: tbl.File, Index: tbl.Index(index), ProbeKey: key, BatchSize: 3,
		}
		collectVec(t, j)
		return []int{cap(j.keys), cap(j.sel), cap(j.its)}
	}
	if grp, id := held("grp", 1), held("id", 0); !slices.Equal(grp, id) || !slices.Equal(grp, []int{16, 16, 16}) {
		t.Fatalf("per probe batch of 16 the grp join holds %v keys, selection indexes and iterators, the id join %v", grp, id)
	}
}

// TestIndexJoinNullKeysNeverMatch pins the NULL semantics with a hand-counted
// case: every 13th row has a NULL price on both sides, NULL entries are in
// the index, and a price self-join pairs only the non-NULL keys.
func TestIndexJoinNullKeysNeverMatch(t *testing.T) {
	e, tbl := indexedEngine(t, 130)
	freq := map[float64]int{}
	for i := 0; i < 130; i++ {
		if i%13 != 0 {
			freq[float64(i%97)/4]++
		}
	}
	want := 0
	for _, n := range freq {
		want += n * n
	}
	got := collectVec(t, &IndexJoin{
		Ctx: e.Ctx, Probe: &Scan{Ctx: e.Ctx, File: tbl.File},
		Inner: tbl.File, Index: tbl.Index("price"), ProbeKey: 2, BatchSize: 32,
	})
	if len(got) != want {
		t.Fatalf("NULL-key join produced %d rows, want %d", len(got), want)
	}
	for _, r := range got {
		if r[2].IsNull() || r[7].IsNull() {
			t.Fatalf("joined row carries a NULL key: %v", r)
		}
	}
}

// TestIndexOpsDropInvisibleEntries checks both operators under MVCC: an index
// entry whose heap version the snapshot cannot see — an insert still
// uncommitted in another transaction, a row whose delete committed — is
// fetched, found invisible and dropped, exactly as the row operators drop it.
func TestIndexOpsDropInvisibleEntries(t *testing.T) {
	setup := func() (*engine.Engine, *engine.Table) {
		e, tbl := indexedEngine(t, 200)
		if n, err := e.Autocommit(func(*txn.Txn) (int, error) {
			grp3 := exec.BinOp{Op: exec.OpEq, L: col(1), R: exec.Const{V: value.Int(3)}}
			return exec.Drain(&engine.Write{E: e, T: tbl, Child: &exec.SeqScan{Ctx: e.Ctx, File: tbl.File, Filter: grp3}})
		}); err != nil || n == 0 {
			t.Fatalf("delete: %d rows, %v", n, err)
		}
		tx := e.Begin()
		for i := 0; i < 40; i++ {
			e.InsertTxn(tx, tbl, value.Row{value.Int(int64(50 + i)), value.Int(int64(i % 7)), value.Float(1), value.Str("new"), value.Date(1)})
		}
		e.Unbind() // tx stays open; the reader below runs under a fresh snapshot
		return e, tbl
	}
	er, tr := setup()
	ev, tv := setup()
	lo, hi := ptr(value.Int(20)), ptr(value.Int(120))
	mRow, mVec := meteredPair(t, "index scan", er, ev,
		func(*exec.MeterSet, *exec.Meter) exec.Operator {
			return &exec.IndexScan{Ctx: er.Ctx, File: tr.File, Tree: tr.Index("id"), Lo: lo, Hi: hi}
		},
		func(*exec.MeterSet, *exec.Meter) Operator {
			return &IndexScan{Ctx: ev.Ctx, File: tv.File, Tree: tv.Index("id"), Lo: lo, Hi: hi, BatchSize: 16}
		})
	// ids 20..120, a seventh of them deleted, none of the 40 uncommitted
	// duplicates of ids 50..89 visible.
	if want := 101 - 14; mRow.Rows() != want || mVec.Rows() != want {
		t.Fatalf("index scan saw %d (row) and %d (vector) rows, want %d", mRow.Rows(), mVec.Rows(), want)
	}

	er, tr = setup()
	ev, tv = setup()
	meteredPair(t, "index join", er, ev,
		func(ms *exec.MeterSet, kid *exec.Meter) exec.Operator {
			return &exec.IndexJoin{
				Ctx: er.Ctx, Outer: &exec.Metered{Set: ms, M: kid, Child: &exec.SeqScan{Ctx: er.Ctx, File: tr.File}},
				Inner: tr.File, Index: tr.Index("grp"), OuterKey: 1,
			}
		},
		func(ms *exec.MeterSet, kid *exec.Meter) Operator {
			return &IndexJoin{
				Ctx: ev.Ctx, Probe: &Metered{Set: ms, M: kid, Child: &Scan{Ctx: ev.Ctx, File: tv.File, BatchSize: 16}},
				Inner: tv.File, Index: tv.Index("grp"), ProbeKey: 1, BatchSize: 16,
			}
		})
}

// TestCancelIndexOps checks cancellation: a pre-armed flag stops both
// operators before they fetch anything, and a flag raised while a batch is
// queued stops the fetch primitive at that batch's emit, before it hands any
// row out — ReadRows reads a batch in two passes, so the uncancellable
// stretch is one batch width of ids.
func TestCancelIndexOps(t *testing.T) {
	e, tbl := indexedEngine(t, 600)
	var flag atomic.Bool
	flag.Store(true)
	e.Ctx.Cancel = &flag
	if _, err := exec.Drain(&RowSource{Child: &IndexScan{Ctx: e.Ctx, File: tbl.File, Tree: tbl.Index("id")}}); err != exec.ErrCanceled {
		t.Fatalf("index scan err = %v, want ErrCanceled", err)
	}
	if _, err := exec.Drain(&RowSource{Child: &IndexJoin{
		Ctx: e.Ctx, Probe: &Scan{Ctx: e.Ctx, File: tbl.File},
		Inner: tbl.File, Index: tbl.Index("grp"), ProbeKey: 1,
	}}); err != exec.ErrCanceled {
		t.Fatalf("index join err = %v, want ErrCanceled", err)
	}

	flag.Store(false)
	f := newFetcher(e.Ctx, tbl.File, tbl.Schema(), nil, MaxBatch)
	for id := 0; !f.full(); id++ {
		f.fetch(id%600, nil, 0)
	}
	flag.Store(true)
	b, err := func() (b *Batch, err error) {
		defer exec.RecoverCanceled(&err)
		return f.emit()
	}()
	if err != exec.ErrCanceled || b != nil {
		t.Fatalf("emitting a %d-row batch with the flag raised: batch %v, err = %v, want ErrCanceled", MaxBatch, b, err)
	}
}

// TestIndexJoinCheaperPerRow checks the planner's premise for index joins: on
// a probe side big enough to amortize the batch dispatches, the batched join
// retires fewer instructions and fewer L1D accesses than the row join.
func TestIndexJoinCheaperPerRow(t *testing.T) {
	run := func(vector bool) memsim.Counters {
		e, tbl := indexedEngine(t, 2000)
		var op exec.Operator = &exec.IndexJoin{Ctx: e.Ctx, Outer: &exec.SeqScan{Ctx: e.Ctx, File: tbl.File}, Inner: tbl.File, Index: tbl.Index("id"), OuterKey: 0}
		if vector {
			op = &RowSource{Child: &IndexJoin{Ctx: e.Ctx, Probe: &Scan{Ctx: e.Ctx, File: tbl.File}, Inner: tbl.File, Index: tbl.Index("id"), ProbeKey: 0}}
		}
		before := e.M.Hier.Counters()
		if _, err := exec.Drain(op); err != nil {
			t.Fatal(err)
		}
		return e.M.Hier.Counters().Sub(before)
	}
	row, vec := run(false), run(true)
	if vec.L1DAccesses >= row.L1DAccesses {
		t.Errorf("vector index join L1D %d >= row index join L1D %d", vec.L1DAccesses, row.L1DAccesses)
	}
	if vec.Instructions() >= row.Instructions() {
		t.Errorf("vector index join instructions %d >= row index join instructions %d", vec.Instructions(), row.Instructions())
	}
}
