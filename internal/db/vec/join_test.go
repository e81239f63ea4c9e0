package vec

import (
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"energydb/internal/db/exec"
	"energydb/internal/db/value"
)

// joinResidual keeps probe.id < build.id (probe columns first, 5 each side).
func joinResidual() exec.Expr {
	return exec.BinOp{Op: exec.OpLt, L: col(0), R: col(5)}
}

// TestHashJoinMatchesRow is the differential check for the vectorized
// equijoin: on an identically seeded table, the batch join must produce
// exactly the row join's result — same multiset, same order (probe order ×
// bucket insertion order) — at every batch width, with and without a
// residual. The grp key has no NULLs; the price key has NULLs every 13th
// row, so the NULL-key paths run on both sides.
func TestHashJoinMatchesRow(t *testing.T) {
	for _, key := range []int{1, 2} { // grp (dense), price (sparse, NULLs)
		for _, residual := range []exec.Expr{nil, joinResidual()} {
			e, tbl := testEngine(t, 260)
			want, err := exec.Collect(&exec.HashJoin{
				Ctx: e.Ctx, Build: &exec.SeqScan{Ctx: e.Ctx, File: tbl.File}, Probe: &exec.SeqScan{Ctx: e.Ctx, File: tbl.File},
				BuildKey: key, ProbeKey: key, Residual: residual,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, batch := range []int{1, 3, 64, 1024} {
				ev, tv := testEngine(t, 260)
				got := collectVec(t, &HashJoin{
					Ctx:      ev.Ctx,
					Build:    &Scan{Ctx: ev.Ctx, File: tv.File, BatchSize: batch},
					Probe:    &Scan{Ctx: ev.Ctx, File: tv.File, BatchSize: batch},
					BuildKey: key, ProbeKey: key,
					Residual: residual, BatchSize: batch,
				})
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("key=%d residual=%v batch=%d: vector join differs from row join (%d vs %d rows)",
						key, residual != nil, batch, len(got), len(want))
				}
			}
		}
	}
}

// TestHashJoinNullKeysNeverMatch pins the vector join's NULL semantics with
// a hand-counted case: id%13==0 rows have a NULL price, and a price
// self-join must pair only the non-NULL keys — NULL = NULL contributes
// nothing.
func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	e, tbl := testEngine(t, 130)
	// Count the expected pairs by hand from the generator: price is
	// (i%97)/4 unless i%13==0 (NULL).
	freq := map[float64]int{}
	for i := 0; i < 130; i++ {
		if i%13 == 0 {
			continue
		}
		freq[float64(i%97)/4]++
	}
	want := 0
	for _, n := range freq {
		want += n * n
	}
	got := collectVec(t, &HashJoin{
		Ctx:      e.Ctx,
		Build:    &Scan{Ctx: e.Ctx, File: tbl.File},
		Probe:    &Scan{Ctx: e.Ctx, File: tbl.File},
		BuildKey: 2, ProbeKey: 2, BatchSize: 32,
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

// TestHashJoinEmptySides checks the degenerate cardinalities: an empty build
// side or an empty probe side yields zero rows without error.
func TestHashJoinEmptySides(t *testing.T) {
	never := exec.BinOp{Op: exec.OpLt, L: col(0), R: exec.Const{V: value.Int(-1)}}
	for _, tc := range []struct{ buildPred, probePred exec.Expr }{
		{never, nil}, {nil, never}, {never, never},
	} {
		e, tbl := testEngine(t, 80)
		n, err := exec.Drain(&RowSource{Child: &HashJoin{
			Ctx:      e.Ctx,
			Build:    &Scan{Ctx: e.Ctx, File: tbl.File, Pred: tc.buildPred},
			Probe:    &Scan{Ctx: e.Ctx, File: tbl.File, Pred: tc.probePred},
			BuildKey: 1, ProbeKey: 1,
		}})
		if err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Fatalf("empty-side join produced %d rows", n)
		}
	}
}

// TestSortMatchesRow is the differential check for the vectorized sort: same
// multi-key ordering as the row sort (both use a stable sort over identical
// arrival order, so the full row sequence must be equal), including a key
// column containing NULLs and a computed key expression. Both sorts share one
// comparator, so where a case gives an independent one the row sort must
// also match a stable sort of the scan's rows under it.
func TestSortMatchesRow(t *testing.T) {
	for _, c := range []struct {
		name string
		keys []exec.SortKey
		less func(a, b value.Row) bool
	}{
		{name: "asc, desc with NULLs, computed", keys: []exec.SortKey{
			{Expr: col(1)},             // grp asc
			{Expr: col(2), Desc: true}, // price desc, NULLs included
			{Expr: exec.BinOp{Op: exec.OpMul, L: col(0), R: exec.Const{V: value.Int(-1)}}},
		}},
		// Price repeats every 97 rows and is NULL every 13th; rows 91 apart
		// with a NULL price tie on both keys and keep their arrival order.
		{name: "desc with NULLs and ties, then asc", keys: []exec.SortKey{
			{Expr: col(2), Desc: true},
			{Expr: col(1)},
		}, less: func(a, b value.Row) bool {
			if pa, pb := a[2], b[2]; pa.IsNull() || pb.IsNull() {
				if pa.IsNull() != pb.IsNull() {
					return pb.IsNull() // NULL is the lowest value: last when descending
				}
			} else if pa.F != pb.F {
				return pa.F > pb.F
			}
			return a[1].I < b[1].I
		}},
	} {
		e, tbl := testEngine(t, 400)
		want, err := exec.Collect(&exec.Sort{Ctx: e.Ctx, Child: &exec.SeqScan{Ctx: e.Ctx, File: tbl.File}, Keys: c.keys})
		if err != nil {
			t.Fatal(err)
		}
		if c.less != nil {
			rows, err := exec.Collect(&exec.SeqScan{Ctx: e.Ctx, File: tbl.File})
			if err != nil {
				t.Fatal(err)
			}
			sort.SliceStable(rows, func(i, j int) bool { return c.less(rows[i], rows[j]) })
			if !reflect.DeepEqual(want, rows) {
				t.Fatalf("%s: row sort differs from a stable sort under the reference order", c.name)
			}
		}
		for _, batch := range []int{1, 7, 256, 1024} {
			ev, tv := testEngine(t, 400)
			got := collectVec(t, &Sort{
				Ctx:   ev.Ctx,
				Child: &Scan{Ctx: ev.Ctx, File: tv.File, BatchSize: batch},
				Keys:  c.keys, BatchSize: batch,
			})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, batch=%d: vector sort differs from row sort (%d vs %d rows)",
					c.name, batch, len(got), len(want))
			}
		}
	}
}

// TestSortEmpty checks the zero-row sort.
func TestSortEmpty(t *testing.T) {
	e, tbl := testEngine(t, 0)
	n, err := exec.Drain(&RowSource{Child: &Sort{
		Ctx: e.Ctx, Child: &Scan{Ctx: e.Ctx, File: tbl.File},
		Keys: []exec.SortKey{{Expr: col(0)}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("empty sort produced %d rows", n)
	}
}

// TestJoinSortMeterPartition checks the EXPLAIN ENERGY invariant on a mixed
// batch plan — scan → hash join → sort, every operator metered: the
// per-operator exclusive counters must sum exactly to the statement delta.
func TestJoinSortMeterPartition(t *testing.T) {
	e, tbl := testEngine(t, 300)
	ms := exec.NewMeterSet(e.Ctx)
	mBuild := &exec.Meter{Label: "scan-build"}
	mProbe := &exec.Meter{Label: "scan-probe"}
	mJoin := &exec.Meter{Label: "join", Kids: []*exec.Meter{mProbe, mBuild}}
	mSort := &exec.Meter{Label: "sort", Kids: []*exec.Meter{mJoin}}
	mTop := &exec.Meter{Label: "top", Kids: []*exec.Meter{mSort}}
	chain := &Metered{Set: ms, M: mSort, Child: &Sort{
		Ctx: e.Ctx,
		Child: &Metered{Set: ms, M: mJoin, Child: &HashJoin{
			Ctx:      e.Ctx,
			Build:    &Metered{Set: ms, M: mBuild, Child: &Scan{Ctx: e.Ctx, File: tbl.File, BatchSize: 64}},
			Probe:    &Metered{Set: ms, M: mProbe, Child: &Scan{Ctx: e.Ctx, File: tbl.File, BatchSize: 64}},
			BuildKey: 1, ProbeKey: 1,
			Residual: joinResidual(), BatchSize: 64,
		}},
		Keys: []exec.SortKey{{Expr: col(0)}, {Expr: col(5), Desc: true}},
	}}
	top := &exec.Metered{Set: ms, M: mTop, Child: &RowSource{Child: chain}}

	before := e.M.Hier.Counters()
	n, err := exec.Drain(top)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("mixed plan produced no rows")
	}
	delta := e.M.Hier.Counters().Sub(before)
	sum := mBuild.Own().Add(mProbe.Own()).Add(mJoin.Own()).Add(mSort.Own()).Add(mTop.Own())
	if sum != delta {
		t.Fatalf("metered sum %+v != statement delta %+v", sum, delta)
	}
	if inc := mTop.Inclusive(); inc != delta {
		t.Fatalf("root inclusive %+v != statement delta %+v", inc, delta)
	}
}

// TestCancelVecJoinSort checks that a pre-armed cancel flag stops the
// batch join and the batch sort at their per-batch checkpoints.
func TestCancelVecJoinSort(t *testing.T) {
	e, tbl := testEngine(t, 300)
	var flag atomic.Bool
	flag.Store(true)
	e.Ctx.Cancel = &flag
	_, err := exec.Drain(&RowSource{Child: &HashJoin{
		Ctx:      e.Ctx,
		Build:    &Scan{Ctx: e.Ctx, File: tbl.File, BatchSize: 32},
		Probe:    &Scan{Ctx: e.Ctx, File: tbl.File, BatchSize: 32},
		BuildKey: 1, ProbeKey: 1,
	}})
	if err != exec.ErrCanceled {
		t.Fatalf("join err = %v, want ErrCanceled", err)
	}
	_, err = exec.Drain(&RowSource{Child: &Sort{
		Ctx: e.Ctx, Child: &Scan{Ctx: e.Ctx, File: tbl.File, BatchSize: 32},
		Keys: []exec.SortKey{{Expr: col(0)}},
	}})
	if err != exec.ErrCanceled {
		t.Fatalf("sort err = %v, want ErrCanceled", err)
	}
}

// TestVecJoinCheaperPerRow checks the planner's crossover premise for joins:
// on a join big enough for batch kernels to amortize dispatch, the vector
// path retires fewer instructions and fewer L1D accesses than the row path.
func TestVecJoinCheaperPerRow(t *testing.T) {
	e, tbl := testEngine(t, 2000)
	before := e.M.Hier.Counters()
	if _, err := exec.Drain(&exec.HashJoin{
		Ctx: e.Ctx, Build: &exec.SeqScan{Ctx: e.Ctx, File: tbl.File}, Probe: &exec.SeqScan{Ctx: e.Ctx, File: tbl.File},
		BuildKey: 0, ProbeKey: 0,
	}); err != nil {
		t.Fatal(err)
	}
	rowDelta := e.M.Hier.Counters().Sub(before)

	before = e.M.Hier.Counters()
	if _, err := exec.Drain(&RowSource{Child: &HashJoin{
		Ctx:      e.Ctx,
		Build:    &Scan{Ctx: e.Ctx, File: tbl.File},
		Probe:    &Scan{Ctx: e.Ctx, File: tbl.File},
		BuildKey: 0, ProbeKey: 0,
	}}); err != nil {
		t.Fatal(err)
	}
	vecDelta := e.M.Hier.Counters().Sub(before)

	if vecDelta.L1DAccesses >= rowDelta.L1DAccesses {
		t.Errorf("vector join L1D %d >= row join L1D %d", vecDelta.L1DAccesses, rowDelta.L1DAccesses)
	}
	if vecDelta.Instructions() >= rowDelta.Instructions() {
		t.Errorf("vector join instructions %d >= row join instructions %d",
			vecDelta.Instructions(), rowDelta.Instructions())
	}
}
