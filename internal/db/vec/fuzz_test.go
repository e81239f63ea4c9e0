package vec

import (
	"math/rand"
	"reflect"
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/db/catalog"
	"energydb/internal/db/engine"
	"energydb/internal/db/exec"
	"energydb/internal/db/value"
	"energydb/internal/memsim"
)

// fuzzTable seeds a table covering every datum type (NULLs included) with
// deterministic pseudo-random content.
func fuzzTable(r *rand.Rand, rows int) (*engine.Engine, *engine.Table) {
	m := cpusim.NewMachine(cpusim.IntelI7_4790())
	e := engine.New(engine.SQLite, m, engine.SettingBaseline)
	tbl := e.CreateTable("t", catalog.NewSchema(
		catalog.Column{Name: "id", Type: value.TypeInt},
		catalog.Column{Name: "grp", Type: value.TypeInt},
		catalog.Column{Name: "price", Type: value.TypeFloat},
		catalog.Column{Name: "name", Type: value.TypeStr, Width: 8},
		catalog.Column{Name: "day", Type: value.TypeDate},
	))
	names := []string{"alpha", "beta", "gamma", "ax", ""}
	for i := 0; i < rows; i++ {
		price := value.Float(float64(r.Intn(500)) / 4)
		if r.Intn(11) == 0 {
			price = value.Null()
		}
		e.Insert(tbl, value.Row{
			value.Int(int64(r.Intn(2000))),
			value.Int(int64(r.Intn(6))),
			price,
			value.Str(names[r.Intn(len(names))]),
			value.Date(int64(r.Intn(365))),
		})
	}
	return e, tbl
}

// randPred draws a filter predicate of at least n conjuncts: random
// expressions joined by AND into a tree of random shape, so a filter
// program's conjuncts arrive in any nesting.
func randPred(r *rand.Rand, n int) exec.Expr {
	pred := randExpr(r, 2, 5)
	for i := 1; i < n; i++ {
		c := randExpr(r, 2, 5)
		if r.Intn(2) == 0 {
			pred = exec.BinOp{Op: exec.OpAnd, L: pred, R: c}
		} else {
			pred = exec.BinOp{Op: exec.OpAnd, L: c, R: pred}
		}
	}
	return pred
}

var fuzzOps = []exec.BinOpKind{
	exec.OpAdd, exec.OpSub, exec.OpMul, exec.OpDiv,
	exec.OpEq, exec.OpNe, exec.OpLt, exec.OpLe, exec.OpGt, exec.OpGe,
	exec.OpAnd, exec.OpOr,
}

var fuzzPatterns = []string{"a%", "%a", "%am%", "alpha", "", "%"}

// randExpr draws a random expression over the first ncols columns of the
// operator's schema, including shapes that demote vectors (mixed int/float
// arithmetic over nullable inputs), NULL propagation, and division by zero.
// Join residuals pass ncols=10 to range over the concatenated schema.
func randExpr(r *rand.Rand, depth, ncols int) exec.Expr {
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return exec.Const{V: value.Int(int64(r.Intn(100)))}
		case 1:
			return exec.Const{V: value.Float(float64(r.Intn(400)) / 4)}
		default:
			return exec.Col{Idx: r.Intn(ncols)}
		}
	}
	switch r.Intn(10) {
	case 0:
		return exec.Not{E: randExpr(r, depth-1, ncols)}
	case 1:
		return exec.Like{E: exec.Col{Idx: 3}, Pattern: fuzzPatterns[r.Intn(len(fuzzPatterns))]}
	case 2:
		list := make([]value.Value, r.Intn(3)+1)
		for i := range list {
			list[i] = value.Int(int64(r.Intn(8)))
		}
		return exec.InList{E: exec.Col{Idx: r.Intn(ncols)}, List: list}
	default:
		return exec.BinOp{
			Op: fuzzOps[r.Intn(len(fuzzOps))],
			L:  randExpr(r, depth-1, ncols),
			R:  randExpr(r, depth-1, ncols),
		}
	}
}

// runMetered drains op with every operator's meter registered in ms and
// checks two ledger invariants: the per-operator exclusive counters must
// sum exactly to the statement's counter delta (the EXPLAIN ENERGY
// partition), and whenever the statement emits rows, no operator on the
// plan may report zero charged micro-ops — every metered operator sits on
// the path that produced those rows, so a zero meter means its work went
// unattributed (a loop that moves data without charging the meter).
func runMetered(t *testing.T, e *engine.Engine, op exec.Operator, ms *exec.MeterSet, meters []*exec.Meter) []value.Row {
	t.Helper()
	before := e.M.Hier.Counters()
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatalf("execution failed: %v", err)
	}
	delta := e.M.Hier.Counters().Sub(before)
	var sum memsim.Counters
	for _, m := range meters {
		sum = sum.Add(m.Own())
	}
	if sum != delta {
		t.Fatalf("metered counters do not partition the statement delta:\n sum   %+v\n delta %+v", sum, delta)
	}
	if len(rows) > 0 {
		for _, m := range meters {
			if m.Own().Instructions() == 0 {
				t.Fatalf("operator %q reports zero charged micro-ops while the statement emitted %d rows (unattributed work)",
					m.Label, len(rows))
			}
		}
	}
	return rows
}

// tally is an exec.Sink that keeps only what no cache state can change: the
// arithmetic and plain instruction counts.
type tally struct {
	cm         exec.CostModel
	add, other float64
}

func (t *tally) Tuples(n float64)           { t.other += n * float64(t.cm.TupleInstr) }
func (t *tally) Evals(n float64, nodes int) { t.other += n * float64(nodes*t.cm.EvalInstr) }
func (t *tally) Emits(float64, int)         {}
func (t *tally) Loads(uint64, float64)      {}
func (t *tally) Stores(uint64, float64)     {}
func (t *tally) Stream(uint64, float64)     {}
func (t *tally) Adds(n float64)             { t.add += n }
func (t *tally) Others(n float64)           { t.other += n }

// Random is a load, which tally does not keep.
func (t *tally) Random(uint64, float64, float64, bool) {}

// checkCharges requires the meter's arithmetic and plain instruction counts
// to equal one evaluation of the operator's charge functions at the totals
// the run produced: charging batch by batch sums to the single evaluation
// the planner makes.
func checkCharges(t *testing.T, m *exec.Meter, want *tally) {
	t.Helper()
	got := m.Own()
	if float64(got.AddOps) != want.add || float64(got.OtherOps) != want.other {
		t.Fatalf("operator %q: charge functions at the observed totals give AddOps=%v OtherOps=%v, the meter has AddOps=%d OtherOps=%d",
			m.Label, want.add, want.other, got.AddOps, got.OtherOps)
	}
}

// checkIndexCharges holds a vectorized index operator to its charge
// functions, evaluated into want at the run's totals, against the row
// operator's run over identical data. c is what the operator's filter saw
// (In candidates, Out survivors) and nodes the filter's size. The B-tree
// charges its binary-search comparisons as plain instructions inside both
// meters, the same number of them in either mode, so the arithmetic count
// must be exact and the plain counts must differ from their schedules — the
// row one is exec.ChargeTuples per candidate — by the same amount.
func checkIndexCharges(t *testing.T, er *engine.Engine, mRow, mVec *exec.Meter, want *tally, c exec.Card, nodes int) {
	t.Helper()
	row := &tally{cm: er.Ctx.Cost}
	exec.ChargeTuples(row, c, nodes, 0)
	gotR, gotV := mRow.Own(), mVec.Own()
	if float64(gotV.AddOps) != want.add || float64(gotV.OtherOps)-want.other != float64(gotR.OtherOps)-row.other {
		t.Fatalf("operator %q: charge functions at the observed totals give AddOps=%v OtherOps=%v, the meter has AddOps=%d OtherOps=%d; the row operator's schedule gives OtherOps=%v of its %d",
			mVec.Label, want.add, want.other, gotV.AddOps, gotV.OtherOps, row.other, gotR.OtherOps)
	}
}

// randBound draws an index range bound for column ci of the fuzz table from
// the generator's domain, or nil (open) one time in four.
func randBound(r *rand.Rand, ci int) *value.Value {
	var v value.Value
	switch ci {
	case 0:
		v = value.Int(int64(r.Intn(2000)))
	case 1:
		v = value.Int(int64(r.Intn(6)))
	case 2:
		v = value.Float(float64(r.Intn(500)) / 4)
	case 3:
		v = value.Str([]string{"alpha", "beta", "gamma", "ax", ""}[r.Intn(5)])
	default:
		v = value.Date(int64(r.Intn(365)))
	}
	if r.Intn(4) == 0 {
		return nil
	}
	return &v
}

// conjunctCounts drains tested, a row operator producing the rows a filter
// tests, and counts the rows reaching each conjunct of pred and the rows
// leaving the last, each row's conjuncts evaluated in order by the row
// interpreter until one fails: the arrivals ChargeFilter is linear in, found
// without the vector filter.
func conjunctCounts(t *testing.T, pred exec.Expr, tested exec.Operator) []float64 {
	t.Helper()
	rows, err := exec.Collect(tested)
	if err != nil {
		t.Fatal(err)
	}
	conj := Conjuncts(pred)
	counts := make([]float64, len(conj)+1)
	for _, r := range rows {
		i := 0
		for ; i < len(conj); i++ {
			counts[i]++
			if !exec.Truthy(conj[i].Eval(r)) {
				break
			}
		}
		if i == len(conj) {
			counts[i]++
		}
	}
	return counts
}

// scanCharges evaluates a vectorized scan's charges at what its meter saw
// and at its filter's conjunct arrivals (conj), leaving in mat the state its
// predicate left each column in (Toucher); lines > 0 adds a RowSource
// boundary attributed to the scan.
func scanCharges(e *engine.Engine, m *exec.Meter, pred exec.Expr, conj []float64, mat map[int]ColState, lines int) *tally {
	batches := float64(m.Emitted().Batches)
	w := &tally{cm: e.Ctx.Cost}
	ChargeScan(w, exec.Card{Batches: batches}, 0)
	CompileFilter(pred).ChargeFilter(w, batches, conj, Toucher(w, mat))
	if lines > 0 {
		ChargeBoundary(w, exec.Card{Batches: batches, In: float64(m.Rows())}, lines, 0)
	}
	return w
}

// FuzzVecExec is the differential fuzzer for the vectorized engine: any
// random table, predicate and plan shape — projection (mode 0) and
// aggregation (mode 1), each over an expression list that repeats a subtree,
// hash join + sort (mode 2), a broken chain (mode 3: a row
// consumer over a RowSource-adapted vector scan, the transition the planner
// prices into a chain top's estimate), a projection
// over an index range scan on a random column with random bounds (mode 4) or
// an index join on random key columns with a random residual (mode 5) — must
// produce an identical result set, in identical order for the index
// operators, through the row and vector paths, and on both
// paths the per-operator metered counters must sum exactly to that path's
// statement counter delta (the EXPLAIN ENERGY partition invariant; in the
// broken-chain shape the adapter's boundary charges land on the chain-top
// scan's meter, exactly where the planner folds the transition price). Join
// keys include the price column, whose NULLs exercise the
// NULL-key-never-matches rule on both sides. On the vector path the scans,
// the projection and the aggregation are also held to their charge
// functions: one evaluation at the run's totals must reproduce the meter's
// arithmetic and plain instruction counts exactly (checkCharges). The index
// operators' plain instructions include the B-tree's binary-search
// comparisons, which depend on the data but not on the mode: there the
// arithmetic count must be exact and what the charge functions leave of the
// plain count must equal what the row schedule leaves of the row operator's
// (checkIndexCharges).
func FuzzVecExec(f *testing.F) {
	f.Add(int64(1), uint16(50), uint16(0), uint8(0))
	f.Add(int64(2), uint16(300), uint16(1), uint8(1))
	f.Add(int64(3), uint16(700), uint16(64), uint8(2))
	f.Add(int64(4), uint16(128), uint16(4096), uint8(1))
	f.Add(int64(5), uint16(1), uint16(7), uint8(2))
	f.Add(int64(6), uint16(0), uint16(13), uint8(2))
	f.Add(int64(7), uint16(211), uint16(97), uint8(5))
	f.Add(int64(8), uint16(420), uint16(32), uint8(3))
	f.Add(int64(9), uint16(500), uint16(16), uint8(4))
	f.Add(int64(10), uint16(333), uint16(1023), uint8(4))
	f.Add(int64(11), uint16(260), uint16(2), uint8(5))
	f.Add(int64(12), uint16(700), uint16(255), uint8(5))
	f.Add(int64(13), uint16(0), uint16(9), uint8(5))
	f.Add(int64(14), uint16(400), uint16(64), uint8(0))
	f.Add(int64(15), uint16(600), uint16(100), uint8(1))
	f.Add(int64(16), uint16(500), uint16(64), uint8(12))
	f.Add(int64(17), uint16(700), uint16(100), uint8(19))
	f.Add(int64(18), uint16(300), uint16(32), uint8(16))
	f.Add(int64(19), uint16(400), uint16(7), uint8(17))
	f.Add(int64(20), uint16(600), uint16(1024), uint8(15))
	f.Add(int64(21), uint16(250), uint16(16), uint8(14))
	f.Add(int64(22), uint16(777), uint16(128), uint8(18))
	// An aggregation whose filter's two conjuncts and GROUP BY key all read
	// price: the first conjunct's loop reads it from the rows, the second
	// stores it over the first one's survivors, the aggregate loads it.
	f.Add(int64(32), uint16(400), uint16(63), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, nRows, batch uint16, mode uint8) {
		rows := int(nRows) % 800
		batchSize := int(batch)%MaxBatch + 1
		shape := int(mode) % 6
		r := rand.New(rand.NewSource(seed))
		pred := randPred(r, 1+int(mode)/6%4)
		exprSeed := r.Int63()

		// Row path.
		er, tr := fuzzTable(rand.New(rand.NewSource(seed)), rows)
		msR := exec.NewMeterSet(er.Ctx)
		mScanR := &exec.Meter{Label: "scan"}
		mTopR := &exec.Meter{Label: "top", Kids: []*exec.Meter{mScanR}}
		scanR := &exec.Metered{Set: msR, M: mScanR, Child: &exec.SeqScan{Ctx: er.Ctx, File: tr.File, Filter: pred}}
		// What the scans' filters saw, per conjunct: every row of the table.
		scanned := func() []float64 { return conjunctCounts(t, pred, &exec.SeqScan{Ctx: er.Ctx, File: tr.File}) }

		// Vector path on an identically seeded engine.
		ev, tv := fuzzTable(rand.New(rand.NewSource(seed)), rows)
		msV := exec.NewMeterSet(ev.Ctx)
		mScanV := &exec.Meter{Label: "scan"}
		mTopV := &exec.Meter{Label: "top", Kids: []*exec.Meter{mScanV}}
		scanV := &Metered{Set: msV, M: mScanV, Child: &Scan{
			Ctx: ev.Ctx, File: tv.File, Pred: pred, BatchSize: batchSize,
		}}

		var want, got []value.Row
		switch shape {
		case 1:
			ra := rand.New(rand.NewSource(exprSeed))
			groupBy := []exec.Expr{exec.Col{Idx: ra.Intn(5)}}
			aggs := []exec.AggSpec{
				{Kind: exec.AggSum, Arg: randExpr(ra, 1, 5), Name: "s"},
				{Kind: exec.AggCount, Name: "n"},
				{Kind: exec.AggMin, Arg: exec.Col{Idx: ra.Intn(5)}, Name: "lo"},
			}
			// A second sum over the first one's argument: the program
			// evaluates and charges that argument once for both.
			aggs = append(aggs, exec.AggSpec{Kind: exec.AggSum, Name: "s2",
				Arg: exec.BinOp{Op: exec.OpMul, L: aggs[0].Arg, R: exec.Col{Idx: ra.Intn(5)}}})
			want = runMetered(t, er, &exec.Metered{Set: msR, M: mTopR, Child: &exec.GroupBy{
				Ctx: er.Ctx, Child: scanR, GroupBy: groupBy, Aggs: aggs,
			}}, msR, []*exec.Meter{mScanR, mTopR})
			got = runMetered(t, ev, &RowSource{
				Child: &Metered{Set: msV, M: mTopV, Child: &Agg{
					Ctx: ev.Ctx, Child: scanV, GroupBy: groupBy, Aggs: aggs,
				}},
			}, msV, []*exec.Meter{mScanV, mTopV})
			mat := map[int]ColState{}
			checkCharges(t, mScanV, scanCharges(ev, mScanV, pred, scanned(), mat, 0))
			in, groups := mScanV.Emitted(), mTopV.Emitted()
			arriving := exec.Card{Batches: float64(in.Batches), In: float64(mScanV.Rows())}
			w := &tally{cm: ev.Ctx.Cost}
			CompileAgg(groupBy, aggs).Charge(w, arriving, Toucher(w, mat))
			ChargeAggUpdate(w, arriving, len(aggs), 0)
			ChargeAggFinalize(w, exec.Card{Batches: 1, In: float64(mTopV.Rows())}, len(groupBy), len(aggs), 0)
			for i := 0; i < len(groupBy)+len(aggs); i++ {
				ChargeMaterialize(w, exec.Card{Batches: float64(groups.Batches), In: float64(groups.Positions)}, 0)
			}
			checkCharges(t, mTopV, w)
		case 2:
			// Hash join (random key columns on each side, NULLs included) under
			// a multi-key sort — the scan meters above feed the probe side; the
			// build side gets its own scan and meter.
			ra := rand.New(rand.NewSource(exprSeed))
			buildKey := ra.Intn(5)
			probeKey := ra.Intn(5)
			var residual exec.Expr
			if ra.Intn(2) == 0 {
				residual = randExpr(ra, 1, 10)
			}
			keys := make([]exec.SortKey, ra.Intn(2)+1)
			for i := range keys {
				keys[i] = exec.SortKey{Expr: exec.Col{Idx: ra.Intn(10)}, Desc: ra.Intn(2) == 0}
			}

			mBuildR := &exec.Meter{Label: "build"}
			mJoinR := &exec.Meter{Label: "join", Kids: []*exec.Meter{mScanR, mBuildR}}
			mTopR.Kids = []*exec.Meter{mJoinR}
			want = runMetered(t, er, &exec.Metered{Set: msR, M: mTopR, Child: &exec.Sort{
				Ctx: er.Ctx,
				Child: &exec.Metered{Set: msR, M: mJoinR, Child: &exec.HashJoin{
					Ctx:   er.Ctx,
					Build: &exec.Metered{Set: msR, M: mBuildR, Child: &exec.SeqScan{Ctx: er.Ctx, File: tr.File, Filter: pred}},
					Probe: scanR, BuildKey: buildKey, ProbeKey: probeKey,
					Residual: residual,
				}},
				Keys: keys,
			}}, msR, []*exec.Meter{mScanR, mBuildR, mJoinR, mTopR})

			mBuildV := &exec.Meter{Label: "build"}
			mJoinV := &exec.Meter{Label: "join", Kids: []*exec.Meter{mScanV, mBuildV}}
			mTopV.Kids = []*exec.Meter{mJoinV}
			got = runMetered(t, ev, &RowSource{
				Child: &Metered{Set: msV, M: mTopV, Child: &Sort{
					Ctx: ev.Ctx,
					Child: &Metered{Set: msV, M: mJoinV, Child: &HashJoin{
						Ctx: ev.Ctx,
						Build: &Metered{Set: msV, M: mBuildV, Child: &Scan{
							Ctx: ev.Ctx, File: tv.File, Pred: pred, BatchSize: batchSize,
						}},
						Probe: scanV, BuildKey: buildKey, ProbeKey: probeKey,
						Residual: residual, BatchSize: batchSize,
					}},
					Keys: keys, BatchSize: batchSize,
				}},
			}, msV, []*exec.Meter{mScanV, mBuildV, mJoinV, mTopV})
		case 3:
			// Broken chain: the vector scan is a chain top adapted back to
			// rows mid-plan, feeding a row-mode aggregate. The RowSource's
			// boundary charges are attributed to the chain-top scan's meter
			// (Set/M), so the partition check proves the transition cost
			// lands exactly where the planner prices it.
			ra := rand.New(rand.NewSource(exprSeed))
			groupBy := []exec.Expr{exec.Col{Idx: ra.Intn(5)}}
			aggs := []exec.AggSpec{
				{Kind: exec.AggSum, Arg: randExpr(ra, 1, 5), Name: "s"},
				{Kind: exec.AggCount, Name: "n"},
			}
			want = runMetered(t, er, &exec.Metered{Set: msR, M: mTopR, Child: &exec.GroupBy{
				Ctx: er.Ctx, Child: scanR, GroupBy: groupBy, Aggs: aggs,
			}}, msR, []*exec.Meter{mScanR, mTopR})
			got = runMetered(t, ev, &exec.Metered{Set: msV, M: mTopV, Child: &exec.GroupBy{
				Ctx: ev.Ctx,
				Child: &RowSource{
					Ctx: ev.Ctx, Set: msV, M: mScanV,
					Child: scanV,
				},
				GroupBy: groupBy, Aggs: aggs,
			}}, msV, []*exec.Meter{mScanV, mTopV})
			checkCharges(t, mScanV, scanCharges(ev, mScanV, pred, scanned(), map[int]ColState{}, RowLines(tv.Schema().RowWidth())))
		case 4:
			// Index range scan on a random column between random bounds (either
			// may be open, the range may be empty or inverted), the predicate as
			// its residual, under a projection that materializes columns of the
			// fetched batches.
			ra := rand.New(rand.NewSource(exprSeed))
			ci := ra.Intn(5)
			lo, hi := randBound(ra, ci), randBound(ra, ci)
			exprs := make([]exec.Expr, ra.Intn(3)+1)
			for i := range exprs {
				exprs[i] = randExpr(ra, 2, 5)
			}
			name := tr.Schema().Columns[ci].Name
			er.CreateIndex(tr, name)
			ev.CreateIndex(tv, name)
			rowScan := &exec.IndexScan{Ctx: er.Ctx, File: tr.File, Tree: tr.Index(name), Lo: lo, Hi: hi, Filter: pred}
			want = runMetered(t, er, &exec.Metered{Set: msR, M: mTopR, Child: &exec.Project{
				Ctx: er.Ctx, Child: &exec.Metered{Set: msR, M: mScanR, Child: rowScan}, Exprs: exprs,
			}}, msR, []*exec.Meter{mScanR, mTopR})
			got = runMetered(t, ev, &RowSource{
				Child: &Metered{Set: msV, M: mTopV, Child: &Project{
					Ctx: ev.Ctx, Exprs: exprs,
					Child: &Metered{Set: msV, M: mScanV, Child: &IndexScan{
						Ctx: ev.Ctx, File: tv.File, Tree: tv.Index(name), Lo: lo, Hi: hi, Filter: pred, BatchSize: batchSize,
					}},
				}},
			}, msV, []*exec.Meter{mScanV, mTopV})
			out := mScanV.Emitted()
			fetched := exec.Card{Batches: float64(out.Batches), In: float64(out.Positions), Out: float64(out.Positions)}
			w := &tally{cm: ev.Ctx.Cost}
			ChargeFetch(w, fetched, 0)
			fetched.Out = float64(mScanV.Rows())
			mat := map[int]ColState{}
			inRange := &exec.IndexScan{Ctx: er.Ctx, File: tr.File, Tree: tr.Index(name), Lo: lo, Hi: hi}
			CompileFilter(pred).ChargeFilter(w, fetched.Batches, conjunctCounts(t, pred, inRange), Toucher(w, mat))
			checkIndexCharges(t, er, mScanR, mScanV, w, fetched, exec.ExprNodes(pred))
			arriving := exec.Card{Batches: fetched.Batches, In: fetched.Out}
			w = &tally{cm: ev.Ctx.Cost}
			ChargeDispatch(w, arriving)
			Compile(exprs...).Charge(w, arriving, Toucher(w, mat))
			checkCharges(t, mTopV, w)
		case 5:
			// Index join of the filtered scan to the same table through an
			// index on a random column (key types may differ: then nothing
			// matches, on either path), with an optional residual over the
			// joined row.
			ra := rand.New(rand.NewSource(exprSeed))
			probeKey := ra.Intn(5)
			name := tr.Schema().Columns[ra.Intn(5)].Name
			var residual exec.Expr
			if ra.Intn(2) == 0 {
				residual = randExpr(ra, 1, 10)
			}
			er.CreateIndex(tr, name)
			ev.CreateIndex(tv, name)
			want = runMetered(t, er, &exec.Metered{Set: msR, M: mTopR, Child: &exec.IndexJoin{
				Ctx: er.Ctx, Outer: scanR, Inner: tr.File, Index: tr.Index(name), OuterKey: probeKey, Residual: residual,
			}}, msR, []*exec.Meter{mScanR, mTopR})
			got = runMetered(t, ev, &RowSource{
				Child: &Metered{Set: msV, M: mTopV, Child: &IndexJoin{
					Ctx: ev.Ctx, Probe: scanV, Inner: tv.File, Index: tv.Index(name), ProbeKey: probeKey,
					Residual: residual, BatchSize: batchSize,
				}},
			}, msV, []*exec.Meter{mScanV, mTopV})
			mat := map[int]ColState{}
			checkCharges(t, mScanV, scanCharges(ev, mScanV, pred, scanned(), mat, 0))
			// The join looks at the probe batches with something selected: one
			// key kernel each, which reads the key column.
			in, out := mScanV.Emitted(), mTopV.Emitted()
			probed := exec.Card{Batches: float64(in.Live), In: float64(mScanV.Rows())}
			w := &tally{cm: ev.Ctx.Cost}
			ChargeDispatch(w, probed)
			Toucher(w, mat)(probeKey, probed, Read)
			ChargeJoinProbe(w, probed, 0)
			matched := exec.Card{Batches: float64(out.Batches), In: float64(out.Positions), Out: float64(out.Positions)}
			ChargeFetch(w, matched, 0)
			ChargeDispatch(w, matched)
			ChargeJoinGather(w, matched, 1, 1, 0)
			matched.Out = float64(mTopV.Rows())
			if residual != nil {
				pairs := &exec.IndexJoin{Ctx: er.Ctx, Outer: &exec.SeqScan{Ctx: er.Ctx, File: tr.File, Filter: pred},
					Inner: tr.File, Index: tr.Index(name), OuterKey: probeKey}
				CompileFilter(residual).ChargeFilter(w, matched.Batches, conjunctCounts(t, residual, pairs), Toucher(w, map[int]ColState{}))
			}
			checkIndexCharges(t, er, mTopR, mTopV, w, matched, exec.ExprNodes(residual))
		default:
			ra := rand.New(rand.NewSource(exprSeed))
			exprs := make([]exec.Expr, ra.Intn(3)+1)
			for i := range exprs {
				exprs[i] = randExpr(ra, 2, 5)
			}
			// One more output over the first: a subtree the list repeats.
			exprs = append(exprs, exec.BinOp{Op: exec.OpAdd, L: exprs[0], R: exec.Col{Idx: ra.Intn(5)}})
			want = runMetered(t, er, &exec.Metered{Set: msR, M: mTopR, Child: &exec.Project{
				Ctx: er.Ctx, Child: scanR, Exprs: exprs,
			}}, msR, []*exec.Meter{mScanR, mTopR})
			got = runMetered(t, ev, &RowSource{
				Child: &Metered{Set: msV, M: mTopV, Child: &Project{
					Ctx: ev.Ctx, Child: scanV, Exprs: exprs,
				}},
			}, msV, []*exec.Meter{mScanV, mTopV})
			mat := map[int]ColState{}
			checkCharges(t, mScanV, scanCharges(ev, mScanV, pred, scanned(), mat, 0))
			in := mScanV.Emitted()
			arriving := exec.Card{Batches: float64(in.Batches), In: float64(mScanV.Rows())}
			w := &tally{cm: ev.Ctx.Cost}
			ChargeDispatch(w, arriving)
			Compile(exprs...).Charge(w, arriving, Toucher(w, mat))
			checkCharges(t, mTopV, w)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("vector result differs from row result: %d vs %d rows\nseed=%d rows=%d batch=%d shape=%d",
				len(got), len(want), seed, rows, batchSize, shape)
		}
	})
}
