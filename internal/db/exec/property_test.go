package exec

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"energydb/internal/cpusim"
	"energydb/internal/db/catalog"
	"energydb/internal/db/storage"
	"energydb/internal/db/value"
)

// randomFixture loads a table with deterministic pseudo-random rows.
func randomFixture(seed int64, rows int) *fixture {
	m := cpusim.NewMachine(cpusim.IntelI7_4790())
	dev := storage.NewDevice(m, 512<<20)
	pool := storage.NewBufferPool(dev, 8<<20, 8<<10)
	schema := catalog.NewSchema(
		catalog.Column{Name: "id", Type: value.TypeInt},
		catalog.Column{Name: "grp", Type: value.TypeInt},
		catalog.Column{Name: "amt", Type: value.TypeFloat},
		catalog.Column{Name: "tag", Type: value.TypeStr, Width: 16},
	)
	hf := storage.NewHeapFile(dev, pool, schema, 8, storage.Rows)
	rng := rand.New(rand.NewSource(seed))
	tags := []string{"alpha", "beta", "gamma", "delta"}
	for i := 0; i < rows; i++ {
		hf.Append(value.Row{
			value.Int(int64(rng.Intn(1000))),
			value.Int(int64(rng.Intn(7))),
			value.Float(float64(rng.Intn(10000)) / 100),
			value.Str(tags[rng.Intn(len(tags))]),
		})
	}
	cost := CostModel{TupleInstr: 4, EvalInstr: 2, EvalStores: 1}
	return &fixture{dev: dev, ctx: NewCtx(m, dev.Arena, cost), file: hf}
}

// TestPropertyFilterPartitionsScan: a predicate and its negation must
// partition the scan exactly.
func TestPropertyFilterPartitionsScan(t *testing.T) {
	f := func(seed int64, thr uint16) bool {
		fx := randomFixture(seed, 300)
		pred := BinOp{OpLt, Col{Idx: 0}, Const{value.Int(int64(thr % 1000))}}
		all, err := Drain(&SeqScan{Ctx: fx.ctx, File: fx.file})
		if err != nil {
			return false
		}
		pos, err := Drain(&SeqScan{Ctx: fx.ctx, File: fx.file, Filter: pred})
		if err != nil {
			return false
		}
		neg, err := Drain(&SeqScan{Ctx: fx.ctx, File: fx.file, Filter: Not{pred}})
		if err != nil {
			return false
		}
		return pos+neg == all
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySortIsPermutation: sorting returns the same multiset, ordered.
func TestPropertySortIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		fx := randomFixture(seed, 200)
		plain, err := Collect(&SeqScan{Ctx: fx.ctx, File: fx.file})
		if err != nil {
			return false
		}
		sorted, err := Collect(&Sort{
			Ctx:   fx.ctx,
			Child: &SeqScan{Ctx: fx.ctx, File: fx.file},
			Keys:  []SortKey{{Expr: Col{Idx: 0}}},
		})
		if err != nil || len(sorted) != len(plain) {
			return false
		}
		for i := 1; i < len(sorted); i++ {
			if sorted[i-1][0].AsInt() > sorted[i][0].AsInt() {
				return false
			}
		}
		var a, b []int64
		for i := range plain {
			a = append(a, plain[i][0].AsInt())
			b = append(b, sorted[i][0].AsInt())
		}
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyGroupByConservesCount: group counts sum to the input count,
// and sums match a reference computed directly.
func TestPropertyGroupByConservesCount(t *testing.T) {
	f := func(seed int64) bool {
		fx := randomFixture(seed, 250)
		rows, err := Collect(&SeqScan{Ctx: fx.ctx, File: fx.file})
		if err != nil {
			return false
		}
		wantSum := map[int64]float64{}
		wantCount := map[int64]int64{}
		for _, r := range rows {
			wantSum[r[1].AsInt()] += r[2].AsFloat()
			wantCount[r[1].AsInt()]++
		}
		groups, err := Collect(&GroupBy{
			Ctx:     fx.ctx,
			Child:   &SeqScan{Ctx: fx.ctx, File: fx.file},
			GroupBy: []Expr{Col{Idx: 1}},
			Aggs: []AggSpec{
				{Kind: AggCount},
				{Kind: AggSum, Arg: Col{Idx: 2}},
			},
		})
		if err != nil || len(groups) != len(wantCount) {
			return false
		}
		total := int64(0)
		for _, g := range groups {
			k := g[0].AsInt()
			total += g[1].AsInt()
			if g[1].AsInt() != wantCount[k] {
				return false
			}
			if diff := g[2].AsFloat() - wantSum[k]; diff > 1e-6 || diff < -1e-6 {
				return false
			}
		}
		return total == int64(len(rows))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyHashJoinMatchesNestedLoop: the two equijoin implementations
// must agree on cardinality for any data.
func TestPropertyHashJoinMatchesNestedLoop(t *testing.T) {
	f := func(seed int64) bool {
		fx := randomFixture(seed, 120)
		hj, err := Drain(&HashJoin{
			Ctx:      fx.ctx,
			Build:    &SeqScan{Ctx: fx.ctx, File: fx.file},
			Probe:    &SeqScan{Ctx: fx.ctx, File: fx.file},
			BuildKey: 1,
			ProbeKey: 1,
		})
		if err != nil {
			return false
		}
		nlj, err := Drain(&NestedLoopJoin{
			Ctx:   fx.ctx,
			Outer: &SeqScan{Ctx: fx.ctx, File: fx.file},
			Inner: &SeqScan{Ctx: fx.ctx, File: fx.file},
			Pred:  BinOp{OpEq, Col{Idx: 1}, Col{Idx: 5}},
		})
		if err != nil {
			return false
		}
		return hj == nlj
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySimulationNeverBlocksResults: whatever the access pattern,
// operators must produce identical results with the prefetcher on or off
// (the simulation layer must never affect query semantics).
func TestPropertySimulationTransparency(t *testing.T) {
	f := func(seed int64) bool {
		collect := func(prefetch bool) []value.Row {
			fx := randomFixture(seed, 150)
			fx.ctx.M.Hier.SetPrefetchEnabled(prefetch)
			rows, err := Collect(&Sort{
				Ctx:   fx.ctx,
				Child: &SeqScan{Ctx: fx.ctx, File: fx.file},
				Keys:  []SortKey{{Expr: Col{Idx: 0}}, {Expr: Col{Idx: 2}}},
			})
			if err != nil {
				return nil
			}
			return rows
		}
		a, b := collect(true), collect(false)
		if a == nil || len(a) != len(b) {
			return false
		}
		for i := range a {
			for j := range a[i] {
				if !value.Equal(a[i][j], b[i][j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
