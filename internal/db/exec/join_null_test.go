package exec

import (
	"testing"

	"energydb/internal/db/btree"
	"energydb/internal/db/catalog"
	"energydb/internal/db/value"
)

// nullJoinInputs builds two small in-memory tables whose key columns contain
// NULLs. Schema: (k INT, v INT). Expected equijoin matches on k ignore every
// NULL key on either side — in particular NULL = NULL must not match.
func nullJoinInputs(f *fixture) (build, probe *MemTable) {
	schema := catalog.NewSchema(
		catalog.Column{Name: "k", Type: value.TypeInt},
		catalog.Column{Name: "v", Type: value.TypeInt},
	)
	build = NewMemTable(f.ctx, schema, []value.Row{
		{value.Int(1), value.Int(10)},
		{value.Null(), value.Int(11)},
		{value.Int(2), value.Int(12)},
		{value.Null(), value.Int(13)},
		{value.Int(1), value.Int(14)},
	})
	probe = NewMemTable(f.ctx, schema, []value.Row{
		{value.Int(1), value.Int(100)},
		{value.Null(), value.Int(101)},
		{value.Int(2), value.Int(102)},
		{value.Int(3), value.Int(103)},
		{value.Null(), value.Int(104)},
	})
	return build, probe
}

// TestHashJoinNullKeysNeverMatch is the row-mode regression for SQL equijoin
// NULL semantics: build rows with NULL keys never enter the table, probe rows
// with NULL keys never probe it, and NULL = NULL produces no pair.
func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	f := newFixture(t, 1)
	build, probe := nullJoinInputs(f)
	j := &HashJoin{
		Ctx: f.ctx, Build: build.Scan(), Probe: probe.Scan(),
		BuildKey: 0, ProbeKey: 0,
	}
	rows, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	// probe k=1 matches build v∈{10,14}; probe k=2 matches build v=12.
	if len(rows) != 3 {
		t.Fatalf("join produced %d rows, want 3 (NULL keys must not match): %v", len(rows), rows)
	}
	for _, r := range rows {
		if r[0].IsNull() || r[2].IsNull() {
			t.Fatalf("joined row has a NULL key: %v", r)
		}
	}
}

// TestHashJoinNullKeysWithResidual checks the NULL-key rule survives a
// residual predicate: the residual filters pairs that already matched, it
// must never resurrect NULL-key pairs.
func TestHashJoinNullKeysWithResidual(t *testing.T) {
	f := newFixture(t, 1)
	build, probe := nullJoinInputs(f)
	j := &HashJoin{
		Ctx: f.ctx, Build: build.Scan(), Probe: probe.Scan(),
		BuildKey: 0, ProbeKey: 0,
		// probe.v < build.v + 100 keeps v=100 vs {10,14} out, v=102 vs 12 out;
		// an always-true shape would hide residual evaluation entirely, so use
		// one that prunes: keep pairs with build.v > 10.
		Residual: BinOp{OpGt, Col{Idx: 3}, Const{value.Int(10)}},
	}
	rows, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	// Surviving pairs: (k=1, build v=14) and (k=2, build v=12).
	if len(rows) != 2 {
		t.Fatalf("residual join produced %d rows, want 2: %v", len(rows), rows)
	}
}

// TestIndexJoinNullOuterKey checks the index nested-loop join skips outer
// rows whose key is NULL instead of probing the index with a NULL.
func TestIndexJoinNullOuterKey(t *testing.T) {
	f := newFixture(t, 20)
	idx := btree.New(f.ctx.M.Hier, f.ctx.Arena, 4096)
	for i := 0; i < f.file.RowCount(); i++ {
		row, _, err := f.file.ReadRow(i)
		if err != nil {
			t.Fatal(err)
		}
		idx.Insert(row[0], i) // index on id
	}
	outerSchema := catalog.NewSchema(catalog.Column{Name: "k", Type: value.TypeInt})
	outer := NewMemTable(f.ctx, outerSchema, []value.Row{
		{value.Int(3)}, {value.Null()}, {value.Int(7)}, {value.Null()},
	})
	j := &IndexJoin{
		Ctx: f.ctx, Outer: outer.Scan(), Inner: f.file, Index: idx, OuterKey: 0,
	}
	n, err := Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("index join produced %d rows, want 2 (NULL outer keys skipped)", n)
	}
}
