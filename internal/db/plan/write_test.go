package plan

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"energydb/internal/core"
	"energydb/internal/cpusim"
	"energydb/internal/db/engine"
	"energydb/internal/db/exec"
	"energydb/internal/db/sql"
	"energydb/internal/tpch"
)

// writeEngine is vecTestEngine with an index on id, so every write has both
// access paths to choose from.
func writeEngine(t *testing.T, rows int) *engine.Engine {
	t.Helper()
	e := vecTestEngine(t, rows)
	e.CreateIndex(e.MustTable("facts"), "id")
	return e
}

// tableDump reads facts slot by slot under a fresh snapshot: "id: row", and
// "id: -" for a slot no version of which is visible.
func tableDump(t *testing.T, e *engine.Engine) []string {
	t.Helper()
	e.BeginRead()
	defer e.EndRead()
	f := e.MustTable("facts").File
	out := make([]string, f.RowCount())
	for id := range out {
		row, visible, err := f.ReadRow(id)
		if err != nil {
			t.Fatal(err)
		}
		out[id] = fmt.Sprintf("%d: -", id)
		if visible {
			out[id] = fmt.Sprintf("%d: %v", id, row)
		}
	}
	return out
}

// TestWriteSameOnEveryPathAndMode runs one UPDATE and one DELETE with the scan
// under the write node pinned to each access path in each executor (the row
// one under DisableVectorExec; the free plan reads 12 500 index entries or
// the whole heap, so it runs vector), and each of those with the view's next
// batch scan pointing either way: all eight
// plans must change the same rows — read back slot by slot, so the same row
// ids — and report the same count. The predicate has a part the index bounds
// capture and a residual (the DELETE's includes a conjunct of no column,
// which the scan tests too), and spans several batches of the vector scans. The
// machine's L3 is cut to 256 KB so that facts is longer than it and the vector
// sequential scan does walk back to front when told to.
func TestWriteSameOnEveryPathAndMode(t *testing.T) {
	const rows = 15000
	small := cpusim.IntelI7_4790()
	small.Mem.L2.SizeBytes, small.Mem.L3.SizeBytes = 64<<10, 256<<10
	for _, text := range []string{
		"UPDATE facts SET amount = amount * 2 + 1, grp = 9 WHERE id >= 100 AND id <= 12600 AND grp = 3",
		"DELETE FROM facts WHERE id >= 100 AND id <= 12600 AND grp = 3 AND 1 = 1",
	} {
		stmt, err := sql.ParseStatement(text)
		if err != nil {
			t.Fatal(err)
		}
		var wantDump []string
		var wantN int
		for _, path := range []opKind{opSeqScan, opIndexScan} {
			for _, mode := range []Mode{ModeRow, ModeVector} {
				for _, reverse := range []bool{false, true} {
					e := factsEngine(cpusim.NewMachine(small), rows)
					facts := e.MustTable("facts")
					e.CreateIndex(facts, "id")
					if !facts.File.Alternates() {
						t.Fatal("facts fits the L3")
					}
					if reverse {
						// One completed vector scan turns the view around.
						op, err := prepare(t, e, "SELECT COUNT(*) FROM facts").Build()
						if err != nil {
							t.Fatal(err)
						}
						if _, err := exec.Drain(op); err != nil {
							t.Fatal(err)
						}
						if f, r := facts.File.Data().ScanCounts(); f != 1 || r != 0 {
							t.Fatalf("the turning scan was not one front-to-back batch scan (%d, %d)", f, r)
						}
					}
					e.Knobs.DisableVectorExec = mode == ModeRow
					before := tableDump(t, e)
					p, err := preparePinned(e, stmt, map[string]opKind{"facts": path})
					if err != nil {
						t.Fatal(err)
					}
					scan := p.Root.Kids[0]
					if p.Root.Kind != opWrite || scan.Kind != path || scan.Mode != mode {
						t.Fatalf("%s: pinned to %v/%v, planned\n%s", text, path, mode, explainText(p))
					}
					_, was := facts.File.Data().ScanCounts()
					n, err := p.ExecWrite(nil)
					if err != nil {
						t.Fatalf("%s over %s: %v", text, scan.Title(), err)
					}
					if _, now := facts.File.Data().ScanCounts(); (now > was) != (reverse && path == opSeqScan && mode == ModeVector) {
						t.Fatalf("%s over %s mode=%v, view reversed %v: %d back-to-front scans ran", text, scan.Title(), mode, reverse, now-was)
					}
					dump := tableDump(t, e)
					if wantDump == nil {
						wantDump, wantN = dump, n
						changed := 0
						for i := range dump {
							if dump[i] != before[i] {
								changed++
							}
						}
						if n != 2500 || changed != n {
							t.Fatalf("%s: %d rows affected, %d slots changed, want 2500", text, n, changed)
						}
						continue
					}
					if n != wantN || !reflect.DeepEqual(dump, wantDump) {
						t.Errorf("%s over %s mode=%v, view reversed %v: %d rows affected and a different table than over the row sequential scan (%d)",
							text, scan.Title(), mode, reverse, n, wantN)
					}
				}
			}
		}
	}
}

// TestWritePlans pins what the planner does with the shapes of write the
// txn-mixed benchmark and X4 issue: a keyed write reads through the index, a
// write with no usable bound or no WHERE at all scans the heap, the write node
// is the root and EXPLAIN names the assigned columns.
func TestWritePlans(t *testing.T) {
	e := writeEngine(t, 3000)
	for _, c := range []struct {
		text, root string
		scan       opKind
	}{
		{"UPDATE facts SET amount = 1 WHERE id = 77", "Update facts set=[amount]", opIndexScan},
		{"DELETE FROM facts WHERE id = 77", "Delete facts", opIndexScan},
		{"UPDATE facts SET amount = 1, grp = 2 WHERE grp = 4", "Update facts set=[amount, grp]", opSeqScan},
		{"UPDATE facts SET amount = amount + 1", "Update facts set=[amount]", opSeqScan},
	} {
		stmt, err := sql.ParseStatement(c.text)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Prepare(e, stmt)
		if err != nil {
			t.Fatalf("%s: %v", c.text, err)
		}
		text := explainText(p)
		if p.Root.Kind != opWrite || p.Root.Kids[0].Kind != c.scan || !strings.HasPrefix(text, c.root+" ") {
			t.Errorf("%s planned\n%s", c.text, text)
		}
		if !strings.HasSuffix(p.Summary(), " → "+p.Root.Title()) {
			t.Errorf("%s: summary %q does not end in the write node", c.text, p.Summary())
		}
	}
	for _, bad := range []string{
		"UPDATE facts SET nope = 1",
		"UPDATE facts SET amount = 1 WHERE nope = 2",
		"DELETE FROM nowhere",
	} {
		stmt, err := sql.ParseStatement(bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Prepare(e, stmt); err == nil {
			t.Errorf("%s planned without error", bad)
		}
	}
	ins, _ := sql.ParseStatement("INSERT INTO facts VALUES (1, 2, 3)")
	if _, err := Prepare(e, ins); err == nil {
		t.Error("an INSERT has no plan")
	}
}

// TestExplainEnergyWriterStatements runs the planned statements of the
// txn-mixed benchmark's writer (its INSERT has no plan) under EXPLAIN ENERGY
// inside explicit transactions, the way the writer issues them, on the
// profile its server runs: each must read its
// row through the key's index under the write node, and the planner's
// prediction must be within the ±25 % band X9 holds SELECTs to. The figures
// compared are medians over a run of transactions: a single-row statement is a
// few hundred simulated accesses, and whether a handful of them miss depends on
// what ran before.
func TestExplainEnergyWriterStatements(t *testing.T) {
	st, err := core.NewStack(cpusim.PState36, 1, 0, 0.05, 2)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(engine.PostgreSQL, st.M, engine.SettingBaseline)
	d := tpch.Setup(e, tpch.Size10MB)
	prof := st.Profiler()

	type sample struct{ pred, meas []float64 }
	byShape := map[string]*sample{}
	measure := func(shape, text, index string) {
		t.Helper()
		stmt, err := sql.ParseStatement(text)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Prepare(e, stmt)
		if err != nil {
			t.Fatal(err)
		}
		if scan := p.Root.Kids[0]; p.Root.Kind != opWrite || scan.Kind != opIndexScan || scan.IdxCol != index {
			t.Fatalf("%s planned\n%s", text, explainText(p))
		}
		_, _, b, err := p.ExplainEnergy(prof)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		s := byShape[shape]
		if s == nil {
			s = &sample{}
			byShape[shape] = s
		}
		s.pred, s.meas = append(s.pred, p.PredictedEJ()), append(s.meas, b.EActive)
	}
	for i := 0; i < 60; i++ {
		tx := e.Begin()
		if i%5 == 4 {
			if _, err := ExecWrite(e, tx, mustParse(t, fmt.Sprintf("INSERT INTO orders VALUES (%d, 0, 'O', 1.00, 2341, '5-LOW', 0)", 1_000_000+i))); err != nil {
				t.Fatal(err)
			}
			if i >= 9 {
				measure("delete orders", fmt.Sprintf("DELETE FROM orders WHERE o_orderkey = %d", 1_000_000+i-5), "o_orderkey")
			}
		} else {
			key := d.Orders[(i*131)%len(d.Orders)][0].I
			measure("update orders", fmt.Sprintf("UPDATE orders SET o_totalprice = %d WHERE o_orderkey = %d", i, key), "o_orderkey")
			measure("update nation", fmt.Sprintf("UPDATE nation SET n_regionkey = %d WHERE n_nationkey = 24", i), "n_nationkey")
		}
		if err := e.Commit(tx); err != nil {
			t.Fatal(err)
		}
	}
	for shape, s := range byShape {
		pred, meas := median(s.pred), median(s.meas)
		t.Logf("%-14s predicted %s, measured %s (%+.1f%%), n=%d", shape, fmtEnergy(pred), fmtEnergy(meas), relErr(pred, meas)*100, len(s.meas))
		if e := relErr(pred, meas); e < -0.25 || e > 0.25 {
			t.Errorf("%s: predicted %s against %s measured: %+.1f%%, outside ±25%%", shape, fmtEnergy(pred), fmtEnergy(meas), e*100)
		}
	}
	if len(byShape) != 3 {
		t.Fatalf("measured %d statement shapes, want 3", len(byShape))
	}
}

// TestUpdateRejectsMistypedValue holds UPDATE to INSERT's typing: a value
// its column cannot store ends the statement with coerce's error and rolls
// it back, instead of landing in the row as evaluated — where a string in a
// float column compared above every number and would panic an index built
// over the column later.
func TestUpdateRejectsMistypedValue(t *testing.T) {
	e := engine.New(engine.PostgreSQL, cpusim.NewMachine(cpusim.IntelI7_4790()), engine.SettingBaseline)
	tpch.Setup(e, tpch.Size10MB)
	read := func(query string) string {
		t.Helper()
		rows, _, err := Run(e, query)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(rows)
	}
	row := read("SELECT * FROM orders WHERE o_orderkey = 7")
	count := read("SELECT COUNT(*) FROM orders WHERE o_totalprice > 100")

	n, err := ExecWrite(e, nil, mustParse(t, "UPDATE orders SET o_totalprice = 'abc' WHERE o_orderkey = 7"))
	if err == nil || !strings.Contains(err.Error(), "cannot store string in float column") {
		t.Fatalf("UPDATE of a float column to 'abc': %d rows, err = %v; want coerce's error", n, err)
	}
	if got := read("SELECT * FROM orders WHERE o_orderkey = 7"); got != row {
		t.Errorf("the failed UPDATE changed the row: %s, was %s", got, row)
	}
	if got := read("SELECT COUNT(*) FROM orders WHERE o_totalprice > 100"); got != count {
		t.Errorf("COUNT(*) WHERE o_totalprice > 100 reads %s after the failed UPDATE, %s before", got, count)
	}
	e.CreateIndex(e.MustTable("orders"), "o_totalprice")
}

func mustParse(t *testing.T, text string) sql.Statement {
	t.Helper()
	stmt, err := sql.ParseStatement(text)
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	for i := range s { // insertion sort: a few dozen values
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}
