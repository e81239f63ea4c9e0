package tpch

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/db/engine"
	"energydb/internal/db/plan"
	"energydb/internal/db/sql"
)

var updateExplain = flag.Bool("update", false, "rewrite golden EXPLAIN files")

// dmlTexts are the writes whose plans are pinned beside the queries': the
// planned statements of the txn-mixed benchmark's writer (bench/workload.go;
// its INSERT has no plan), an UPDATE whose WHERE no index serves, and one with
// no WHERE at all.
var dmlTexts = []struct{ name, text string }{
	{"update-orders-key", "UPDATE orders SET o_totalprice = 17 WHERE o_orderkey = 7"},
	{"update-nation-key", "UPDATE nation SET n_regionkey = 17 WHERE n_nationkey = 24"},
	{"delete-orders-key", "DELETE FROM orders WHERE o_orderkey = 1000012"},
	{"update-orders-unindexed", "UPDATE orders SET o_totalprice = o_totalprice + 1 WHERE o_orderpriority = '5-LOW'"},
	{"update-lineitem-all", "UPDATE lineitem SET l_quantity = l_quantity + 1"},
}

// TestExplainGolden pins the optimizer's chosen plan for every TPC-H query
// text, and for the writes of dmlTexts, on the deterministic 10MB dataset, on
// the SQLite profile (testdata/explain, writes in dml/sqlite-*.txt) and on the
// PostgreSQL profile the benchmark's server runs (testdata/explain/postgresql,
// writes in dml/postgresql-*.txt). It also pins the row plan of every basic
// operation, the way Figure 6 plans it (DisableVectorExec), on all three
// profiles (basic/<profile>-<op>.txt). A change to the statistics, the cost
// model or the rewrite rules that alters any plan (or its cardinality and
// energy predictions) trips this test; if the new plan is intentional,
// regenerate with `go test ./internal/tpch -run ExplainGolden -update`.
func TestExplainGolden(t *testing.T) {
	root := filepath.Join("testdata", "explain")
	if alt := os.Getenv("EXPLAIN_GOLDEN_DIR"); alt != "" && *updateExplain {
		// Redirected regeneration: `make golden-drift` regenerates the
		// goldens into a scratch directory and diffs it against the
		// committed set, so a stale checked-in golden fails `make check`
		// even if someone regenerated without reviewing.
		root = alt
	}
	newEngine := func(kind engine.Kind, row bool) *engine.Engine {
		e := engine.New(kind, cpusim.NewMachine(cpusim.IntelI7_4790()), engine.SettingBaseline)
		e.Knobs.DisableVectorExec = row
		Setup(e, Size10MB)
		return e
	}
	for _, profile := range []struct {
		kind engine.Kind
		dir  string
	}{{engine.SQLite, root}, {engine.PostgreSQL, filepath.Join(root, "postgresql")}} {
		e := newEngine(profile.kind, false)
		for _, q := range SQLQueries() {
			explainGolden(t, e, fmt.Sprintf("Q%d", q.ID), q.Text, filepath.Join(profile.dir, fmt.Sprintf("q%d.txt", q.ID)))
		}
		for _, w := range dmlTexts {
			explainGolden(t, e, w.name, w.text, filepath.Join(root, "dml", strings.ToLower(profile.kind.String())+"-"+w.name+".txt"))
		}
	}
	for _, kind := range engine.Kinds() {
		e := newEngine(kind, true)
		for _, op := range BasicOps() {
			file := strings.ToLower(kind.String()) + "-" + strings.ReplaceAll(op.Name, " ", "-") + ".txt"
			explainGolden(t, e, op.Name, op.Text, filepath.Join(root, "basic", file))
		}
	}
}

// explainGolden plans one statement on e and holds its EXPLAIN to the file at
// path (or, under -update, writes it there).
func explainGolden(t *testing.T, e *engine.Engine, name, text, path string) {
	t.Helper()
	stmt, err := sql.ParseStatement(text)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	p, err := plan.Prepare(e, stmt)
	if err != nil {
		t.Fatalf("%s %s: plan: %v", e.Kind, name, err)
	}
	rows, _ := p.Explain()
	var b strings.Builder
	for _, r := range rows {
		b.WriteString(r[0].S)
		b.WriteByte('\n')
	}
	got := b.String()
	if *updateExplain {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s %s: %v (run with -update to generate)", e.Kind, name, err)
	}
	if got != string(want) {
		t.Errorf("%s %s plan changed.\n--- want\n%s--- got\n%s", e.Kind, name, want, got)
	}
}

// TestApproximateSQLRuns holds the texts to their notes: 13 of the 22
// approximate their TPC-H query, and each says how (TestResultDigests runs
// all of them).
func TestApproximateSQLRuns(t *testing.T) {
	approx := 0
	for _, q := range SQLQueries() {
		if q.Note == "" {
			continue
		}
		approx++
		if !strings.Contains(q.Note, "TPC-H") || !strings.Contains(q.Note, "in the grammar") {
			t.Errorf("Q%d: note %q must say what TPC-H returns and what the grammar lacks", q.ID, q.Note)
		}
	}
	if approx != 13 {
		t.Errorf("%d texts carry a note, want 13", approx)
	}
}
