package plan

import (
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/db/catalog"
	"energydb/internal/db/engine"
	"energydb/internal/db/exec"
	"energydb/internal/db/sql"
	"energydb/internal/db/value"
)

// fuzzEngine builds a tiny seeded engine for each fuzz execution: two small
// joinable tables with an index each, enough to exercise every physical
// operator the optimizer can pick without making iterations slow.
func fuzzEngine() *engine.Engine {
	m := cpusim.NewMachine(cpusim.IntelI7_4790())
	e := engine.New(engine.SQLite, m, engine.SettingBaseline)
	items := e.CreateTable("items", catalog.NewSchema(
		catalog.Column{Name: "id", Type: value.TypeInt},
		catalog.Column{Name: "cat", Type: value.TypeInt},
		catalog.Column{Name: "price", Type: value.TypeFloat},
		catalog.Column{Name: "name", Type: value.TypeStr, Width: 8},
	))
	for i := 0; i < 8; i++ {
		e.Insert(items, value.Row{
			value.Int(int64(i)), value.Int(int64(i % 2)),
			value.Float(float64(i)), value.Str("n"),
		})
	}
	e.CreateIndex(items, "id")
	cats := e.CreateTable("cats", catalog.NewSchema(
		catalog.Column{Name: "cat_id", Type: value.TypeInt},
		catalog.Column{Name: "cat_name", Type: value.TypeStr, Width: 8},
	))
	for i := 0; i < 2; i++ {
		e.Insert(cats, value.Row{value.Int(int64(i)), value.Str("c")})
	}
	e.CreateIndex(cats, "cat_id")
	return e
}

// FuzzPlan checks the optimizer's crash-safety contract end to end: for any
// input the pipeline (parse → plan → execute) must return rows or an error,
// never panic or hang — the server feeds client text straight into it. Seeds
// cover each physical-operator choice (seq/index scan, index/hash join,
// aggregate, sort, limit) plus shapes that must fail cleanly in the planner.
func FuzzPlan(f *testing.F) {
	seeds := []string{
		"SELECT * FROM items",
		"SELECT id FROM items WHERE id = 3",
		"SELECT id, price FROM items WHERE id BETWEEN 1 AND 5 AND price > 2",
		"SELECT name, cat_name FROM items JOIN cats ON cat = cat_id WHERE price < 4",
		"SELECT cat, COUNT(*) AS n, SUM(price) FROM items GROUP BY cat ORDER BY cat",
		"SELECT COUNT(*), AVG(price) FROM items WHERE name LIKE 'n%'",
		"SELECT id FROM items WHERE cat IN (0, 1) ORDER BY price DESC LIMIT 3",
		"SELECT id, price * 2 AS d FROM items WHERE id < '1995-01-01'",
		"SELECT name, cat_name FROM items JOIN cats ON cat = cat_id WHERE 1 = 0 OR 2 > 1",
		// Planner-error shapes: unknown tables/columns, unresolvable joins,
		// misplaced aggregates — must fail with errors, not panic.
		"SELECT * FROM missing",
		"SELECT nope FROM items",
		"SELECT id FROM items JOIN cats ON wrong = cat_id",
		"SELECT id FROM items JOIN cats ON cat = cat_id WHERE nope < cat_id",
		"SELECT id, SUM(price) FROM items",
		"SELECT MAX(price) FROM items WHERE SUM(id) > 0",
		"SELECT * FROM items JOIN items ON id = id",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := sql.Parse(src)
		if err != nil {
			return
		}
		e := fuzzEngine()
		p, err := Prepare(e, stmt)
		if err != nil {
			return
		}
		checkModeRule(t, src, p)
		op, err := p.Build()
		if err != nil {
			t.Fatalf("Build failed after successful Prepare on %q: %v", src, err)
		}
		if _, err := exec.Collect(op); err != nil {
			t.Fatalf("execution failed after successful plan on %q: %v", src, err)
		}
		p.Explain() // must not panic either
	})
}

// checkModeRule asserts the mode rule on a prepared plan: under
// DisableVectorExec, or when every scan reads at most one row, every node
// runs row; otherwise a node runs vector exactly when its kind has a vector
// form and all its children run vector.
func checkModeRule(t *testing.T, src string, p *Prepared) {
	t.Helper()
	free := !p.E.Knobs.DisableVectorExec && !keyed(p.Root)
	var walk func(n *Node) bool
	walk = func(n *Node) bool {
		kids := true
		for _, k := range n.Kids {
			kids = walk(k) && kids
		}
		want := free && kids && vecEligibleKind(n.Kind)
		if (n.Mode == ModeVector) != want {
			t.Fatalf("%s runs %s on %q, against the mode rule:\n%s", n.Title(), n.Mode, src, explainText(p))
		}
		return want
	}
	walk(p.Root)
}
