package plan

import (
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"energydb/internal/core"
	"energydb/internal/cpusim"
	"energydb/internal/db/catalog"
	"energydb/internal/db/engine"
	"energydb/internal/db/exec"
	"energydb/internal/db/sql"
	"energydb/internal/db/value"
	"energydb/internal/memsim"
	"energydb/internal/mubench"
	"energydb/internal/rapl"
)

func testEngine(t *testing.T) *engine.Engine {
	t.Helper()
	m := cpusim.NewMachine(cpusim.IntelI7_4790())
	return seedEngine(engine.New(engine.SQLite, m, engine.SettingBaseline))
}

func seedEngine(e *engine.Engine) *engine.Engine {
	items := e.CreateTable("items", catalog.NewSchema(
		catalog.Column{Name: "id", Type: value.TypeInt},
		catalog.Column{Name: "cat", Type: value.TypeInt},
		catalog.Column{Name: "price", Type: value.TypeFloat},
		catalog.Column{Name: "name", Type: value.TypeStr, Width: 16},
	))
	names := []string{"apple", "banana", "cherry", "avocado"}
	for i := 0; i < 100; i++ {
		e.Insert(items, value.Row{
			value.Int(int64(i)),
			value.Int(int64(i % 4)),
			value.Float(float64(i) * 1.5),
			value.Str(names[i%4]),
		})
	}
	e.CreateIndex(items, "id")

	cats := e.CreateTable("cats", catalog.NewSchema(
		catalog.Column{Name: "cat_id", Type: value.TypeInt},
		catalog.Column{Name: "cat_name", Type: value.TypeStr, Width: 16},
	))
	for i := 0; i < 4; i++ {
		e.Insert(cats, value.Row{value.Int(int64(i)), value.Str([]string{"fruit", "veg", "dairy", "meat"}[i])})
	}
	e.CreateIndex(cats, "cat_id")
	return e
}

func TestSelectStar(t *testing.T) {
	e := testEngine(t)
	rows, _, err := Run(e, "SELECT * FROM items")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestWherePushdown(t *testing.T) {
	e := testEngine(t)
	rows, _, err := Run(e, "SELECT id FROM items WHERE price < 15 AND cat = 1")
	if err != nil {
		t.Fatal(err)
	}
	// price < 15 -> id < 10; cat = 1 -> id % 4 == 1: ids 1, 5, 9.
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
}

func TestProjectionArithmetic(t *testing.T) {
	e := testEngine(t)
	rows, names, err := Run(e, "SELECT id, price * 2 AS double_price FROM items WHERE id = 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][1].AsFloat() != 30 {
		t.Fatalf("rows = %v", rows)
	}
	if names[1] != "double_price" {
		t.Fatalf("names = %v", names)
	}
}

func TestGroupByAggregates(t *testing.T) {
	e := testEngine(t)
	rows, _, err := Run(e, `
		SELECT cat, COUNT(*) AS n, SUM(price) AS total, MIN(id), MAX(id)
		FROM items GROUP BY cat ORDER BY cat`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("groups = %d", len(rows))
	}
	if rows[0][1].AsInt() != 25 {
		t.Fatalf("count = %v", rows[0][1])
	}
	if rows[1][3].AsInt() != 1 || rows[1][4].AsInt() != 97 {
		t.Fatalf("min/max of cat 1 = %v/%v", rows[1][3], rows[1][4])
	}
}

func TestScalarAggregate(t *testing.T) {
	e := testEngine(t)
	rows, _, err := Run(e, "SELECT COUNT(*), AVG(price) FROM items WHERE cat = 0")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].AsInt() != 25 {
		t.Fatalf("rows = %v", rows)
	}
}

// TestScalarAggregateOverNoRows checks SQL's answer to an aggregate over an
// empty input on both executors: one row, COUNT 0 and NULL for the rest,
// without GROUP BY; no row with it.
func TestScalarAggregateOverNoRows(t *testing.T) {
	for _, rowOnly := range []bool{false, true} {
		e := testEngine(t)
		e.Knobs.DisableVectorExec = rowOnly
		rows, _, err := Run(e, "SELECT COUNT(*), SUM(price), AVG(price), MIN(id), MAX(name) FROM items WHERE id > 1000")
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || rows[0][0].AsInt() != 0 {
			t.Fatalf("row only: %v: rows = %v, want one row counting 0", rowOnly, rows)
		}
		for i, v := range rows[0][1:] {
			if !v.IsNull() {
				t.Errorf("row only: %v: aggregate %d over no rows = %v, want NULL", rowOnly, i+1, v)
			}
		}
		rows, _, err = Run(e, "SELECT cat, COUNT(*) FROM items WHERE id > 1000 GROUP BY cat")
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 0 {
			t.Errorf("row only: %v: grouped aggregate over no rows = %v, want none", rowOnly, rows)
		}
	}
}

func TestJoin(t *testing.T) {
	e := testEngine(t)
	rows, _, err := Run(e, `
		SELECT name, cat_name FROM items
		JOIN cats ON cat = cat_id
		WHERE id < 8 ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1][1].S != "veg" {
		t.Fatalf("joined cat of id 1 = %v", rows[1][1])
	}
}

func TestOrderByDescAndLimit(t *testing.T) {
	e := testEngine(t)
	rows, _, err := Run(e, "SELECT id, price FROM items ORDER BY price DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0][0].AsInt() != 99 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestLikeInBetween(t *testing.T) {
	e := testEngine(t)
	rows, _, err := Run(e, "SELECT id FROM items WHERE name LIKE 'a%' AND id BETWEEN 0 AND 20")
	if err != nil {
		t.Fatal(err)
	}
	// apple (i%4==0) and avocado (i%4==3) in [0, 20]: 0,4,8,12,16,20 + 3,7,11,15,19 = 11.
	if len(rows) != 11 {
		t.Fatalf("rows = %d, want 11", len(rows))
	}
	rows, _, err = Run(e, "SELECT id FROM items WHERE cat IN (1, 2) LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestPlanErrors(t *testing.T) {
	e := testEngine(t)
	bad := []string{
		"SELECT * FROM missing",
		"SELECT nope FROM items",
		"SELECT id FROM items JOIN cats ON wrong = cat_id",
		"SELECT id, SUM(price) FROM items",               // id not grouped
		"SELECT *, id FROM items",                        // star mixed
		"SELECT MAX(price) FROM items WHERE SUM(id) > 0", // aggregate in WHERE
	}
	for _, q := range bad {
		if _, _, err := Run(e, q); err == nil {
			t.Errorf("Run(%q) should fail", q)
		}
	}
}

func TestResultsMatchAcrossEngines(t *testing.T) {
	query := "SELECT cat, COUNT(*) AS n FROM items GROUP BY cat ORDER BY cat"
	var want []value.Row
	for i, kind := range engine.Kinds() {
		m := cpusim.NewMachine(cpusim.IntelI7_4790())
		e := engine.New(kind, m, engine.SettingBaseline)
		items := e.CreateTable("items", catalog.NewSchema(
			catalog.Column{Name: "id", Type: value.TypeInt},
			catalog.Column{Name: "cat", Type: value.TypeInt},
			catalog.Column{Name: "price", Type: value.TypeFloat},
			catalog.Column{Name: "name", Type: value.TypeStr, Width: 16},
		))
		for j := 0; j < 60; j++ {
			e.Insert(items, value.Row{value.Int(int64(j)), value.Int(int64(j % 3)), value.Float(1), value.Str("x")})
		}
		rows, _, err := Run(e, query)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = rows
			continue
		}
		if len(rows) != len(want) {
			t.Fatalf("%v: %d rows, want %d", kind, len(rows), len(want))
		}
		for r := range rows {
			if rows[r][1].AsInt() != want[r][1].AsInt() {
				t.Fatalf("%v row %d differs", kind, r)
			}
		}
	}
}

// TestJoinPushdownReducesScan is the regression test for the missed-pushdown
// bug in the old planner (WHERE was pushed into the scan only when the
// statement had no joins). The optimized plan must scan only the matching
// base tuples and spend measurably less L1D energy than the unpushed tree,
// which tests the predicate on every joined row.
func TestJoinPushdownReducesScan(t *testing.T) {
	const query = `SELECT name, cat_name FROM items JOIN cats ON cat = cat_id WHERE price < 15`

	// Optimized plan with per-operator meters.
	e := testEngine(t)
	stmt, err := sql.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(e, stmt)
	if err != nil {
		t.Fatal(err)
	}
	op, meters, err := p.BuildMetered()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 { // price < 15 -> ids 0..9
		t.Fatalf("rows = %d, want 10", len(rows))
	}
	var scanRows = -1
	var pushed memsim.Counters
	for n, m := range meters {
		if n.TableName == "items" && (n.Kind == opSeqScan || n.Kind == opIndexScan) {
			scanRows = m.Rows()
		}
		pushed = pushed.Add(m.Own())
	}
	if scanRows < 0 {
		t.Fatal("no scan of items in the plan")
	}
	if scanRows != 10 {
		t.Fatalf("items scan emitted %d tuples, want 10 (predicate pushed through the join)", scanRows)
	}

	// Hand-built unpushed tree on a fresh, identically seeded engine: a full
	// scan, and the predicate left to the join as a residual on every joined
	// row (where the old planner tested it).
	e2 := testEngine(t)
	items, cats := e2.MustTable("items"), e2.MustTable("cats")
	cond, err := sql.Parse("SELECT * FROM items WHERE price < 15")
	if err != nil {
		t.Fatal(err)
	}
	pred, err := compile(cond.Where, items.Schema().Concat(cats.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	join := &exec.IndexJoin{
		Ctx: e2.Ctx, Outer: &exec.SeqScan{Ctx: e2.Ctx, File: items.File},
		Inner: cats.File, Index: cats.Index("cat_id"), OuterKey: 1, Residual: pred,
	}
	c0 := e2.M.Hier.Counters()
	rows2, err := exec.Collect(join)
	if err != nil {
		t.Fatal(err)
	}
	unpushed := e2.M.Hier.Counters().Sub(c0)
	if len(rows2) != 10 {
		t.Fatalf("unpushed rows = %d, want 10", len(rows2))
	}

	if pushed.L1DAccesses >= unpushed.L1DAccesses {
		t.Fatalf("pushed plan L1D accesses = %d, not below unpushed = %d",
			pushed.L1DAccesses, unpushed.L1DAccesses)
	}
	price := func(c memsim.Counters) float64 {
		return e.M.Profile.Energy.Active(c, e.M.PState()).Total()
	}
	if price(pushed) >= price(unpushed) {
		t.Fatalf("pushed plan energy %.3g J, not below unpushed %.3g J",
			price(pushed), price(unpushed))
	}
}

// TestJoinResolutionError checks the diagnosable join error: it must report
// where each ON column was (not) found and list both schemas.
func TestJoinResolutionError(t *testing.T) {
	e := testEngine(t)
	_, _, err := Run(e, "SELECT id FROM items JOIN cats ON wrong = cat_id")
	if err == nil {
		t.Fatal("want error")
	}
	msg := err.Error()
	for _, want := range []string{
		`"wrong" is in neither side`,
		`"cat_id" is only in table "cats"`,
		"outer relation columns: [cat id name price]",
		`table "cats" columns: [cat_id cat_name]`,
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q\nmissing %q", msg, want)
		}
	}
}

func explainLines(t *testing.T, e *engine.Engine, query string) []string {
	t.Helper()
	stmt, err := sql.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(e, stmt)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := p.Explain()
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = r[0].S
	}
	return lines
}

func TestExplainChoosesIndexScan(t *testing.T) {
	e := testEngine(t)
	lines := explainLines(t, e, "SELECT price FROM items WHERE id = 50")
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "IndexScan items (id)") {
		t.Fatalf("point lookup did not choose the index:\n%s", joined)
	}
	if !strings.Contains(lines[len(lines)-1], "predicted total") {
		t.Fatalf("missing predicted-total footer:\n%s", joined)
	}
}

func TestExplainSeqScanForFullTable(t *testing.T) {
	e := testEngine(t)
	joined := strings.Join(explainLines(t, e, "SELECT * FROM items"), "\n")
	if !strings.Contains(joined, "SeqScan items") {
		t.Fatalf("full-table read should sequential-scan:\n%s", joined)
	}
}

// TestLiteralFirstComparisonPlansAlike checks that a comparison spelled
// literal first plans like its mirror: the strict bound tightens the index
// range and enters the range estimate either way, so the two EXPLAINs differ
// only in how the filter is written.
func TestLiteralFirstComparisonPlansAlike(t *testing.T) {
	e := testEngine(t)
	want := strings.Join(explainLines(t, e, "SELECT price FROM items WHERE id > 90 AND id <= 95"), "\n")
	got := strings.Join(explainLines(t, e, "SELECT price FROM items WHERE 90 < id AND id <= 95"), "\n")
	if got = strings.ReplaceAll(got, "(90 < id)", "(id > 90)"); got != want {
		t.Fatalf("literal-first spelling plans differently:\n%s\nwant:\n%s", got, want)
	}
	if !strings.Contains(want, "IndexScan items (id)") {
		t.Fatalf("bounded range did not use the index:\n%s", want)
	}
}

// TestConstantConjunctRunsInScan checks that a conjunct naming no column is
// tested by the FROM relation's scan, like any of its own, on both
// executors and under a join, and that a conjunct naming a column no
// relation has fails the plan.
func TestConstantConjunctRunsInScan(t *testing.T) {
	for _, c := range []struct {
		query, filter string
		rows          int
	}{
		{"SELECT id FROM items WHERE 1 = 0", "filter=((1 = 0))", 0},
		{"SELECT id FROM items WHERE price < 15 AND 'a' < 'b'", "filter=((price < 15) AND ('a' < 'b'))", 10},
		{"SELECT name, cat_name FROM items JOIN cats ON cat = cat_id WHERE 2 > 1 AND cat_name = 'veg'", "filter=((2 > 1))", 25},
	} {
		for _, rowOnly := range []bool{false, true} {
			e := testEngine(t)
			e.Knobs.DisableVectorExec = rowOnly
			rows, _, err := Run(e, c.query)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != c.rows {
				t.Errorf("%s (row only: %v): %d rows, want %d", c.query, rowOnly, len(rows), c.rows)
			}
			lines := explainLines(t, e, c.query)
			scan := lines[len(lines)-2] // the FROM relation's scan is the deepest node
			if !strings.Contains(scan, "Scan items") || !strings.Contains(scan, c.filter) {
				t.Errorf("%s: the FROM scan does not test %s:\n%s", c.query, c.filter, strings.Join(lines, "\n"))
			}
		}
	}
	_, _, err := Run(testEngine(t), "SELECT id FROM items JOIN cats ON cat = cat_id WHERE 1 = 1 AND nope > cat_id")
	if err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("a conjunct naming an unknown column: err = %v, want it named", err)
	}
}

func newProfiledEngine(t *testing.T) (*engine.Engine, *core.Profiler) {
	t.Helper()
	m := cpusim.NewMachine(cpusim.IntelI7_4790())
	meter := rapl.NewMeter(m, 5, 0)
	r := mubench.NewRunner(m, meter)
	r.Scale = 0.05
	cal, err := core.Calibrate(r)
	if err != nil {
		t.Fatal(err)
	}
	return seedEngine(engine.New(engine.SQLite, m, engine.SettingBaseline)),
		core.NewProfiler(m, meter, cal)
}

// TestExplainEnergyAttribution checks the EXPLAIN ENERGY contract: the
// per-operator measured energies (rendered as shares of Eactive) sum to the
// statement ledger total.
func TestExplainEnergyAttribution(t *testing.T) {
	e, prof := newProfiledEngine(t)
	stmt, err := sql.Parse(`SELECT cat, SUM(price) FROM items JOIN cats ON cat = cat_id
		WHERE id < 50 GROUP BY cat ORDER BY cat`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(e, stmt)
	if err != nil {
		t.Fatal(err)
	}
	rows, _, b, err := p.ExplainEnergy(prof)
	if err != nil {
		t.Fatal(err)
	}
	if b.EActive <= 0 {
		t.Fatalf("EActive = %v", b.EActive)
	}
	shareRE := regexp.MustCompile(`E=\S+\s+([0-9.]+)%,`)
	sumShare := 0.0
	opLines := 0
	for _, r := range rows {
		line := r[0].S
		if strings.HasPrefix(line, "measured total") || strings.HasPrefix(line, "predicted total") {
			continue
		}
		opLines++
		m := shareRE.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("cannot parse share from %q", line)
		}
		share, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatalf("cannot parse %q: %v", line, err)
		}
		sumShare += share
	}
	if opLines < 4 {
		t.Fatalf("only %d operator lines", opLines)
	}
	if sumShare < 99.0 || sumShare > 101.0 {
		t.Fatalf("operator shares sum to %.2f%%, want ~100%%", sumShare)
	}
}

// TestExplainEnergyPrediction checks the prediction EXPLAIN ENERGY prints
// beside each measurement: every operator line carries the plain EXPLAIN's
// rows≈ and E≈ for the same plan, and the E≈ values sum to the "predicted
// total" line.
func TestExplainEnergyPrediction(t *testing.T) {
	e, prof := newProfiledEngine(t)
	stmt, err := sql.Parse(`SELECT cat, SUM(price) FROM items JOIN cats ON cat = cat_id
		WHERE id < 50 GROUP BY cat ORDER BY cat`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(e, stmt)
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := p.Explain()
	measured, _, _, err := p.ExplainEnergy(prof)
	if err != nil {
		t.Fatal(err)
	}
	plain, total := plain[:len(plain)-1], plain[len(plain)-1][0].S
	if len(measured) != len(plain)+2 {
		t.Fatalf("%d EXPLAIN ENERGY lines for %d operators", len(measured), len(plain))
	}
	rowsRE := regexp.MustCompile(`rows(?:=\d+ of )?≈(\d+)`)
	eRE := regexp.MustCompile(`E≈([0-9.e+-]+)([mun]?J)`)
	joules := func(line string) (string, float64) {
		m := eRE.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("no E≈ in %q", line)
		}
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatalf("cannot parse %q: %v", line, err)
		}
		return m[1] + m[2], v * map[string]float64{"J": 1, "mJ": 1e-3, "uJ": 1e-6, "nJ": 1e-9}[m[2]]
	}
	sum := 0.0
	for i, r := range plain {
		got, want := measured[i][0].S, r[0].S
		g, w := rowsRE.FindStringSubmatch(got), rowsRE.FindStringSubmatch(want)
		if g == nil || w == nil || g[1] != w[1] {
			t.Errorf("rows≈ differ:\n  %s\n  %s", got, want)
		}
		ge, v := joules(got)
		if we, _ := joules(want); ge != we {
			t.Errorf("E≈ differ:\n  %s\n  %s", got, want)
		}
		sum += v
	}
	// Each term is rounded to three significant figures.
	if _, want := joules(total); math.Abs(sum-want) > 0.01*want {
		t.Fatalf("operator E≈ sum to %.4g J, %q", sum, total)
	}
	if _, want := joules(measured[len(measured)-1][0].S); math.Abs(sum-want) > 0.01*want {
		t.Fatalf("operator E≈ sum to %.4g J, %q", sum, measured[len(measured)-1][0].S)
	}
}

// TestOptimizerPredictionWithinBound sanity-checks the cost model on the toy
// schema: the predicted total should land within a factor of a few of the
// measured Eactive (the tight 25% acceptance bound is enforced on TPC-H by
// experiment X9).
func TestOptimizerPredictionWithinBound(t *testing.T) {
	e, prof := newProfiledEngine(t)
	for _, q := range []string{
		"SELECT * FROM items",
		"SELECT id, price FROM items WHERE cat = 2",
		"SELECT cat, COUNT(*) FROM items GROUP BY cat",
	} {
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Prepare(e, stmt)
		if err != nil {
			t.Fatal(err)
		}
		pred := p.PredictedEJ()
		op, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		b := prof.Profile("q", func() {
			_, err = exec.Drain(op)
		})
		if err != nil {
			t.Fatal(err)
		}
		if pred <= 0 || b.EActive <= 0 {
			t.Fatalf("%s: pred=%v meas=%v", q, pred, b.EActive)
		}
		if ratio := pred / b.EActive; ratio < 0.2 || ratio > 5 {
			t.Errorf("%s: predicted %.3g J vs measured %.3g J (ratio %.2f)", q, pred, b.EActive, ratio)
		}
	}
}
