package plan

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/db/catalog"
	"energydb/internal/db/engine"
	"energydb/internal/db/exec"
	"energydb/internal/db/sql"
	"energydb/internal/db/value"
	"energydb/internal/tpch"
)

// vecTestEngine builds an engine with one `facts` table of the given size.
func vecTestEngine(t *testing.T, rows int) *engine.Engine {
	t.Helper()
	return factsEngine(cpusim.NewMachine(cpusim.IntelI7_4790()), rows)
}

// factsEngine loads `facts` into a new SQLite engine on m.
func factsEngine(m *cpusim.Machine, rows int) *engine.Engine {
	e := engine.New(engine.SQLite, m, engine.SettingBaseline)
	facts := e.CreateTable("facts", catalog.NewSchema(
		catalog.Column{Name: "id", Type: value.TypeInt},
		catalog.Column{Name: "grp", Type: value.TypeInt},
		catalog.Column{Name: "amount", Type: value.TypeFloat},
	))
	for i := 0; i < rows; i++ {
		e.Insert(facts, value.Row{
			value.Int(int64(i)),
			value.Int(int64(i % 5)),
			value.Float(float64(i%89) / 3),
		})
	}
	return e
}

// findNode returns the first node of the kind in preorder.
func findNode(n *Node, k opKind) *Node {
	if n.Kind == k {
		return n
	}
	for _, kid := range n.Kids {
		if f := findNode(kid, k); f != nil {
			return f
		}
	}
	return nil
}

func prepare(t *testing.T, e *engine.Engine, query string) *Prepared {
	t.Helper()
	stmt, err := sql.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(e, stmt)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// pointLookups are the benchmark's point-lookup statements: one keyed
// single-row SELECT on each of three indexed TPC-H tables.
var pointLookups = []string{
	"SELECT o_totalprice, o_orderdate FROM orders WHERE o_orderkey = 1234",
	"SELECT c_name, c_acctbal FROM customer WHERE c_custkey = 77",
	"SELECT n_name FROM nation WHERE n_nationkey = 7",
}

// modes lists the plan's node modes in preorder.
func modes(n *Node) []Mode {
	out := []Mode{n.Mode}
	for _, k := range n.Kids {
		out = append(out, modes(k)...)
	}
	return out
}

// TestVectorModeChoice checks the mode rule on its edges: a filter+aggregate
// runs vector over 5000 rows and over three alike — no cardinality crossover
// decides it — while a keyed plan, one whose every scan reads at most one
// row, runs row throughout. A key range of two rows is not keyed.
func TestVectorModeChoice(t *testing.T) {
	const query = "SELECT grp, SUM(amount) FROM facts WHERE amount > 1 GROUP BY grp"
	for _, rows := range []int{5000, 3} {
		p := prepare(t, vecTestEngine(t, rows), query)
		scan := findNode(p.Root, opSeqScan)
		agg := findNode(p.Root, opAggregate)
		if scan == nil || agg == nil {
			t.Fatalf("plan shape: %s", p.Summary())
		}
		if scan.Mode != ModeVector || agg.Mode != ModeVector {
			t.Errorf("%d-row scan and aggregate chose %v and %v, want vector", rows, scan.Mode, agg.Mode)
		}
	}

	e := engine.New(engine.PostgreSQL, cpusim.NewMachine(cpusim.IntelI7_4790()), engine.SettingBaseline)
	tpch.Setup(e, tpch.Size10MB)
	for _, q := range pointLookups {
		p := prepare(t, e, q)
		if slices.Contains(modes(p.Root), ModeVector) {
			t.Errorf("%s: a keyed plan must run row throughout:\n%s", q, explainText(p))
		}
	}

	p := prepare(t, writeEngine(t, 5000), "SELECT amount FROM facts WHERE id BETWEEN 10 AND 11")
	if s := findNode(p.Root, opIndexScan); s == nil || slices.Contains(modes(p.Root), ModeRow) {
		t.Errorf("a two-row key range must run vector through an index scan:\n%s", explainText(p))
	}
}

// TestDisableVectorExecKnob checks the X7 escape hatch: with the knob set,
// every operator stays in row mode regardless of cardinality.
func TestDisableVectorExecKnob(t *testing.T) {
	e := vecTestEngine(t, 5000)
	e.Knobs.DisableVectorExec = true
	p := prepare(t, e, "SELECT grp, SUM(amount) FROM facts GROUP BY grp")
	var assertRow func(n *Node)
	assertRow = func(n *Node) {
		if n.Mode != ModeRow {
			t.Errorf("%s chose %v with DisableVectorExec", n.Title(), n.Mode)
		}
		for _, k := range n.Kids {
			assertRow(k)
		}
	}
	assertRow(p.Root)
}

// TestVectorPlanMatchesRowPlan runs the same statement through the vector
// plan and the forced-row plan and requires identical result sets.
func TestVectorPlanMatchesRowPlan(t *testing.T) {
	const query = `SELECT grp, COUNT(*) AS n, SUM(amount) AS total
		FROM facts WHERE id < 4000 AND amount > 2 GROUP BY grp ORDER BY grp`

	ev := vecTestEngine(t, 5000)
	got, _, err := Run(ev, query)
	if err != nil {
		t.Fatal(err)
	}
	if p := prepare(t, ev, query); findNode(p.Root, opSeqScan).Mode != ModeVector {
		t.Fatalf("test premise: plan did not choose vector mode:\n%s", p.Summary())
	}

	er := vecTestEngine(t, 5000)
	er.Knobs.DisableVectorExec = true
	want, _, err := Run(er, query)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("vector plan result differs from row plan:\n got %v\nwant %v", got, want)
	}
}

// joinVecEngine builds a PostgreSQL-profile engine with an unindexed
// dim/facts pair, so the optimizer's join choice is a hash join and the
// row-versus-vector decision is exercised on it (the SQLite profile prefers
// index joins whenever an index exists).
func joinVecEngine(t *testing.T, dimRows, factRows int) *engine.Engine {
	t.Helper()
	m := cpusim.NewMachine(cpusim.IntelI7_4790())
	e := engine.New(engine.PostgreSQL, m, engine.SettingBaseline)
	dim := e.CreateTable("dim", catalog.NewSchema(
		catalog.Column{Name: "did", Type: value.TypeInt},
		catalog.Column{Name: "label", Type: value.TypeStr, Width: 8},
	))
	for i := 0; i < dimRows; i++ {
		e.Insert(dim, value.Row{value.Int(int64(i)), value.Str([]string{"a", "b", "c"}[i%3])})
	}
	facts := e.CreateTable("facts", catalog.NewSchema(
		catalog.Column{Name: "id", Type: value.TypeInt},
		catalog.Column{Name: "grp", Type: value.TypeInt},
		catalog.Column{Name: "amount", Type: value.TypeFloat},
	))
	for i := 0; i < factRows; i++ {
		e.Insert(facts, value.Row{
			value.Int(int64(i)),
			value.Int(int64(i % dimRows)),
			value.Float(float64(i%89) / 3),
		})
	}
	return e
}

const joinQuery = "SELECT id, label FROM facts JOIN dim ON grp = did ORDER BY amount DESC"

// TestJoinSortModeChoice checks the mode rule on joins: with both inputs
// large the hash join and the sort above it go vector; a one-row build side
// stays in the vector chain under 6000 probe rows and under a dozen, and the
// plan runs row when the probe side is a single row too (every scan reads
// one row). The chosen plan never measures above the forced-row one.
func TestJoinSortModeChoice(t *testing.T) {
	p := prepare(t, joinVecEngine(t, 4000, 6000), joinQuery)
	join := findNode(p.Root, opHashJoin)
	srt := findNode(p.Root, opSort)
	if join == nil || srt == nil {
		t.Fatalf("plan shape:\n%s", p.Summary())
	}
	if join.Mode != ModeVector {
		t.Errorf("big hash join chose %v, want vector:\n%s", join.Mode, p.Summary())
	}
	if srt.Mode != ModeVector {
		t.Errorf("big sort chose %v, want vector:\n%s", srt.Mode, p.Summary())
	}

	// measure drains the statement and prices its counter delta.
	measure := func(e *engine.Engine) (float64, *Prepared) {
		p := prepare(t, e, joinQuery)
		op, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		before := e.M.Hier.Counters()
		if _, err := exec.Drain(op); err != nil {
			t.Fatal(err)
		}
		return e.M.Profile.Energy.Active(e.M.Hier.Counters().Sub(before), e.M.PState()).Total(), p
	}
	// joinVecEngine takes grp modulo the dim size, so it needs dims <= facts.
	for _, facts := range []int{6000, 12, 1} {
		free, p := measure(joinVecEngine(t, 1, facts))
		rowOnly := joinVecEngine(t, 1, facts)
		rowOnly.Knobs.DisableVectorExec = true
		row, _ := measure(rowOnly)
		mode := findNode(p.Root, opHashJoin).Mode
		t.Logf("1-row build under %d probe rows: mode=%s, free %s, forced row %s", facts, mode, fmtEnergy(free), fmtEnergy(row))
		if want := map[bool]Mode{true: ModeVector, false: ModeRow}[facts > 1]; mode != want {
			t.Errorf("1-row build under %d probe rows: join chose %s, want %s:\n%s", facts, mode, want, explainText(p))
		}
		if free > row {
			t.Errorf("1-row build under %d probe rows: free plan costs %s, forced row %s", facts, fmtEnergy(free), fmtEnergy(row))
		}
	}
}

// TestVectorJoinPlanMatchesRowPlan runs the join+sort statement through the
// vector plan and the forced-row plan and requires identical result sets.
func TestVectorJoinPlanMatchesRowPlan(t *testing.T) {
	ev := joinVecEngine(t, 4000, 6000)
	got, _, err := Run(ev, joinQuery)
	if err != nil {
		t.Fatal(err)
	}
	if p := prepare(t, ev, joinQuery); findNode(p.Root, opHashJoin).Mode != ModeVector {
		t.Fatalf("test premise: plan did not choose a vector join:\n%s", p.Summary())
	}

	er := joinVecEngine(t, 4000, 6000)
	er.Knobs.DisableVectorExec = true
	want, _, err := Run(er, joinQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("vector join plan differs from row plan: %d vs %d rows", len(got), len(want))
	}
}

// TestExplainShowsJoinSortMode checks the EXPLAIN mode annotation lands on
// the join and sort nodes themselves.
func TestExplainShowsJoinSortMode(t *testing.T) {
	e := joinVecEngine(t, 4000, 6000)
	for _, line := range explainLines(t, e, joinQuery) {
		if strings.Contains(line, "HashJoin") && !strings.Contains(line, "mode=vector") {
			t.Errorf("join line missing mode=vector: %s", line)
		}
		if strings.Contains(line, "Sort") && !strings.Contains(line, "mode=vector") {
			t.Errorf("sort line missing mode=vector: %s", line)
		}
	}
}

// TestExplainShowsMode checks the EXPLAIN annotation on both paths: a free
// plan over a table prints mode=vector, a keyed lookup mode=row.
func TestExplainShowsMode(t *testing.T) {
	e := writeEngine(t, 5000)
	joined := strings.Join(explainLines(t, e, "SELECT grp, SUM(amount) FROM facts GROUP BY grp"), "\n")
	if !strings.Contains(joined, "mode=vector") || strings.Contains(joined, "mode=row") {
		t.Errorf("free EXPLAIN is not all mode=vector:\n%s", joined)
	}
	keyed := strings.Join(explainLines(t, e, "SELECT amount FROM facts WHERE id = 77"), "\n")
	if !strings.Contains(keyed, "mode=row") || strings.Contains(keyed, "mode=vector") {
		t.Errorf("keyed EXPLAIN is not all mode=row:\n%s", keyed)
	}
}

// TestChainModePricing is the table-driven contract of the mode rule on
// chains: every node with a vector form runs vector above a vector child, a
// row-only parent (Limit) takes rows from the chain top below it, and a plan
// whose scans read one row each runs row throughout. Where a row consumer
// takes over, the chain top's estimate is its vector price plus the
// RowSource transition: an aggregate that tops its chain is predicted above
// the same aggregate inside one by exactly that price.
func TestChainModePricing(t *testing.T) {
	cases := []struct {
		name  string
		rows  int
		query string
		want  map[opKind]Mode
	}{
		{
			name:  "mid-chain sort stays vector inside a committed chain",
			rows:  5000,
			query: "SELECT id, amount FROM facts WHERE amount > 1 ORDER BY amount DESC",
			want: map[opKind]Mode{
				opProject: ModeVector, opSort: ModeVector, opSeqScan: ModeVector,
			},
		},
		{
			name:  "mid-chain projected expression stays vector",
			rows:  5000,
			query: "SELECT id + 1 AS x FROM facts WHERE amount > 1 ORDER BY x",
			want: map[opKind]Mode{
				opProject: ModeVector, opSort: ModeVector, opSeqScan: ModeVector,
			},
		},
		{
			name:  "aggregate stays vector under the sort above it",
			rows:  5000,
			query: "SELECT grp, COUNT(*) AS n FROM facts GROUP BY grp ORDER BY grp",
			want: map[opKind]Mode{
				opSort: ModeVector, opAggregate: ModeVector, opSeqScan: ModeVector,
			},
		},
		{
			name:  "selective chain stays vector above the scan",
			rows:  5000,
			query: "SELECT id FROM facts WHERE id < 40 ORDER BY amount",
			want: map[opKind]Mode{
				opProject: ModeVector, opSort: ModeVector, opSeqScan: ModeVector,
			},
		},
		{
			name:  "limit takes rows from the chain top below it",
			rows:  5000,
			query: "SELECT id FROM facts WHERE amount > 1 ORDER BY amount LIMIT 3",
			want: map[opKind]Mode{
				opLimit: ModeRow, opProject: ModeVector, opSort: ModeVector, opSeqScan: ModeVector,
			},
		},
		{
			name:  "tiny table stays all-row (no chain worth a boundary)",
			rows:  1,
			query: "SELECT grp, SUM(amount) AS s FROM facts WHERE amount > 1 GROUP BY grp",
			want: map[opKind]Mode{
				opAggregate: ModeRow, opSeqScan: ModeRow,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := prepare(t, vecTestEngine(t, tc.rows), tc.query)
			checkModeRule(t, tc.query, p)
			for kind, want := range tc.want {
				n := findNode(p.Root, kind)
				if n == nil {
					t.Fatalf("plan has no %v node: %s", kind, p.Summary())
				}
				if n.Mode != want {
					t.Errorf("%s chose %v, want %v\n%s", n.Title(), n.Mode, want, p.Summary())
				}
			}
		})
	}

	e := vecTestEngine(t, 5000)
	top := findNode(prepare(t, e, "SELECT grp, COUNT(*) AS n FROM facts GROUP BY grp").Root, opAggregate)
	inner := findNode(prepare(t, e, "SELECT grp, COUNT(*) AS n FROM facts GROUP BY grp ORDER BY grp").Root, opAggregate)
	pc := &planCtx{e: e, c: newCoster(e)}
	transition := pc.costBoundary(top, &flow{batches: pc.batchesFor(top.EstRows)})
	if got := top.EstEJ - inner.EstEJ; !(transition > 0) || math.Abs(got-transition) > 1e-9*top.EstEJ {
		t.Errorf("chain-top aggregate predicted %s above the interior one, want the transition %s", fmtEnergy(got), fmtEnergy(transition))
	}
}

// TestFlowLive pins the live-batch rule the buffering consumers are bound
// with: every batch while the selection is dense, none when it is empty, and
// about one batch per surviving row when almost nothing is selected.
func TestFlowLive(t *testing.T) {
	f := &flow{batches: 60, rows: 60 * 1024}
	if b, r := f.live(f.rows / 10); b != f.batches || r != f.rows {
		t.Errorf("dense selection: live = %v batches, %v rows, want all of %v, %v", b, r, f.batches, f.rows)
	}
	if b, r := f.live(0); b != 0 || r != 0 {
		t.Errorf("empty selection: live = %v batches, %v rows, want none", b, r)
	}
	if b, _ := f.live(6); b < 5 || b > 6 {
		t.Errorf("6 rows selected out of 60 batches: live = %v batches, want just under 6", b)
	}
}
