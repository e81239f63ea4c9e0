package plan

import (
	"reflect"
	"strings"
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/db/catalog"
	"energydb/internal/db/engine"
	"energydb/internal/db/exec"
	"energydb/internal/db/sql"
	"energydb/internal/db/value"
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

// TestVectorModeChoice checks the optimizer's row-versus-vector decision: a
// full-table filter+aggregate over many rows goes vector (the per-batch
// dispatch amortizes), while the same query over a handful of rows falls
// back to row mode — the ISSUE's tiny-cardinality regression.
func TestVectorModeChoice(t *testing.T) {
	const query = "SELECT grp, SUM(amount) FROM facts WHERE amount > 1 GROUP BY grp"

	big := prepare(t, vecTestEngine(t, 5000), query)
	scan := findNode(big.Root, opSeqScan)
	agg := findNode(big.Root, opAggregate)
	if scan == nil || agg == nil {
		t.Fatalf("plan shape: %s", big.Summary())
	}
	if scan.Mode != ModeVector {
		t.Errorf("5000-row scan chose %v, want vector", scan.Mode)
	}
	if agg.Mode != ModeVector {
		t.Errorf("5000-row aggregate chose %v, want vector", agg.Mode)
	}

	tiny := prepare(t, vecTestEngine(t, 3), query)
	if scan := findNode(tiny.Root, opSeqScan); scan == nil || scan.Mode != ModeRow {
		t.Errorf("3-row scan must stay on the row path, got %v", scan.Mode)
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

// TestJoinSortModeChoice checks the crossover model on joins: with both
// inputs large the hash join and the sort above it go vector; a build side
// under one batch is decided by its price like everything else — a one-row
// build stays in the vector chain under 6000 probe rows and under a dozen,
// falls back to the row path under a single one, and the chosen plan never
// measures above the forced-row one.
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

// TestExplainShowsMode checks the EXPLAIN annotation on both paths.
func TestExplainShowsMode(t *testing.T) {
	e := vecTestEngine(t, 5000)
	lines := explainLines(t, e, "SELECT grp, SUM(amount) FROM facts GROUP BY grp")
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "mode=vector") {
		t.Errorf("big-table EXPLAIN missing mode=vector:\n%s", joined)
	}

	e2 := vecTestEngine(t, 3)
	joined2 := strings.Join(explainLines(t, e2,
		"SELECT grp, SUM(amount) FROM facts WHERE amount > 1 GROUP BY grp"), "\n")
	if !strings.Contains(joined2, "mode=row") {
		t.Errorf("tiny-table EXPLAIN missing mode=row:\n%s", joined2)
	}
}

// TestChainModePricing is the table-driven contract of the chain-wise mode
// chooser: operators sandwiched inside a profitable vector chain stay in the
// chain (a node-local row win would silently force two un-priced boundary
// crossings), a chain consumed by a row parent carries its transition price
// exactly at the chain top, and when the transition-priced chain genuinely
// loses — a selective filter leaving a handful of rows above a big scan —
// the operators above the scan drop to row mode while the scan keeps its
// priced boundary. Every chosen plan must also beat (or match) the all-row
// alternative, since the DP explicitly prices that hypothesis.
func TestChainModePricing(t *testing.T) {
	cases := []struct {
		name  string
		rows  int
		query string
		want  map[opKind]Mode
		// boundaryOn is the node kind expected to carry the chain top's
		// transition price (xfer≈ in EXPLAIN).
		boundaryOn opKind
	}{
		{
			name:  "mid-chain sort stays vector inside a committed chain",
			rows:  5000,
			query: "SELECT id, amount FROM facts WHERE amount > 1 ORDER BY amount DESC",
			want: map[opKind]Mode{
				opProject: ModeVector, opSort: ModeVector, opSeqScan: ModeVector,
			},
			boundaryOn: opProject,
		},
		{
			name:  "mid-chain projected expression stays vector",
			rows:  5000,
			query: "SELECT id + 1 AS x FROM facts WHERE amount > 1 ORDER BY x",
			want: map[opKind]Mode{
				opProject: ModeVector, opSort: ModeVector, opSeqScan: ModeVector,
			},
			boundaryOn: opProject,
		},
		{
			name:  "aggregate chain top absorbs the boundary under a row sort",
			rows:  5000,
			query: "SELECT grp, COUNT(*) AS n FROM facts GROUP BY grp ORDER BY grp",
			want: map[opKind]Mode{
				opSort: ModeRow, opAggregate: ModeVector, opSeqScan: ModeVector,
			},
			boundaryOn: opAggregate,
		},
		{
			name:  "selective chain drops to row above the scan, scan keeps its priced boundary",
			rows:  5000,
			query: "SELECT id FROM facts WHERE id < 40 ORDER BY amount",
			want: map[opKind]Mode{
				opProject: ModeRow, opSort: ModeRow, opSeqScan: ModeVector,
			},
			boundaryOn: opSeqScan,
		},
		{
			name:  "tiny table stays all-row (no chain worth a boundary)",
			rows:  3,
			query: "SELECT grp, SUM(amount) AS s FROM facts WHERE amount > 1 GROUP BY grp",
			want: map[opKind]Mode{
				opAggregate: ModeRow, opSeqScan: ModeRow,
			},
			boundaryOn: opKind(-1),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := prepare(t, vecTestEngine(t, tc.rows), tc.query)
			checkChainConsistency(t, tc.query, p.Root, false)
			for kind, want := range tc.want {
				n := findNode(p.Root, kind)
				if n == nil {
					t.Fatalf("plan has no %v node: %s", kind, p.Summary())
				}
				if n.Mode != want {
					t.Errorf("%s chose %v, want %v\n%s", n.Title(), n.Mode, want, p.Summary())
				}
			}
			var walk func(n *Node)
			walk = func(n *Node) {
				if n.Kind == tc.boundaryOn && !(n.BoundaryEJ > 0) {
					t.Errorf("%s should carry the chain's transition price", n.Title())
				}
				if n.Kind != tc.boundaryOn && n.BoundaryEJ != 0 {
					t.Errorf("%s carries an unexpected transition price %g", n.Title(), n.BoundaryEJ)
				}
				for _, k := range n.Kids {
					walk(k)
				}
			}
			walk(p.Root)

			// The committed plan must not lose to the all-row hypothesis the
			// DP priced against it.
			er := vecTestEngine(t, tc.rows)
			er.Knobs.DisableVectorExec = true
			allRow := prepare(t, er, tc.query)
			if p.PredictedEJ() > allRow.PredictedEJ()*(1+1e-9) {
				t.Errorf("chosen plan predicts %g J, all-row predicts %g J — chooser left energy on the table",
					p.PredictedEJ(), allRow.PredictedEJ())
			}
		})
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
