package harness

import (
	"fmt"
	"math"

	"energydb/internal/cpusim"
	"energydb/internal/db/engine"
	"energydb/internal/db/plan"
	"energydb/internal/db/sql"
	"energydb/internal/tpch"
)

// ReadmeJoinQuery is the wide-row join-plus-sort example the README walks
// through: a vector chain (two scans, a many-match hash join, a large sort)
// whose estimate X8 showed over-predicting by more than double. X9 pins it
// alongside the TPC-H sweep because it exercises exactly the paths the
// chain-wise estimator fixes target — the consumer-aware gather, the
// merge-locality comparator and the boundary transition charge.
const ReadmeJoinQuery = `SELECT * FROM lineitem JOIN partsupp ON l_suppkey = ps_suppkey WHERE l_quantity < 2 ORDER BY ps_availqty DESC`

// RunExtensionAccuracy (X9) validates the cost model's predicted E_active
// against the measured E_active of every TPC-H query's optimizer-chosen
// plan, after the chain-wise mode selection and gather/sort/scan estimator
// fixes. X6 established the pred-vs-meas protocol; X9 is its acceptance
// sweep for the estimator rework: every query runs warm under the Eq. 1
// profiler on the SQLite profile, the README join example rides along as a
// 23rd row, and the table reports the signed error per query plus the
// within-±25% count the fixes are accepted on. Rows also show the plan's
// vector-operator count, so a prediction error can be read against how much
// of the plan went batch-at-a-time.
func RunExtensionAccuracy(o Options) (Result, error) {
	o = o.effective()
	l, err := newLab(o, cpusim.PState36)
	if err != nil {
		return Result{}, err
	}
	prof := l.Profiler()
	e := l.setupEngine(engine.SQLite, o.Setting, o.Class)

	queries := sqlQueriesFor(o)
	queries = append(queries, tpch.SQLQuery{ID: 0, Text: ReadmeJoinQuery, Exact: true,
		Note: "README join example"})

	header := []string{"Query", "pred (mJ)", "meas (mJ)", "err%", "vec ops"}
	var rows [][]string
	within, total := 0, 0
	worstErr, worstID := 0.0, ""
	var readmeErr float64
	for _, q := range queries {
		pred, b, err := profileSQLQuery(prof, e, q)
		if err != nil {
			return Result{}, fmt.Errorf("Q%d: %v", q.ID, err)
		}
		errPct := (pred/b.EActive - 1) * 100
		name := fmt.Sprintf("Q%d", q.ID)
		if q.ID == 0 {
			name = "README"
			readmeErr = errPct
		} else {
			total++
			if math.Abs(errPct) <= 25 {
				within++
			}
		}
		if math.Abs(errPct) > math.Abs(worstErr) {
			worstErr, worstID = errPct, name
		}
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%.3f", pred*1e3),
			fmt.Sprintf("%.3f", b.EActive*1e3),
			fmt.Sprintf("%+.1f", errPct),
			fmt.Sprintf("%d", countVecOps(e, q)),
		})
	}
	text, csv := table("Extension X9: estimator accuracy — predicted vs measured E_active after chain-wise mode pricing (SQLite, warm buffers)", header, rows)
	text += fmt.Sprintf("\nprediction within +/-25%%: %d/%d queries\n", within, total)
	text += fmt.Sprintf("README join example error: %+.1f%% (band +/-25%%)\n", readmeErr)
	text += fmt.Sprintf("worst absolute error: %+.1f%% on %s\n", worstErr, worstID)
	return Result{ID: "X9", Title: "Extension X9 (estimator accuracy sweep)", Text: text, CSV: csv}, nil
}

// countVecOps replans the query text and counts vector-mode operators in the
// chosen plan (planning is deterministic given the warm engine state, so the
// count matches the profiled run's plan).
func countVecOps(e *engine.Engine, q tpch.SQLQuery) int {
	stmt, err := sql.Parse(q.Text)
	if err != nil {
		return 0
	}
	p, err := plan.Prepare(e, stmt)
	if err != nil {
		return 0
	}
	count := 0
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		if n.Mode == plan.ModeVector {
			count++
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(p.Root)
	return count
}
