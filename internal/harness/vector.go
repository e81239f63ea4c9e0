package harness

import (
	"fmt"

	"energydb/internal/cpusim"
	"energydb/internal/db/engine"
	"energydb/internal/db/plan"
	"energydb/internal/db/sql"
	"energydb/internal/tpch"
)

// RunExtensionVector (X7) measures what vectorized execution does to the
// paper's headline bottleneck: the E_L1D+E_Reg2L1D share of Active energy.
// The row executor's per-tuple interpretation is exactly the hot-loop
// load/store storm Section 3 attributes the L1D share to; batch-at-a-time
// execution amortizes one dispatch over a cache-resident vector, so the
// interpretation component shrinks and the share shifts toward the data
// accesses themselves. Every TPC-H SQL query runs twice on identical
// machines — once with the optimizer free to choose vector operators, once
// with the DisableVectorExec knob forcing the row path — and the table
// reports measured E_active and L1D+Reg2L1D share for both, per query,
// plus the share delta the ISSUE's acceptance asks for.
func RunExtensionVector(o Options) (Result, error) {
	o = o.effective()

	lv, err := newLab(o, cpusim.PState36)
	if err != nil {
		return Result{}, err
	}
	profV := lv.Profiler()
	ev := lv.setupEngine(engine.SQLite, o.Setting, o.Class)

	lr, err := newLab(o, cpusim.PState36)
	if err != nil {
		return Result{}, err
	}
	profR := lr.Profiler()
	er := lr.setupEngine(engine.SQLite, o.Setting, o.Class)
	er.Knobs.DisableVectorExec = true

	queries := sqlQueriesFor(o)
	header := []string{"Query", "vec ops", "E_vec (mJ)", "E_row (mJ)", "dE%", "L1D+St% vec", "L1D+St% row", "dShare (pp)"}
	var rows [][]string
	var shareV, shareR, energyV, energyR float64
	vectorized := 0
	for _, q := range queries {
		_, bv, err := profileSQLQuery(profV, ev, q)
		if err != nil {
			return Result{}, fmt.Errorf("Q%d vector: %v", q.ID, err)
		}
		_, br, err := profileSQLQuery(profR, er, q)
		if err != nil {
			return Result{}, fmt.Errorf("Q%d row: %v", q.ID, err)
		}
		nVec := countVectorOps(ev, q)
		if nVec > 0 {
			vectorized++
		}
		shareV += bv.L1DShare()
		shareR += br.L1DShare()
		energyV += bv.EActive
		energyR += br.EActive
		rows = append(rows, []string{
			fmt.Sprintf("Q%d", q.ID),
			fmt.Sprintf("%d", nVec),
			fmt.Sprintf("%.3f", bv.EActive*1e3),
			fmt.Sprintf("%.3f", br.EActive*1e3),
			fmt.Sprintf("%+.1f", (bv.EActive/br.EActive-1)*100),
			fmt.Sprintf("%.1f", bv.L1DShare()*100),
			fmt.Sprintf("%.1f", br.L1DShare()*100),
			fmt.Sprintf("%+.1f", (bv.L1DShare()-br.L1DShare())*100),
		})
	}
	n := float64(len(queries))
	text, csv := table("Extension X7: L1D-share with and without vectorization (SQLite, warm buffers)", header, rows)
	text += fmt.Sprintf("\nqueries with at least one vector operator: %d/%d\n", vectorized, len(queries))
	text += fmt.Sprintf("total E_active: vector %.3f mJ vs row %.3f mJ (%+.1f%%)\n",
		energyV*1e3, energyR*1e3, (energyV/energyR-1)*100)
	text += fmt.Sprintf("avg L1D+Reg2L1D share: vector %.1f%% vs row %.1f%% (measured delta %+.1f pp)\n",
		shareV/n*100, shareR/n*100, (shareV-shareR)/n*100)
	return Result{ID: "X7", Title: "Extension X7 (vectorized execution vs the L1D bottleneck)", Text: text, CSV: csv}, nil
}

// countVectorOps prepares the query on the vector-enabled engine and counts
// the operators the optimizer switched to vector mode.
func countVectorOps(e *engine.Engine, q tpch.SQLQuery) int {
	stmt, err := sql.Parse(q.Text)
	if err != nil {
		return 0
	}
	p, err := plan.Prepare(e, stmt)
	if err != nil {
		return 0
	}
	n := 0
	var walk func(nd *plan.Node)
	walk = func(nd *plan.Node) {
		if nd.Mode == plan.ModeVector {
			n++
		}
		for _, k := range nd.Kids {
			walk(k)
		}
	}
	walk(p.Root)
	return n
}
