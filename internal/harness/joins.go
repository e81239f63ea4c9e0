package harness

import (
	"fmt"
	"strings"

	"energydb/internal/core"
	"energydb/internal/cpusim"
	"energydb/internal/db/engine"
	"energydb/internal/db/exec"
	"energydb/internal/db/plan"
	"energydb/internal/db/sql"
	"energydb/internal/db/vec"
	"energydb/internal/memsim"
	"energydb/internal/tpch"
)

// joinDominatedShare is the cut for the join-dominated subset: a query
// belongs when its join operators (hash or index) are predicted to draw at
// least this fraction of the plan's active energy on the forced-row plan.
const joinDominatedShare = 0.25

// RunExtensionJoin (X8) isolates what batch-at-a-time joins and sorts do to
// the paper's L1D bottleneck. X7 showed the filter/aggregate pipeline's
// share shift; the join build/probe loop and the sort's key extraction are
// the remaining per-tuple interpreters, and their vectorized replacements
// (one hash kernel per probe batch, bulk key extraction, lazily rows-backed
// gather) remove the same dispatch-per-row load/store storm.
//
// The sweep runs on the PostgreSQL profile: its optimizer hash-joins any
// build side that fits work_mem, so the batch join actually fires (SQLite's
// bytecode VM prefers index nested loops, which stay row-at-a-time by
// design). Every TPC-H SQL query runs twice on identically calibrated
// machines — optimizer free to vectorize versus the DisableVectorExec knob
// forcing the row path — and the table reports measured E_active and the
// L1D+Reg2L1D share for both. Queries whose join operators are predicted to
// draw at least 25% of plan energy form the join-dominated subset the
// acceptance targets; their deltas are summarized separately.
//
// Because the optimizer's index preference keeps most stock TPC-H joins on
// the index nested loop, a join lab follows the sweep: the batch hash join
// and sort are profiled head-to-head against their row twins on TPC-H base
// tables, where the build side is well past one batch. The run ends with a
// meter-partition check: a mixed row/vector plan is rebuilt with
// per-operator meters and the per-operator counter deltas must sum exactly
// to the statement's ledger delta.
func RunExtensionJoin(o Options) (Result, error) {
	o = o.effective()

	lv, err := newLab(o, cpusim.PState36)
	if err != nil {
		return Result{}, err
	}
	profV := lv.Profiler()
	ev := lv.setupEngine(engine.PostgreSQL, o.Setting, o.Class)

	lr, err := newLab(o, cpusim.PState36)
	if err != nil {
		return Result{}, err
	}
	profR := lr.Profiler()
	er := lr.setupEngine(engine.PostgreSQL, o.Setting, o.Class)
	er.Knobs.DisableVectorExec = true

	queries := joinQueriesFor(o)
	header := []string{"Query", "join E%", "vec j/s", "E_vec (mJ)", "E_row (mJ)", "dE%", "L1D+St% vec", "L1D+St% row", "dShare (pp)"}
	var rows [][]string
	var energyV, energyR float64
	var subsetIDs []string
	var subV, subR, subShareV, subShareR float64
	vectorized := 0
	for _, q := range queries {
		jshare, err := joinEnergyShare(er, q)
		if err != nil {
			return Result{}, fmt.Errorf("Q%d plan: %v", q.ID, err)
		}
		_, bv, err := profileSQLQuery(profV, ev, q)
		if err != nil {
			return Result{}, fmt.Errorf("Q%d vector: %v", q.ID, err)
		}
		_, br, err := profileSQLQuery(profR, er, q)
		if err != nil {
			return Result{}, fmt.Errorf("Q%d row: %v", q.ID, err)
		}
		nVec := countVectorJoinSort(ev, q)
		if nVec > 0 {
			vectorized++
		}
		energyV += bv.EActive
		energyR += br.EActive
		if jshare >= joinDominatedShare {
			subsetIDs = append(subsetIDs, fmt.Sprintf("Q%d", q.ID))
			subV += bv.EActive
			subR += br.EActive
			subShareV += bv.L1DShare()
			subShareR += br.L1DShare()
		}
		rows = append(rows, []string{
			fmt.Sprintf("Q%d", q.ID),
			fmt.Sprintf("%.1f", jshare*100),
			fmt.Sprintf("%d", nVec),
			fmt.Sprintf("%.3f", bv.EActive*1e3),
			fmt.Sprintf("%.3f", br.EActive*1e3),
			fmt.Sprintf("%+.1f", (bv.EActive/br.EActive-1)*100),
			fmt.Sprintf("%.1f", bv.L1DShare()*100),
			fmt.Sprintf("%.1f", br.L1DShare()*100),
			fmt.Sprintf("%+.1f", (bv.L1DShare()-br.L1DShare())*100),
		})
	}

	partition, err := meterPartitionLine(ev)
	if err != nil {
		return Result{}, err
	}
	labText, labCSV, err := joinLab(profV, ev, profR, er)
	if err != nil {
		return Result{}, err
	}

	text, csv := table("Extension X8: vector join/sort vs forced-row (PostgreSQL, warm buffers)", header, rows)
	text += "\nnote: stock TPC-H plans on this profile favor index nested-loop joins\n" +
		"(every join key is indexed) and the surviving hash joins build dimension\n" +
		"tables smaller than one batch, so the sweep's deltas come mostly from\n" +
		"vector scans and aggregates; the join lab below isolates the batch join.\n"
	text += "\n" + labText
	csv += "\n" + labCSV
	text += fmt.Sprintf("\nqueries with a vectorized join or sort: %d/%d\n", vectorized, len(queries))
	text += fmt.Sprintf("total E_active: vector %.3f mJ vs row %.3f mJ (%+.1f%%)\n",
		energyV*1e3, energyR*1e3, (energyV/energyR-1)*100)
	if n := float64(len(subsetIDs)); n > 0 {
		text += fmt.Sprintf("join-dominated subset (join ops >= %.0f%% of predicted plan energy): %s\n",
			joinDominatedShare*100, strings.Join(subsetIDs, ", "))
		text += fmt.Sprintf("subset E_active: vector %.3f mJ vs row %.3f mJ (%+.1f%%)\n",
			subV*1e3, subR*1e3, (subV/subR-1)*100)
		text += fmt.Sprintf("subset avg L1D+Reg2L1D share: vector %.1f%% vs row %.1f%% (measured delta %+.1f pp)\n",
			subShareV/n*100, subShareR/n*100, (subShareV-subShareR)/n*100)
	}
	text += partition + "\n"
	return Result{ID: "X8", Title: "Extension X8 (vectorized join/sort vs forced-row execution)", Text: text, CSV: csv}, nil
}

// joinQueriesFor returns the X8 sweep: all 22 queries, or a quick subset
// that keeps Q9 — the join-dominated representative the acceptance names —
// alongside a scan-bound control (Q6) and two mid-weight join queries.
func joinQueriesFor(o Options) []tpch.SQLQuery {
	qs := tpch.SQLQueries()
	if !o.Quick {
		return qs
	}
	var out []tpch.SQLQuery
	for _, q := range qs {
		switch q.ID {
		case 3, 6, 9, 13:
			out = append(out, q)
		}
	}
	return out
}

// joinEnergyShare prepares the query and returns the fraction of the plan's
// predicted active energy spent in join operators (hash or index), using
// each node's exclusive estimate. The share is computed on whichever engine
// is passed; X8 uses the forced-row engine so the subset definition does not
// depend on the mode choice under measurement.
func joinEnergyShare(e *engine.Engine, q tpch.SQLQuery) (float64, error) {
	stmt, err := sql.Parse(q.Text)
	if err != nil {
		return 0, err
	}
	p, err := plan.Prepare(e, stmt)
	if err != nil {
		return 0, err
	}
	var join, total float64
	var walk func(nd *plan.Node)
	walk = func(nd *plan.Node) {
		total += nd.EstEJ
		if isJoinNode(nd) {
			join += nd.EstEJ
		}
		for _, k := range nd.Kids {
			walk(k)
		}
	}
	walk(p.Root)
	if total <= 0 {
		return 0, nil
	}
	return join / total, nil
}

// joinLab isolates the batch join and sort on TPC-H base tables, where the
// optimizer's index preference cannot hide them: lineitem ⋈ orders on the
// order key (the build side is well past one batch, so the guard that keeps
// tiny dimension builds on the row path does not apply) and the two-key
// lineitem sort. Each operator tree is drained once to warm the buffer pool,
// then rebuilt and profiled — the row executor on the forced-row lab, the
// batch executor on the vector lab — so the E_active and L1D+Reg2L1D deltas
// are the join/sort kernels' own.
func joinLab(profV *core.Profiler, ev *engine.Engine, profR *core.Profiler, er *engine.Engine) (string, string, error) {
	sortKeys := []exec.SortKey{
		{Expr: exec.Col{Idx: 5}, Desc: true}, // l_extendedprice
		{Expr: exec.Col{Idx: 4}},             // l_quantity
	}
	rowJoin := func(e *engine.Engine) exec.Operator {
		return &exec.HashJoin{
			Ctx:   e.Ctx,
			Build: e.Scan(e.MustTable("orders"), nil), Probe: e.Scan(e.MustTable("lineitem"), nil),
			BuildKey: []int{0}, ProbeKey: []int{0},
		}
	}
	vecJoin := func(e *engine.Engine) exec.Operator {
		return &vec.RowSource{Child: &vec.HashJoin{
			Ctx:      e.Ctx,
			Build:    &vec.Scan{Ctx: e.Ctx, File: e.MustTable("orders").File},
			Probe:    &vec.Scan{Ctx: e.Ctx, File: e.MustTable("lineitem").File},
			BuildKey: []int{0}, ProbeKey: []int{0},
		}}
	}
	rowSort := func(e *engine.Engine) exec.Operator {
		return e.Sort(e.Scan(e.MustTable("lineitem"), nil), sortKeys)
	}
	vecSort := func(e *engine.Engine) exec.Operator {
		return &vec.RowSource{Child: &vec.Sort{
			Ctx:   e.Ctx,
			Child: &vec.Scan{Ctx: e.Ctx, File: e.MustTable("lineitem").File},
			Keys:  sortKeys,
		}}
	}
	profileOp := func(prof *core.Profiler, e *engine.Engine, name string, mk func(*engine.Engine) exec.Operator) (core.Breakdown, error) {
		if _, err := exec.Drain(mk(e)); err != nil {
			return core.Breakdown{}, err
		}
		var runErr error
		b := prof.Profile(name, func() {
			_, runErr = exec.Drain(mk(e))
		})
		return b, runErr
	}

	header := []string{"Op", "E_vec (mJ)", "E_row (mJ)", "dE%", "L1D+St% vec", "L1D+St% row", "dShare (pp)"}
	var rows [][]string
	for _, lab := range []struct {
		op       string
		row, vec func(*engine.Engine) exec.Operator
	}{
		{"hash_join", rowJoin, vecJoin},
		{"sort", rowSort, vecSort},
	} {
		bv, err := profileOp(profV, ev, lab.op+"-vec", lab.vec)
		if err != nil {
			return "", "", fmt.Errorf("join lab %s vector: %v", lab.op, err)
		}
		br, err := profileOp(profR, er, lab.op+"-row", lab.row)
		if err != nil {
			return "", "", fmt.Errorf("join lab %s row: %v", lab.op, err)
		}
		rows = append(rows, []string{
			lab.op,
			fmt.Sprintf("%.3f", bv.EActive*1e3),
			fmt.Sprintf("%.3f", br.EActive*1e3),
			fmt.Sprintf("%+.1f", (bv.EActive/br.EActive-1)*100),
			fmt.Sprintf("%.1f", bv.L1DShare()*100),
			fmt.Sprintf("%.1f", br.L1DShare()*100),
			fmt.Sprintf("%+.1f", (bv.L1DShare()-br.L1DShare())*100),
		})
	}
	text, csv := table("X8 join lab: lineitem JOIN orders and two-key lineitem sort, batch vs row", header, rows)
	return text, csv, nil
}

func isJoinNode(nd *plan.Node) bool {
	t := nd.Title()
	return strings.HasPrefix(t, "HashJoin") || strings.HasPrefix(t, "IndexJoin")
}

// countVectorJoinSort prepares the query on the vector-enabled engine and
// counts the join and sort operators the optimizer switched to vector mode.
func countVectorJoinSort(e *engine.Engine, q tpch.SQLQuery) int {
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
		if nd.Mode == plan.ModeVector && (isJoinNode(nd) || strings.HasPrefix(nd.Title(), "Sort")) {
			n++
		}
		for _, k := range nd.Kids {
			walk(k)
		}
	}
	walk(p.Root)
	return n
}

// meterPartitionLine re-runs Q3 — a mixed plan: vector join/sort chain under
// a row-mode aggregate on this class — with every operator wrapped in a
// counter meter, and checks the per-operator exclusive deltas sum exactly to
// the statement's ledger delta. This is the attribution invariant EXPLAIN
// ENERGY relies on, now covering plans that cross the row/vector boundary.
func meterPartitionLine(e *engine.Engine) (string, error) {
	q, err := tpch.SQLByID(3)
	if err != nil {
		return "", err
	}
	stmt, err := sql.Parse(q.Text)
	if err != nil {
		return "", err
	}
	p, err := plan.Prepare(e, stmt)
	if err != nil {
		return "", err
	}
	op, meters, err := p.BuildMetered()
	if err != nil {
		return "", err
	}
	c0 := e.M.Hier.Counters()
	if _, err := exec.Collect(op); err != nil {
		return "", err
	}
	delta := e.M.Hier.Counters().Sub(c0)
	var sum memsim.Counters
	for _, m := range meters {
		sum = sum.Add(m.Own())
	}
	if sum != delta {
		return "", fmt.Errorf("meter partition violated on Q3: operators sum %+v, statement delta %+v", sum, delta)
	}
	return fmt.Sprintf("meter partition: %d operator meters sum exactly to the Q3 statement delta", len(meters)), nil
}
