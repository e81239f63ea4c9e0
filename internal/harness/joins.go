package harness

import (
	"fmt"
	"strings"

	"energydb/internal/db/engine"
	"energydb/internal/db/exec"
	"energydb/internal/db/vec"
	"energydb/internal/memsim"
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
// The sweep runs on the PostgreSQL profile, whose optimizer chooses between
// the hash join and the index nested loop by predicted energy (SQLite's
// bytecode VM only has the latter). Every TPC-H SQL query runs twice on
// identically calibrated machines — optimizer free to vectorize versus the
// DisableVectorExec knob forcing the row path — and the table reports
// measured E_active and the L1D+Reg2L1D share for both. Queries whose join
// operators are predicted to draw at least 25% of plan energy form the
// join-dominated subset the acceptance targets; their deltas are summarized
// separately.
//
// Stock TPC-H joins are keyed on indexed columns and mostly plan as index
// nested loops, batched like the hash join, so a join lab follows the sweep
// to isolate the hash join and the sort: both are profiled head-to-head
// against their row twins on TPC-H base tables, where the build side is well
// past one batch. The run ends with a meter-partition check: the measured Q3
// plan is rebuilt with per-operator meters and the per-operator counter
// deltas must sum exactly to the statement's ledger delta.
func RunExtensionJoin(o Options) (Result, error) {
	o = o.effective()
	// The quick subset keeps Q9 — the join-dominated representative the
	// acceptance names — alongside a scan-bound control (Q6) and two
	// mid-weight join queries. The join share is read off the forced-row
	// plan, so the subset definition does not depend on the mode choice under
	// measurement.
	joinShare := func(p vecRowPair) float64 {
		_, joinEJ := p.row.nodes(isJoin)
		return joinEJ / p.row.Pred
	}
	vecJoinSorts := func(p vecRowPair) int {
		n, _ := p.vec.nodes(isVectorJoinOrSort)
		return n
	}
	sw, err := vectorVsRow(o, engine.PostgreSQL, sqlSweep(o, 3, 6, 9, 13),
		[]string{"join E%", "vec j/s"}, func(p vecRowPair) []string {
			return []string{fmt.Sprintf("%.1f", joinShare(p)*100), fmt.Sprintf("%d", vecJoinSorts(p))}
		})
	if err != nil {
		return Result{}, err
	}
	var subset []vecRowPair
	var q3 sqlRun
	vectorized := 0
	for _, p := range sw.pairs {
		if vecJoinSorts(p) > 0 {
			vectorized++
		}
		if joinShare(p) >= joinDominatedShare {
			subset = append(subset, p)
		}
		if p.vec.Query.ID == 3 {
			q3 = p.vec
		}
	}

	partition, err := meterPartitionLine(q3)
	if err != nil {
		return Result{}, err
	}
	labText, labCSV, err := joinLab(sw.vec, sw.row)
	if err != nil {
		return Result{}, err
	}

	text, csv := table("Extension X8: vector join/sort vs forced-row (PostgreSQL, warm buffers)", sw.header, sw.rows)
	text += "\nnote: stock TPC-H plans on this profile favor index nested-loop joins\n" +
		"(every join key is indexed), which run batch-at-a-time like the hash joins\n" +
		"over the dimension tables; the join lab below isolates the batch hash join\n" +
		"and sort on base tables.\n"
	text += "\n" + labText
	csv += "\n" + labCSV
	text += fmt.Sprintf("\nqueries with a vectorized join or sort: %d/%d\n", vectorized, len(sw.pairs))
	text += energyLine("total", sw.pairs)
	if len(subset) > 0 {
		ids := make([]string, len(subset))
		for i, p := range subset {
			ids[i] = p.vec.name()
		}
		text += fmt.Sprintf("join-dominated subset (join ops >= %.0f%% of predicted plan energy): %s\n",
			joinDominatedShare*100, strings.Join(ids, ", "))
		text += energyLine("subset", subset) + shareLine("subset avg", subset)
	}
	text += partition + "\n"
	return Result{ID: "X8", Title: "Extension X8 (vectorized join/sort vs forced-row execution)", Text: text, CSV: csv}, nil
}

// joinLab isolates the batch join and sort on TPC-H base tables, where the
// optimizer's index preference cannot hide them: lineitem ⋈ orders on the
// order key (the build side is well past one batch, so the guard that keeps
// tiny dimension builds on the row path does not apply) and the two-key
// lineitem sort. Each operator tree is drained once to warm the buffer pool,
// then rebuilt and profiled — the row executor on the forced-row lab, the
// batch executor on the vector lab — so the E_active and L1D+Reg2L1D deltas
// are the join/sort kernels' own.
func joinLab(vecRig, rowRig rig) (string, string, error) {
	sortKeys := []exec.SortKey{
		{Expr: exec.Col{Idx: 5}, Desc: true}, // l_extendedprice
		{Expr: exec.Col{Idx: 4}},             // l_quantity
	}
	rowJoin := func(e *engine.Engine) (exec.Operator, error) {
		return &exec.HashJoin{
			Ctx:      e.Ctx,
			Build:    &exec.SeqScan{Ctx: e.Ctx, File: e.MustTable("orders").File},
			Probe:    &exec.SeqScan{Ctx: e.Ctx, File: e.MustTable("lineitem").File},
			BuildKey: 0, ProbeKey: 0,
		}, nil
	}
	vecJoin := func(e *engine.Engine) (exec.Operator, error) {
		return &vec.RowSource{Child: &vec.HashJoin{
			Ctx:      e.Ctx,
			Build:    &vec.Scan{Ctx: e.Ctx, File: e.MustTable("orders").File},
			Probe:    &vec.Scan{Ctx: e.Ctx, File: e.MustTable("lineitem").File},
			BuildKey: 0, ProbeKey: 0,
		}}, nil
	}
	rowSort := func(e *engine.Engine) (exec.Operator, error) {
		return &exec.Sort{
			Ctx:   e.Ctx,
			Child: &exec.SeqScan{Ctx: e.Ctx, File: e.MustTable("lineitem").File},
			Keys:  sortKeys,
		}, nil
	}
	vecSort := func(e *engine.Engine) (exec.Operator, error) {
		return &vec.RowSource{Child: &vec.Sort{
			Ctx:   e.Ctx,
			Child: &vec.Scan{Ctx: e.Ctx, File: e.MustTable("lineitem").File},
			Keys:  sortKeys,
		}}, nil
	}
	var rows [][]string
	for _, lab := range []struct {
		op       string
		row, vec func(*engine.Engine) (exec.Operator, error)
	}{
		{"hash_join", rowJoin, vecJoin},
		{"sort", rowSort, vecSort},
	} {
		bv, err := vecRig.profile(lab.op+"-vec", lab.vec)
		if err != nil {
			return "", "", fmt.Errorf("join lab %s vector: %v", lab.op, err)
		}
		br, err := rowRig.profile(lab.op+"-row", lab.row)
		if err != nil {
			return "", "", fmt.Errorf("join lab %s row: %v", lab.op, err)
		}
		rows = append(rows, append([]string{lab.op}, vecRowCells(bv, br)...))
	}
	text, csv := table("X8 join lab: lineitem JOIN orders and two-key lineitem sort, batch vs row",
		append([]string{"Op"}, vecRowHeader...), rows)
	return text, csv, nil
}

// meterPartitionLine re-runs Q3 — a mixed plan: vector join/sort chain under
// a row-mode aggregate on this class — with every operator wrapped in a
// counter meter, and checks the per-operator exclusive deltas sum exactly to
// the statement's ledger delta. This is the attribution invariant EXPLAIN
// ENERGY relies on, now covering plans that cross the row/vector boundary.
func meterPartitionLine(s sqlRun) (string, error) {
	op, meters, err := s.Plan.BuildMetered()
	if err != nil {
		return "", err
	}
	hier := s.Plan.E.M.Hier
	c0 := hier.Counters()
	if _, err := exec.Collect(op); err != nil {
		return "", err
	}
	delta := hier.Counters().Sub(c0)
	var sum memsim.Counters
	for _, m := range meters {
		sum = sum.Add(m.Own())
	}
	if sum != delta {
		return "", fmt.Errorf("meter partition violated on %s: operators sum %+v, statement delta %+v", s.name(), sum, delta)
	}
	return fmt.Sprintf("meter partition: %d operator meters sum exactly to the %s statement delta", len(meters), s.name()), nil
}
