package plan

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"energydb/internal/db/btree"
	"energydb/internal/db/catalog"
	"energydb/internal/db/engine"
	"energydb/internal/db/exec"
	"energydb/internal/db/sql"
	"energydb/internal/db/storage"
	"energydb/internal/db/value"
)

// rel is one base relation in the logical plan: a stored table, its
// statistics, and the single-table conjuncts pushed down to it.
type rel struct {
	name  string
	t     *engine.Table
	stats *catalog.TableStats
	join  *sql.JoinClause // nil for the FROM relation
	conds []sql.Node      // single-table conjuncts on this relation
	// resid holds the conjuncts spanning this relation and earlier ones in
	// the join order: the join that brings this relation in tests them.
	resid []sql.Node

	// Resolved after join ordering (join relations only).
	outerCol, innerCol string
	// reads is what the statement reads of the heap (newPlanCtx).
	reads storage.Reads

	// sel is the estimated fraction of rows passing conds.
	sel float64
	// estRows = RowCount × sel.
	estRows float64
}

// defaultSel is the selectivity assumed when a predicate cannot be estimated
// from the sample (for example, it fails to compile until later).
const defaultSel = 1.0 / 3

// residualSel is the assumed selectivity of a cross-relation conjunct.
const residualSel = 0.3

// selectivity estimates the fraction of t's rows passing the conjunction of
// conds. Conjuncts comparing an ordered column against literals are priced
// analytically from the column's bounds (a sample of at most 2048 rows holds
// only some 20 rows of a 1% date range); the rest are evaluated over the
// statistics sample, and the two estimates multiply under the usual
// independence assumption.
func selectivity(stats *catalog.TableStats, schema *catalog.Schema, conds []sql.Node) float64 {
	sel := 1.0
	var rest []sql.Node
	for _, c := range conds {
		if s, ok := analyticSel(stats, schema, c); ok {
			sel *= s
			continue
		}
		rest = append(rest, c)
	}
	pred := andChain(rest)
	if pred == nil {
		return sel
	}
	ex, err := compile(pred, schema)
	if err != nil {
		return sel * defaultSel
	}
	return sel * stats.Selectivity(func(r value.Row) bool { return exec.Truthy(ex.Eval(r)) }, defaultSel)
}

// analyticSel prices one conjunct from column statistics under a uniform
// value distribution: equality through the distinct count, ranges through the
// [Min, Max] span (discretized by the distinct count, so inclusive bounds on
// coarse domains cover their boundary bucket). Returns ok=false for shapes it
// cannot price — those fall back to the sample.
func analyticSel(stats *catalog.TableStats, schema *catalog.Schema, cond sql.Node) (float64, bool) {
	if stats == nil {
		return 0, false
	}
	colStats := func(name string) (min, max, step, distinct float64, ok bool) {
		idx, err := schema.ColIndex(name)
		if err != nil || idx >= len(stats.Cols) {
			return
		}
		cs := stats.Cols[idx]
		if cs.Min.T == value.TypeStr || cs.Max.T == value.TypeStr ||
			cs.Min.IsNull() || cs.Max.IsNull() {
			return
		}
		min, max = cs.Min.AsFloat(), cs.Max.AsFloat()
		distinct = float64(cs.Distinct)
		if distinct < 1 {
			distinct = 1
		}
		if distinct > 1 {
			step = (max - min) / (distinct - 1)
		} else {
			step = max - min
		}
		if max <= min {
			return 0, 0, 0, 0, false
		}
		return min, max, step, distinct, true
	}
	clamp := func(f float64) float64 {
		if f < 0 {
			return 0
		}
		if f > 1 {
			return 1
		}
		return f
	}
	switch v := cond.(type) {
	case sql.BetweenNode:
		c, okC := v.E.(sql.ColNode)
		loV, okL := litValue(v.Lo)
		hiV, okH := litValue(v.Hi)
		if !okC || !okL || !okH || loV.T == value.TypeStr || hiV.T == value.TypeStr {
			return 0, false
		}
		min, max, step, _, ok := colStats(c.Name)
		if !ok {
			return 0, false
		}
		lo := math.Max(loV.AsFloat(), min)
		hi := math.Min(hiV.AsFloat(), max)
		if hi < lo {
			return 0, true
		}
		return clamp((hi - lo + step) / (max - min + step)), true
	case sql.BinNode:
		c, op, lit, ok := colCmp(v)
		if !ok || lit.T == value.TypeStr {
			return 0, false
		}
		min, max, step, distinct, ok := colStats(c)
		if !ok {
			return 0, false
		}
		span := max - min + step
		l := lit.AsFloat()
		switch op {
		case "=":
			return 1 / distinct, true
		case "<>":
			return 1 - 1/distinct, true
		case "<":
			return clamp((l - min) / span), true
		case "<=":
			return clamp((l - min + step) / span), true
		case ">":
			return clamp((max - l) / span), true
		case ">=":
			return clamp((max - l + step) / span), true
		}
	}
	return 0, false
}

// distinctOf returns the distinct count of a column, clamped to [1, rows].
func distinctOf(stats *catalog.TableStats, schema *catalog.Schema, col string) float64 {
	idx, err := schema.ColIndex(col)
	if err != nil || idx >= len(stats.Cols) {
		return math1(float64(stats.RowCount))
	}
	d := float64(stats.Cols[idx].Distinct)
	if d < 1 {
		d = 1
	}
	if r := float64(stats.RowCount); d > r && r >= 1 {
		d = r
	}
	return d
}

func math1(f float64) float64 {
	if f < 1 {
		return 1
	}
	return f
}

// buildLogical rewrites the statement into its relations in a
// statistics-driven join order, each with its pushed predicates and join
// residuals: every WHERE conjunct lands in exactly one relation's conds or
// resid, so a scan or a join tests it. Single-relation conjuncts are pushed
// through the join chain to their base relation — including the FROM
// relation when joins are present (the old planner only pushed the WHERE
// clause on join-free statements).
func buildLogical(e *engine.Engine, stmt *sql.SelectStmt) ([]*rel, error) {
	base, err := e.Table(stmt.From)
	if err != nil {
		return nil, err
	}
	pool := make([]*rel, 0, len(stmt.Joins))
	all := []*rel{{name: stmt.From, t: base, stats: e.Stats(base)}}
	for i := range stmt.Joins {
		j := &stmt.Joins[i]
		t, err := e.Table(j.Table)
		if err != nil {
			return nil, err
		}
		r := &rel{name: j.Table, t: t, stats: e.Stats(t), join: j}
		pool = append(pool, r)
		all = append(all, r)
	}

	// Classify WHERE conjuncts: a conjunct whose columns all live in one
	// relation is pushed to that relation's scan, and one with no column —
	// it holds for every row or for none — to the FROM relation's; conjuncts
	// spanning relations become join residuals.
	var multi []sql.Node
	for _, cond := range splitConjuncts(stmt.Where) {
		refs := map[string]bool{}
		colRefs(cond, refs)
		var owner *rel
		spans := false
		for col := range refs {
			var found *rel
			var err error
			for _, r := range all {
				if _, err = r.t.Schema().ColIndex(col); err == nil {
					found = r
					break
				}
			}
			if found == nil {
				return nil, err // a column no relation has
			}
			spans = spans || owner != nil && owner != found
			owner = found
		}
		switch {
		case spans:
			multi = append(multi, cond)
		case owner == nil:
			all[0].conds = append(all[0].conds, cond)
		default:
			owner.conds = append(owner.conds, cond)
		}
	}

	for _, r := range all {
		r.sel = selectivity(r.stats, r.t.Schema(), r.conds)
		r.estRows = float64(r.stats.RowCount) * r.sel
	}

	// Greedy join ordering: keep the FROM relation leftmost (it fixes the
	// output column layout's head), then repeatedly take the eligible join
	// with the smallest estimated output cardinality. A join is eligible
	// when one ON side resolves in the accumulated outer schema and the
	// other in the joined table.
	rels := []*rel{all[0]}
	avail := map[string]bool{}
	for _, c := range all[0].t.Schema().Columns {
		avail[c.Name] = true
	}
	card := all[0].estRows
	for len(pool) > 0 {
		bestIdx := -1
		var bestCard float64
		var bestOuter, bestInner string
		for i, r := range pool {
			outerCol, innerCol, ok := orient(r.join, avail, r.t.Schema())
			if !ok {
				continue
			}
			matches := r.estRows / distinctOf(r.stats, r.t.Schema(), innerCol)
			out := card * matches
			if bestIdx < 0 || out < bestCard {
				bestIdx, bestCard = i, out
				bestOuter, bestInner = outerCol, innerCol
			}
		}
		if bestIdx < 0 {
			return nil, orientError(pool[0].join, avail, pool[0].t.Schema())
		}
		r := pool[bestIdx]
		pool = append(pool[:bestIdx], pool[bestIdx+1:]...)
		r.outerCol, r.innerCol = bestOuter, bestInner
		rels = append(rels, r)
		card = bestCard
		for _, c := range r.t.Schema().Columns {
			avail[c.Name] = true
		}
	}

	// Residuals attach to the earliest join where every referenced column is
	// available. A spanning conjunct names a column the FROM relation lacks,
	// so that is a join, never the FROM relation's scan.
	for _, cond := range multi {
		refs := map[string]bool{}
		colRefs(cond, refs)
		have := map[string]bool{}
		for _, r := range rels {
			for _, c := range r.t.Schema().Columns {
				have[c.Name] = true
			}
			all := true
			for col := range refs {
				if !have[col] {
					all = false
					break
				}
			}
			if all {
				r.resid = append(r.resid, cond)
				break
			}
		}
	}
	return rels, nil
}

// sampleProbeCap bounds the number of index probes one join estimate spends.
const sampleProbeCap = 48

// sampleJoinEstimate measures a join's fan-out and predicate selectivity
// empirically: it probes the inner index with sample rows of the relation
// owning the outer key (filtered by that relation's own pushed conjuncts, so
// cross-table correlations like "orders before D join lineitems shipped
// after D" survive) and evaluates the join's pushed-inner and residual
// conjuncts on the real matched pairs. Conjuncts referencing other relations
// keep the default residual selectivity. Returns ok=false when there is no
// usable index, sample, or match — callers then fall back to the
// distinct-count estimate.
func (pc *planCtx) sampleJoinEstimate(r *rel) (fan, condSel float64, ok bool) {
	tree := r.t.Index(r.innerCol)
	if tree == nil {
		return 0, 0, false
	}
	var owner *rel
	for _, o := range pc.rels {
		if o == r {
			break
		}
		if _, err := o.t.Schema().ColIndex(r.outerCol); err == nil {
			owner = o
			break
		}
	}
	if owner == nil || owner.stats == nil || len(owner.stats.Sample) == 0 {
		return 0, 0, false
	}
	keyIdx, err := owner.t.Schema().ColIndex(r.outerCol)
	if err != nil {
		return 0, 0, false
	}
	// Partition the join's conjuncts: those resolvable over owner ++ inner
	// are evaluated on sampled pairs; the rest keep the default.
	joint := owner.t.Schema().Concat(r.t.Schema())
	defaultMul := 1.0
	var evalConds []sql.Node
	for _, c := range append(append([]sql.Node{}, r.conds...), r.resid...) {
		if resolves(c, joint) {
			evalConds = append(evalConds, c)
		} else {
			defaultMul *= pc.residualSelOf(c)
		}
	}
	pred, err := compileConds(evalConds, joint)
	if err != nil {
		return 0, 0, false
	}
	ownPred, err := compileConds(owner.conds, owner.t.Schema())
	if err != nil {
		ownPred = nil
	}
	probes, matches, passed := 0, 0, 0
	var out value.Row
	var it btree.Iter
	var ids []int
	for _, s := range owner.stats.Sample {
		if ownPred != nil && !exec.Truthy(ownPred.Eval(s)) {
			continue
		}
		probes++
		ids = tree.Lookup(s[keyIdx], &it, ids)
		for _, id := range ids {
			matches++
			if pred == nil {
				passed++
				continue
			}
			inner, visible, err := r.t.File.FetchRow(id, r.reads)
			if err != nil || !visible {
				continue
			}
			out = append(append(out[:0], s...), inner...)
			if exec.Truthy(pred.Eval(out)) {
				passed++
			}
		}
		if probes >= sampleProbeCap {
			break
		}
	}
	if probes == 0 || matches == 0 {
		return 0, 0, false
	}
	fan = float64(matches) / float64(probes)
	condSel = float64(passed) / float64(matches)
	// A zero pass count does not prove emptiness; keep downstream work visible.
	if min := 0.5 / float64(matches); condSel < min {
		condSel = min
	}
	return fan, condSel * defaultMul, true
}

// residualSelOf prices one cross-relation conjunct: a plain column=column
// equijoin residual follows the System-R rule 1/max(distinct) — the paper's
// Q5-style "local supplier" condition (c_nationkey = s_nationkey) passes one
// nation pair in 25, not the 0.3 default, and every operator above it prices
// its energy on the resulting cardinality. Other shapes keep the default.
func (pc *planCtx) residualSelOf(cond sql.Node) float64 {
	b, ok := cond.(sql.BinNode)
	if !ok || b.Op != "=" {
		return residualSel
	}
	lc, okL := b.L.(sql.ColNode)
	rc, okR := b.R.(sql.ColNode)
	if !okL || !okR {
		return residualSel
	}
	d := 1.0
	for _, name := range []string{lc.Name, rc.Name} {
		for _, r := range pc.rels {
			if _, err := r.t.Schema().ColIndex(name); err == nil {
				if dd := distinctOf(r.stats, r.t.Schema(), name); dd > d {
					d = dd
				}
				break
			}
		}
	}
	return 1 / d
}

// orient resolves which ON side belongs to the accumulated outer relation
// and which to the joined table.
func orient(j *sql.JoinClause, avail map[string]bool, inner *catalog.Schema) (outerCol, innerCol string, ok bool) {
	inInner := func(col string) bool { _, err := inner.ColIndex(col); return err == nil }
	if avail[j.LeftCol] && inInner(j.RightCol) {
		return j.LeftCol, j.RightCol, true
	}
	if avail[j.RightCol] && inInner(j.LeftCol) {
		return j.RightCol, j.LeftCol, true
	}
	return "", "", false
}

// orientError explains an unresolvable join, naming where each ON column was
// (and was not) found and listing both schemas, so a typo on either side is
// diagnosable from the message alone.
func orientError(j *sql.JoinClause, avail map[string]bool, inner *catalog.Schema) error {
	where := func(col string) string {
		inOuter := avail[col]
		_, err := inner.ColIndex(col)
		inInner := err == nil
		switch {
		case inOuter && inInner:
			return "in both sides"
		case inOuter:
			return "only in the outer relation"
		case inInner:
			return fmt.Sprintf("only in table %q", j.Table)
		default:
			return "in neither side"
		}
	}
	outerCols := make([]string, 0, len(avail))
	for c := range avail {
		outerCols = append(outerCols, c)
	}
	sort.Strings(outerCols)
	return fmt.Errorf(
		"plan: cannot resolve JOIN %s ON %s = %s: need one column on each side, but %q is %s and %q is %s; outer relation columns: [%s]; table %q columns: [%s]",
		j.Table, j.LeftCol, j.RightCol,
		j.LeftCol, where(j.LeftCol), j.RightCol, where(j.RightCol),
		strings.Join(outerCols, " "), j.Table, strings.Join(inner.Names(), " "))
}
