// Package plan is the logical-plan optimizer: it rewrites a parsed SELECT —
// or the scan an UPDATE or DELETE reads its rows through —
// into a relational tree, applies rewrite rules (predicate pushdown through
// joins, statistics-driven join reordering, column pruning), and picks
// physical operators — sequential versus index scans, hash versus index
// nested-loop joins — by predicted active energy rather than abstract cost
// units.
//
// The cost model estimates each candidate operator's micro-operation counts
// (the paper's N_m terms: L1D, Reg2L1D, L2, L3, mem, prefetch, stall) — the
// modelled charges by evaluating the executors' own charge functions at
// cardinalities estimated from catalog statistics, the data-dependent
// accesses with a cache model over the machine's geometry — then prices
// them with the same calibrated ΔE_m table the measurement pipeline uses
// (Eq. 1). Plans are
// therefore chosen, displayed (EXPLAIN) and verified (EXPLAIN ENERGY, which
// meters each operator's counter delta during execution) in one energy
// vocabulary.
package plan

import (
	"fmt"

	"energydb/internal/db/engine"
	"energydb/internal/db/exec"
	"energydb/internal/db/sql"
	"energydb/internal/db/value"
	"energydb/internal/db/vec"
)

// Prepared is an optimized statement: the chosen physical plan with every
// decision recorded, bound to the engine view it was planned on. Build
// re-instantiates the same executor tree each time — planning decisions are
// never revisited, so a Prepared plan is stable across executions even as
// buffer-pool residency shifts.
type Prepared struct {
	E *engine.Engine
	// Stmt is the planned SELECT; for an UPDATE or DELETE, the read of the
	// rows to change (SELECT * FROM the table under the statement's WHERE).
	Stmt *sql.SelectStmt
	Root *Node
}

// Prepare plans any plannable statement: a SELECT, or an UPDATE or DELETE,
// whose WHERE is planned like a SELECT's — the same access-path candidates,
// the same mode choice — under one write node at the root.
//
// The order of decisions: buildChain collects each relation's access-path
// candidates and picks joins, buildTop (or buildWrite) adds the operators
// above; choosePlan then applies the mode rule, prices the tree — its scans
// against the plan's footprint — and settles each index scan's vector form on
// the cheaper plan.
func Prepare(e *engine.Engine, stmt sql.Statement) (*Prepared, error) {
	return preparePinned(e, stmt, nil)
}

// preparePinned is Prepare with the tests' access-path pins (see
// planCtx.pin).
func preparePinned(e *engine.Engine, stmt sql.Statement, pin map[string]opKind) (*Prepared, error) {
	var read *sql.SelectStmt
	var sets []sql.SetClause
	write := true
	switch s := stmt.(type) {
	case *sql.SelectStmt:
		read, write = s, false
	case *sql.UpdateStmt:
		read, sets = readOf(s.Table, s.Where, s.Sets), s.Sets
	case *sql.DeleteStmt:
		read = readOf(s.Table, s.Where, nil)
	default:
		return nil, fmt.Errorf("plan: %T has no plan", stmt)
	}
	rels, err := buildLogical(e, read)
	if err != nil {
		return nil, err
	}
	pc := newPlanCtx(e, read, rels, write)
	pc.pin = pin
	root, err := pc.buildChain()
	if err != nil {
		return nil, err
	}
	if write {
		root, err = pc.buildWrite(root, sets)
	} else {
		root, err = pc.buildTop(root)
	}
	if err != nil {
		return nil, err
	}
	pc.choosePlan(root)
	return &Prepared{E: e, Stmt: read, Root: root}, nil
}

// Build instantiates the executor tree for one execution.
func (p *Prepared) Build() (exec.Operator, error) {
	op, err := p.instantiate(p.Root, nil)
	return op, err
}

// metering is what a metered build keeps per node: the meter.
type metering struct {
	set    *exec.MeterSet
	meters map[*Node]*exec.Meter
}

// BuildMetered instantiates the executor tree with every operator wrapped in
// a counter meter, for per-operator energy attribution. The returned map
// locates each node's meter.
func (p *Prepared) BuildMetered() (exec.Operator, map[*Node]*exec.Meter, error) {
	op, mt, err := p.buildMetered()
	return op, mt.meters, err
}

func (p *Prepared) buildMetered() (exec.Operator, *metering, error) {
	mt := &metering{
		set:    exec.NewMeterSet(p.E.Ctx),
		meters: make(map[*Node]*exec.Meter),
	}
	op, err := p.instantiate(p.Root, mt)
	return op, mt, err
}

func (p *Prepared) instantiate(n *Node, mt *metering) (exec.Operator, error) {
	if n.Mode == ModeVector {
		// The whole vector chain rooted here is built batch-at-a-time and
		// adapted back to rows for the (row-mode) parent. The adapter
		// charges the boundary-crossing model; its charges are attributed
		// to the chain-top node's meter — the same node whose estimate the
		// planner folded the transition price into — so per-operator
		// predicted-vs-measured stays aligned and the partition stays
		// exact.
		vop, err := p.instantiateVec(n, mt)
		if err != nil {
			return nil, err
		}
		rs := &vec.RowSource{Ctx: p.E.Ctx, Child: vop}
		if mt != nil {
			rs.Set, rs.M = mt.set, mt.meters[n]
		}
		return rs, nil
	}
	e := p.E
	kids := make([]exec.Operator, len(n.Kids))
	var kidMeters []*exec.Meter
	for i, k := range n.Kids {
		op, err := p.instantiate(k, mt)
		if err != nil {
			return nil, err
		}
		kids[i] = op
		if mt != nil {
			kidMeters = append(kidMeters, mt.meters[k])
		}
	}
	var op exec.Operator
	switch n.Kind {
	case opSeqScan:
		op = &exec.SeqScan{Ctx: e.Ctx, File: n.Table.File, Filter: n.Filter, Reads: n.reads}
	case opIndexScan:
		op = &exec.IndexScan{
			Ctx: e.Ctx, File: n.Table.File, Tree: n.Table.Index(n.IdxCol),
			Lo: n.Lo, Hi: n.Hi, Filter: n.Filter, Reads: n.reads,
		}
	case opIndexJoin:
		op = &exec.IndexJoin{
			Ctx: e.Ctx, Outer: kids[0], Inner: n.Table.File, InnerReads: n.reads,
			Index: n.Table.Index(n.InnerColName), OuterKey: n.OuterKey,
			Residual: n.Filter,
		}
	case opHashJoin:
		op = &exec.HashJoin{
			Ctx: e.Ctx, Build: kids[1], Probe: kids[0],
			BuildKey: n.InnerKey, ProbeKey: n.OuterKey,
			Residual: n.Filter,
		}
	case opPrune:
		op = &exec.Prune{Ctx: e.Ctx, Child: kids[0], Cols: n.Cols}
	case opProject:
		op = &exec.Project{Ctx: e.Ctx, Child: kids[0], Exprs: n.Exprs, Names: n.Names}
	case opAggregate:
		g := &exec.GroupBy{Ctx: e.Ctx, Child: kids[0], GroupBy: n.GroupExprs, Aggs: n.Aggs}
		op = &exec.Project{Ctx: e.Ctx, Child: g, Exprs: n.PostExprs, Names: n.PostNames}
	case opSort:
		op = &exec.Sort{Ctx: e.Ctx, Child: kids[0], Keys: n.SortKeys}
	case opLimit:
		op = &exec.Limit{Child: kids[0], N: n.LimitN}
	case opWrite:
		op = &engine.Write{E: e, T: n.Table, Child: kids[0], Set: n.set, SetNodes: n.setNodes}
	}
	if mt != nil {
		m := &exec.Meter{Label: n.Title(), Kids: kidMeters}
		mt.meters[n] = m
		return &exec.Metered{Set: mt.set, Child: op, M: m}, nil
	}
	return op, nil
}

// instantiateVec builds the vectorized executor for a vector-mode node.
// The mode rule guarantees every child of a vector node is itself in vector
// mode, so the recursion bottoms out at the scans and batches move edge to
// edge — through joins and sorts included — with no row adapter in between.
func (p *Prepared) instantiateVec(n *Node, mt *metering) (vec.Operator, error) {
	e := p.E
	kids := make([]vec.Operator, len(n.Kids))
	var kidMeters []*exec.Meter
	for i, k := range n.Kids {
		kid, err := p.instantiateVec(k, mt)
		if err != nil {
			return nil, err
		}
		kids[i] = kid
		if mt != nil {
			kidMeters = append(kidMeters, mt.meters[k])
		}
	}
	var op vec.Operator
	switch n.Kind {
	case opSeqScan:
		op = &vec.Scan{Ctx: e.Ctx, File: n.Table.File, Pred: n.Filter, Reads: n.reads}
	case opIndexScan:
		op = &vec.IndexScan{
			Ctx: e.Ctx, File: n.Table.File, Tree: n.Table.Index(n.IdxCol),
			Lo: n.Lo, Hi: n.Hi, Filter: n.Filter, Reads: n.fetchReads(),
		}
	case opIndexJoin:
		op = &vec.IndexJoin{
			Ctx: e.Ctx, Probe: kids[0], Inner: n.Table.File, InnerReads: n.fetchReads(),
			Index: n.Table.Index(n.InnerColName), ProbeKey: n.OuterKey,
			Residual: n.Filter,
		}
	case opPrune:
		op = &vec.Prune{Ctx: e.Ctx, Child: kids[0], Cols: n.Cols}
	case opProject:
		op = &vec.Project{Ctx: e.Ctx, Child: kids[0], Exprs: n.Exprs, Names: n.Names}
	case opAggregate:
		a := &vec.Agg{Ctx: e.Ctx, Child: kids[0], GroupBy: n.GroupExprs, Aggs: n.Aggs}
		op = &vec.Project{Ctx: e.Ctx, Child: a, Exprs: n.PostExprs, Names: n.PostNames}
	case opHashJoin:
		op = &vec.HashJoin{
			Ctx: e.Ctx, Build: kids[1], Probe: kids[0],
			BuildKey: n.InnerKey, ProbeKey: n.OuterKey,
			Residual: n.Filter,
		}
	case opSort:
		op = &vec.Sort{Ctx: e.Ctx, Child: kids[0], Keys: n.SortKeys}
	default:
		return nil, fmt.Errorf("plan: no vectorized implementation for %s", n.Title())
	}
	if mt != nil {
		m := &exec.Meter{Label: n.Title(), Kids: kidMeters}
		mt.meters[n] = m
		op = &vec.Metered{Set: mt.set, Child: op, M: m}
	}
	return op, nil
}

// Builder returns the build function of a query, in the shape tpch.Warm
// takes: each call parses and plans the text on the engine it is given — so
// a build after a warm-up run is planned against the warm buffer pool — and
// instantiates the plan.
func Builder(query string) func(*engine.Engine) (exec.Operator, error) {
	return func(e *engine.Engine) (exec.Operator, error) {
		stmt, err := sql.Parse(query)
		if err != nil {
			return nil, err
		}
		p, err := Prepare(e, stmt)
		if err != nil {
			return nil, err
		}
		return p.Build()
	}
}

// Run parses, plans and drains a query, returning the result rows and the
// output column names.
func Run(e *engine.Engine, query string) ([]value.Row, []string, error) {
	op, err := Builder(query)(e)
	if err != nil {
		return nil, nil, err
	}
	rows, err := exec.Collect(op)
	if err != nil {
		return nil, nil, err
	}
	return rows, op.Schema().Names(), nil
}
