package plan

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"

	"energydb/internal/db/catalog"
	"energydb/internal/db/engine"
	"energydb/internal/db/exec"
	"energydb/internal/db/sql"
	"energydb/internal/db/storage"
	"energydb/internal/db/value"
	"energydb/internal/memsim"
)

// opKind enumerates the physical operators a plan node can choose.
type opKind int

const (
	opSeqScan opKind = iota
	opIndexScan
	opIndexJoin
	opHashJoin
	opPrune
	opProject
	opAggregate
	opSort
	opLimit
	opWrite
)

// Mode selects the executor implementation of a plan node: the classic
// row-at-a-time interpreter or the vectorized batch-at-a-time engine
// (internal/db/vec). choosePlan picks by one rule (vector.go): a keyed plan
// runs row, every other plan vector wherever an operator can. Vectorized
// nodes can only stack on vectorized children, so a plan is a row tree with
// vector chains rooted at scans.
type Mode int

const (
	ModeRow Mode = iota
	ModeVector
)

// String renders the mode as it appears in EXPLAIN output.
func (m Mode) String() string {
	if m == ModeVector {
		return "vector"
	}
	return "row"
}

// Node is one operator of a chosen physical plan. Every decision the
// optimizer makes — scan method, index bounds, join strategy and order,
// pruned columns, row-versus-vector execution mode — is recorded in the
// node, so Build re-instantiates exactly the same executor tree every time
// (re-planning could flip choices as buffer-pool residency shifts; a
// Prepared plan must not).
type Node struct {
	Kind opKind
	Mode Mode
	Kids []*Node

	// Scans and the index-join inner side, and what they read of the heap.
	Table     *engine.Table
	TableName string
	reads     storage.Reads
	// stages splits reads for a batched fetch (late materialization,
	// readsOf): one column list per conjunct of Filter, then the rest; nil
	// for one read.
	stages [][]int
	// Filter is the pushed scan filter or the join residual: every WHERE
	// conjunct is tested by the scan or the join it is attached to.
	Filter    exec.Expr
	FilterStr string
	// IdxCol with Lo/Hi bound an index range scan ([nil, nil] is full).
	IdxCol string
	Lo, Hi *value.Value

	// Joins: OuterKey indexes the probe/outer schema; InnerKey indexes the
	// hash build subtree's schema.
	OuterKey     int
	InnerKey     int
	OuterColName string
	InnerColName string

	// Prune: kept child-column indexes, in output order.
	Cols []int

	// Project.
	Exprs []exec.Expr
	Names []string

	// Aggregate (hash aggregation plus the select-list re-projection).
	GroupExprs []exec.Expr
	GroupNames []string
	Aggs       []exec.AggSpec
	PostExprs  []exec.Expr
	PostNames  []string

	// Sort.
	SortKeys  []exec.SortKey
	SortNames []string

	// Limit.
	LimitN int

	// Write (the root of an UPDATE or DELETE, over the scan of Table): the
	// assigned columns, the function computing a row's replacement (nil
	// deletes it) and the node count of the expressions it evaluates.
	SetNames []string
	set      func(value.Row) (value.Row, error)
	setNodes int

	schema *catalog.Schema
	// EstRows is the estimated output cardinality.
	EstRows float64
	// candidates estimates what the node's filter sees: a join's matches
	// before its residual (what the match loop of either strategy iterates,
	// in either mode), an index scan's entries within [Lo, Hi].
	candidates float64
	// pass estimates, for each conjunct of Filter in vec.Conjuncts order,
	// the share of the rows reaching it that pass it (passShares); nil
	// without a filter.
	pass []float64
	// EstEJ is the predicted exclusive active energy of this operator in
	// joules (Eq. 1 micro-op counts priced with the machine's ΔE table). A
	// vector chain top's includes the RowSource transition to its row
	// consumer.
	EstEJ float64

	// progs holds the node's expressions compiled for its vector operators
	// (compileVec), once however often choosePlan prices the node.
	progs *progs
	// codeGroups is, for an aggregate priced in vector mode, the code
	// combinations of its code-indexed table (vec.CodeGroups), zero when it
	// groups by hash.
	codeGroups int

	// seq is the sequential candidate chooseScan kept beside this index
	// scan; in a vector plan choosePlan replaces the index scan by it where
	// that makes the cheaper plan (nil on every other node).
	seq *Node
}

// Schema returns the node's output schema.
func (n *Node) Schema() *catalog.Schema { return n.schema }

// planCtx carries the state of one planning run.
type planCtx struct {
	e    *engine.Engine
	c    *coster
	stmt *sql.SelectStmt
	rels []*rel // in join order (buildLogical)
	// star disables column pruning (SELECT * needs every column).
	star bool
	// write marks the read of an UPDATE or DELETE: its scans and fetches
	// read tuple headers whatever the visibility map says (Reads.Writing).
	write bool
	// topRefs are the columns referenced above the join chain; need adds
	// the join keys and residuals, which every access path of a relation
	// reads beside the conjuncts it tests itself (readsOf).
	topRefs, need map[string]bool
	// pin, set only by the planner's own tests, restricts the named
	// relations to one access path (opSeqScan or opIndexScan), so a test can
	// price the neighbours of a committed plan, or run a write over each.
	pin map[string]opKind
}

func newPlanCtx(e *engine.Engine, stmt *sql.SelectStmt, rels []*rel, write bool) *planCtx {
	pc := &planCtx{e: e, c: newCoster(e), stmt: stmt, rels: rels, write: write, topRefs: map[string]bool{}}
	for _, it := range stmt.Items {
		if it.Star {
			pc.star = true
			continue
		}
		colRefs(it.Expr, pc.topRefs)
	}
	for _, g := range stmt.GroupBy {
		colRefs(g, pc.topRefs)
	}
	for _, k := range stmt.OrderBy {
		colRefs(k.Expr, pc.topRefs)
	}
	pc.need = maps.Clone(pc.topRefs)
	for _, r := range rels {
		pc.need[r.outerCol], pc.need[r.innerCol] = true, true
		for _, c := range r.resid {
			colRefs(c, pc.need)
		}
	}
	for _, r := range rels {
		r.reads, _ = pc.readsOf(r, r.conds)
	}
	return pc
}

// readsOf is what a scan or fetch of r that tests conds reads of its heap:
// the columns of r that conds or the rest of the statement name — the select
// list, the joins, the residuals — or every column under SELECT *; a write's
// read keeps the tuple headers.
//
// stages splits those columns for a batched fetch on a column heap, which
// reads them in stages (vec.IndexScan's Reads): one list per conjunct of the
// filter compiled from conds (filterConjuncts), the columns of r that
// conjunct names first, and a last list of the rest. It is nil where no
// later stage has a column: a row-major heap is one run, read whole, and a
// write's read is never staged.
func (pc *planCtx) readsOf(r *rel, conds []sql.Node) (reads storage.Reads, stages [][]int) {
	need := maps.Clone(pc.need)
	for _, c := range conds {
		colRefs(c, need)
	}
	cols := []int{}
	for i, c := range r.t.Schema().Columns {
		if need[c.Name] || pc.star {
			cols = append(cols, i)
		}
	}
	d := r.t.File.Data()
	if pc.write {
		return d.Reads(cols).Writing(), nil
	}
	if d.Layout() == storage.Rows {
		return d.Reads(cols), nil
	}
	left := slices.Clone(cols)
	for _, c := range filterConjuncts(conds) {
		named := map[string]bool{}
		colRefs(c, named)
		stage := []int{} // not nil: a first stage of no column reads the headers
		left = slices.DeleteFunc(left, func(i int) bool {
			if named[r.t.Schema().Columns[i].Name] {
				stage = append(stage, i)
				return true
			}
			return false
		})
		stages = append(stages, stage)
	}
	stages = append(stages, left)
	if !slices.ContainsFunc(stages[1:], func(s []int) bool { return len(s) > 0 }) {
		stages = nil
	}
	return d.Reads(cols), stages
}

// fetchReads is what a batched fetch of n reads of its heap, stage by stage
// (vec.IndexScan's Reads): the first stage with the tuple headers, the later
// ones without (storage.TableData.Later); one read where n has no stages.
func (n *Node) fetchReads() []storage.Reads {
	if n.stages == nil {
		return []storage.Reads{n.reads}
	}
	d := n.Table.File.Data()
	rs := []storage.Reads{d.Reads(n.stages[0])}
	for _, cols := range n.stages[1:] {
		rs = append(rs, d.Later(cols))
	}
	return rs
}

// renderConds renders an AND chain for display.
func renderConds(conds []sql.Node) string {
	parts := make([]string, len(conds))
	for i, c := range conds {
		parts[i] = render(c)
	}
	return strings.Join(parts, " AND ")
}

// chooseScan builds the access-path candidates of one relation: a sequential
// scan with the pushed predicate and — for every index with a usable bound —
// an index range scan with the remaining conjuncts as residual, each priced
// in row mode by predicted active energy, not row count. It returns the
// cheapest row candidate. Batches amortize a sequential scan's per-tuple
// interpretation over the whole heap and an index scan's only over the rows
// it fetches, so the row comparison does not settle the vector one: when an
// index scan wins it the sequential candidate rides along (Node.seq), and a
// vector plan runs whichever of the two vector forms makes the cheaper plan
// (choosePlan).
func (pc *planCtx) chooseScan(r *rel) (*Node, error) {
	pred, err := compileConds(r.conds, r.t.Schema())
	if err != nil {
		return nil, err
	}
	seq := &Node{
		Kind: opSeqScan, Table: r.t, TableName: r.name, reads: r.reads,
		Filter: pred, FilterStr: renderConds(r.conds), pass: pc.passShares(r, r.conds),
		schema:  r.t.Schema(),
		EstRows: r.estRows,
	}
	pc.costRow(seq, bind(seq))

	// Sorted, so that equally priced candidates resolve the same way on
	// every run (map iteration order is random).
	cols := make([]string, 0, len(r.t.Indexes))
	for col := range r.t.Indexes {
		cols = append(cols, col)
	}
	slices.Sort(cols)
	var index *Node
	for _, col := range cols {
		lo, hi, captured, rest := extractBounds(col, r.conds)
		if lo == nil && hi == nil {
			continue
		}
		resid, err := compileConds(rest, r.t.Schema())
		if err != nil {
			return nil, err
		}
		rangeSel := selectivity(r.stats, r.t.Schema(), captured)
		reads, stages := pc.readsOf(r, rest)
		cand := &Node{
			Kind: opIndexScan, Table: r.t, TableName: r.name, reads: reads, stages: stages,
			IdxCol: col, Lo: lo, Hi: hi,
			Filter: resid, FilterStr: renderConds(rest), pass: pc.passShares(r, rest),
			schema:  r.t.Schema(),
			EstRows: r.estRows, candidates: float64(r.stats.RowCount) * rangeSel,
		}
		pc.costRow(cand, bind(cand))
		if index == nil || cand.EstEJ < index.EstEJ {
			index = cand
		}
	}
	if pinned, ok := pc.pin[r.name]; ok && index != nil {
		if pinned == opIndexScan {
			return index, nil
		}
		return seq, nil
	}
	if index == nil || seq.EstEJ <= index.EstEJ {
		return seq, nil
	}
	index.seq = seq
	return index, nil
}

func compileConds(conds []sql.Node, schema *catalog.Schema) (exec.Expr, error) {
	pred := andChain(conds)
	if pred == nil {
		return nil, nil
	}
	return compile(pred, schema)
}

// litValue lowers an AST literal to a datum (date-aware), or fails.
func litValue(n sql.Node) (value.Value, bool) {
	switch v := n.(type) {
	case sql.NumNode:
		if v.Value == float64(int64(v.Value)) {
			return value.Int(int64(v.Value)), true
		}
		return value.Float(v.Value), true
	case sql.StrNode:
		return literal(v.Value), true
	}
	return value.Value{}, false
}

// extractBounds derives index range bounds on col from single-table
// conjuncts. Conjuncts fully captured by the inclusive [lo, hi] range are
// dropped from the residual; strict comparisons tighten the bound but stay
// residual (the index range is inclusive).
func extractBounds(col string, conds []sql.Node) (lo, hi *value.Value, captured, rest []sql.Node) {
	setLo := func(v value.Value) {
		if lo == nil || value.Compare(v, *lo) > 0 {
			lo = &v
		}
	}
	setHi := func(v value.Value) {
		if hi == nil || value.Compare(v, *hi) < 0 {
			hi = &v
		}
	}
	for _, cond := range conds {
		full := false // fully captured by the inclusive range?
		switch v := cond.(type) {
		case sql.BetweenNode:
			c, ok := v.E.(sql.ColNode)
			loV, okL := litValue(v.Lo)
			hiV, okH := litValue(v.Hi)
			if ok && c.Name == col && okL && okH {
				setLo(loV)
				setHi(hiV)
				full = true
			}
		case sql.BinNode:
			if c, op, lit, ok := colCmp(v); ok && c == col {
				switch op {
				case "=":
					setLo(lit)
					setHi(lit)
					full = true
				case "<=":
					setHi(lit)
					full = true
				case ">=":
					setLo(lit)
					full = true
				case "<":
					setHi(lit) // overshoots the boundary entry; keep residual
				case ">":
					setLo(lit)
				}
			}
		}
		if full {
			captured = append(captured, cond)
		} else {
			rest = append(rest, cond)
		}
	}
	// Strict bounds still narrow the range estimate.
	for _, cond := range rest {
		if c, op, _, ok := colCmp(cond); ok && c == col && (op == "<" || op == ">") {
			captured = append(captured, cond)
		}
	}
	return lo, hi, captured, rest
}

// mirrored maps each comparison operator to the one that holds with its
// operands swapped.
var mirrored = map[string]string{"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

// colCmp normalizes a comparison between a column and a literal to column OP
// literal: with the literal first the operator is mirrored, so 5 < c reads
// as c > 5. ok is false for any other node.
func colCmp(n sql.Node) (col, op string, lit value.Value, ok bool) {
	b, isBin := n.(sql.BinNode)
	flip, isCmp := mirrored[b.Op]
	if !isBin || !isCmp {
		return "", "", value.Value{}, false
	}
	if c, isCol := b.L.(sql.ColNode); isCol {
		if lit, ok := litValue(b.R); ok {
			return c.Name, b.Op, lit, true
		}
	}
	if c, isCol := b.R.(sql.ColNode); isCol {
		if lit, ok := litValue(b.L); ok {
			return c.Name, flip, lit, true
		}
	}
	return "", "", value.Value{}, false
}

// chooseJoin joins the chain to relation r. SQLite's profile only has the
// index nested loop; PostgreSQL and MySQL compare the predicted energy of a
// hash join (build on the filtered inner scan) against the index nested
// loop and take the cheaper — replacing the old fixed row-count threshold.
func (pc *planCtx) chooseJoin(outer *Node, r *rel) (*Node, error) {
	outerKey, err := outer.schema.ColIndex(r.outerCol)
	if err != nil {
		return nil, err
	}
	// Cardinality: prefer the empirical probe-sample estimate (it sees
	// cross-table correlations and data skew the per-column statistics
	// cannot); fall back to the distinct-count model without an index or
	// sample.
	fan, condSel, sampled := pc.sampleJoinEstimate(r)
	var matches, preMatches float64
	if sampled {
		preMatches = outer.EstRows * fan
		matches = preMatches * condSel
	} else {
		d := distinctOf(r.stats, r.t.Schema(), r.innerCol)
		preMatches = outer.EstRows * float64(r.stats.RowCount) / d
		matches = outer.EstRows * r.estRows / d
		for _, rc := range r.resid {
			matches *= pc.residualSelOf(rc)
		}
	}
	tree := r.t.Index(r.innerCol)

	var indexNode *Node
	if tree != nil {
		// Index nested loop reads full inner rows, so the pushed inner
		// conjuncts are evaluated per match together with the residuals.
		schema := outer.schema.Concat(r.t.Schema())
		all := append(append([]sql.Node{}, r.conds...), r.resid...)
		resid, err := compileConds(all, schema)
		if err != nil {
			return nil, err
		}
		_, stages := pc.readsOf(r, all)
		indexNode = &Node{
			Kind: opIndexJoin, Kids: []*Node{outer},
			Table: r.t, TableName: r.name, reads: r.reads, stages: stages,
			OuterKey: outerKey, OuterColName: r.outerCol, InnerColName: r.innerCol,
			Filter: resid, FilterStr: renderConds(all), pass: pc.passShares(r, all),
			schema:  schema,
			EstRows: matches, candidates: preMatches,
		}
		pc.costRow(indexNode, bind(indexNode))
	}
	if pc.e.Kind == engine.SQLite && indexNode != nil {
		return indexNode, nil
	}

	build, err := pc.chooseScan(r)
	if err != nil {
		return nil, err
	}
	innerKey, err := build.schema.ColIndex(r.innerCol)
	if err != nil {
		return nil, err
	}
	schema := outer.schema.Concat(build.schema)
	resid, err := compileConds(r.resid, schema)
	if err != nil {
		return nil, err
	}
	hashNode := &Node{
		Kind: opHashJoin, Kids: []*Node{outer, build},
		OuterKey: outerKey, InnerKey: innerKey,
		OuterColName: r.outerCol, InnerColName: r.innerCol,
		Filter: resid, FilterStr: renderConds(r.resid), pass: pc.passShares(r, r.resid),
		schema:  schema,
		EstRows: matches,
		// The build side is already filtered by the inner relation's pushed
		// conjuncts, so only their share of the index candidates reaches the
		// hash join's match loop; the residual then thins it to the output.
		candidates: math.Max(matches, preMatches*r.sel),
	}
	pc.costRow(hashNode, bind(hashNode))

	if indexNode != nil && indexNode.EstEJ < hashNode.EstEJ+build.EstEJ {
		return indexNode, nil
	}
	return hashNode, nil
}

// node costing ---------------------------------------------------------------
//
// A node's predicted energy has two parts. The modelled charges — per-tuple
// interpretation overhead, expression evaluation, output copies, hash and
// accumulator arithmetic — are not restated here: chargeRow (and chargeVec in
// vector.go) calls the executor's own charge functions, the ones its
// operators run per tuple or per batch, once at the node's cardinalities.
// The data-dependent accesses the operators issue at real addresses are
// priced by the cache model in cost.go (model). What the planner owns is the
// binding in between: which cardinality goes where.

// cards binds the cardinalities one node's charges are evaluated at.
// Prepare fills it from estimates; the exactness tests fill it from what
// meters observed, and the same evaluation then reproduces the executor's
// cache-independent counters.
type cards struct {
	// scanned counts the heap rows a sequential scan reads, or the index
	// entries an index scan visits.
	scanned float64
	// in and build count the rows arriving from the first (outer, probe)
	// child and from a hash join's build child.
	in, build float64
	// matches counts a join's candidate rows before its residual.
	matches float64
	// out counts the rows leaving the node.
	out float64

	// Vector mode only: batches and buildBatches count the batches arriving
	// from the two children and backRows the positions behind the first
	// one's (a column's first touch materializes them all), chunks the
	// batch-width pieces a blocking operator cuts its buffered input into
	// (join build, sort fill), and outBatches the batches it re-batches its
	// output into.
	batches, buildBatches, backRows float64
	chunks, outBatches              float64
	// conj counts the rows reaching each conjunct of the node's filter, then
	// the rows leaving the last (vec.Prog.ChargeFilter).
	conj []float64
}

// passShares estimates, for each conjunct of the filter compiled from conds
// (filterConjuncts), the share of the rows reaching it that pass it: from
// r's statistics when the conjunct reads r's columns alone, by residualSelOf
// when it reads another relation's too.
func (pc *planCtx) passShares(r *rel, conds []sql.Node) []float64 {
	var pass []float64
	for _, c := range filterConjuncts(conds) {
		if resolves(c, r.t.Schema()) {
			pass = append(pass, selectivity(r.stats, r.t.Schema(), []sql.Node{c}))
		} else {
			pass = append(pass, pc.residualSelOf(c))
		}
	}
	return pass
}

// resolves reports whether every column n references is in schema.
func resolves(n sql.Node, schema *catalog.Schema) bool {
	refs := map[string]bool{}
	colRefs(n, refs)
	for col := range refs {
		if _, err := schema.ColIndex(col); err != nil {
			return false
		}
	}
	return true
}

// bind estimates n's cardinalities from its own and its children's row
// estimates.
func bind(n *Node) cards {
	k := cards{out: n.EstRows, matches: n.candidates}
	switch n.Kind {
	case opSeqScan:
		k.scanned = float64(n.Table.File.RowCount())
	case opIndexScan:
		k.scanned = n.candidates
	}
	if len(n.Kids) > 0 {
		k.in = n.Kids[0].EstRows
	}
	if n.Kind == opHashJoin {
		k.build = n.Kids[1].EstRows
	}
	return k
}

// costRow prices n as a row operator at k.
func (pc *planCtx) costRow(n *Node, k cards) {
	a := pc.c.newEst()
	chargeRow(n, k, a)
	pc.model(n, k, a, false)
	n.EstEJ = pc.c.price(a)
}

// chargeRow issues the modelled charges of n's row operator at k.
func chargeRow(n *Node, k cards, s exec.Sink) {
	in := exec.Card{In: k.in}
	joined := len(n.schema.Columns) * 8
	switch n.Kind {
	case opSeqScan, opIndexScan:
		exec.ChargeTuples(s, exec.Card{In: k.scanned, Out: k.out}, exec.ExprNodes(n.Filter), n.schema.RowWidth())
	case opIndexJoin:
		exec.ChargeTuples(s, exec.Card{In: k.matches, Out: k.out}, exec.ExprNodes(n.Filter), joined)
	case opHashJoin:
		table := exec.HashTableBytes(k.build)
		exec.ChargeHashBuild(s, exec.Card{In: k.build}, 0, table)
		exec.ChargeHashProbe(s, in, 0, table)
		exec.ChargeChainHop(s, exec.Card{In: k.matches}, 0, table)
		exec.ChargeTuples(s, exec.Card{In: k.matches, Out: k.out}, exec.ExprNodes(n.Filter), joined)
	case opPrune:
		exec.ChargePrune(s, in, len(n.Cols), n.schema.RowWidth())
	case opProject:
		exec.ChargeProject(s, in, exec.ExprNodes(n.Exprs...), len(n.Exprs))
	case opAggregate:
		// Hash aggregation, then the select-list re-projection of its groups.
		groups := exec.Card{In: k.out, Out: k.out}
		exec.ChargeGroupInput(s, in, exec.ExprNodes(exec.AggExprs(n.GroupExprs, n.Aggs)...), 0, exec.GroupTableBytes)
		exec.ChargeGroupInsert(s, groups, 0)
		exec.ChargeGroupUpdate(s, in, len(n.Aggs), 0, exec.GroupTableBytes)
		exec.ChargeGroupOutput(s, groups, len(n.Aggs), len(n.GroupExprs)+len(n.Aggs))
		exec.ChargeProject(s, groups, exec.ExprNodes(n.PostExprs...), len(n.PostExprs))
	case opSort:
		exec.ChargeSortKeys(s, in)
		exec.ChargeSortStore(s, in, 0) // fill
		exec.ChargeSortStore(s, in, 0) // placement
		exec.ChargeSortEmit(s, in, 0, n.schema.RowWidth())
	case opWrite:
		exec.ChargeWrite(s, in, n.setNodes)
	}
}

// model prices the data-dependent accesses of n at k that no charge
// function issues, in either execution mode: both executors issue them at
// the same addresses. Two kinds are left here. Heap, scan, B-tree and write
// traffic: storage and btree sit below exec, so their loads and stores are
// issued inside the storage calls, not by a charge. And the sort's ordering
// pass: sortCompares prices its comparator loads with a merge-level
// locality model, not a random blend. The hash table's, group table's and
// gather's loads are charges (exec.Sink.Random), priced where
// chargeRow/chargeVec evaluate them. The batch heap fetch and a batch
// join's descents (SeekBatch, level by level) are priced on the independent
// schedule they are issued on, the row forms' on the dependent one
// (DESIGN.md §14).
func (pc *planCtx) model(n *Node, k cards, a *est, vector bool) {
	c := pc.c
	switch n.Kind {
	case opSeqScan:
		c.scanHeap(a, n)
		if !vector {
			a.l1d += k.scanned * span(n).Decodes // the row scan's decodes
		}
	case opIndexScan:
		tree := n.Table.Index(n.IdxCol)
		c.btreeDescend(a, 1, tree.Height(), tree.Len(), true)
		c.indexEntries(a, k.scanned, tree.Len())
		c.heapFetch(a, k.scanned, n, k.conj, vector)
	case opIndexJoin:
		tree := n.Table.Index(n.InnerColName)
		c.btreeDescend(a, k.in, tree.Height(), tree.Len(), !vector)
		c.indexEntries(a, k.matches, tree.Len())
		c.heapFetch(a, k.matches, n, k.conj, vector)
	case opSort:
		c.sortCompares(a, k.in, exec.SortEntryBytes, float64(len(n.SortKeys)))
	case opWrite:
		c.writeRows(a, k.in, n, n.set == nil)
	}
}

// planFootprint sums the plan's working set: scanned heaps, the touched
// slices of index-fetched heaps, hash-join row buffers and tables, sort
// buffers and aggregation state. It is the set the caches must juggle over
// the whole execution — once it exceeds L3, each scan's stream is evicted
// between touches no matter how small the table is, and the scan estimates
// must price DRAM refills (see coster.footprint).
func (pc *planCtx) planFootprint(n *Node) float64 {
	total := 0.0
	switch n.Kind {
	case opSeqScan:
		total += heapBytes(n)
	case opIndexScan:
		// A keyed range touches at most the heap, at least the match set.
		total += math.Min(heapBytes(n), n.EstRows*span(n).Bytes)
	case opIndexJoin:
		// Probe keys arrive in outer order, so the inner fetches scatter
		// across the inner heap: each probe drags in the B-tree leaf path
		// plus the heap page around the row, a page-granular touch that
		// saturates at the whole heap once probes outnumber pages. The
		// match-set slice alone badly under-counts the pressure — measured,
		// Q12's 8.0MB lineitem stream refills 17% of its lines from DRAM
		// once its index join into the 1.7MB orders heap runs interleaved,
		// versus 1.6% for the same stream feeding only an aggregate.
		probes := n.Kids[0].EstRows
		total += math.Min(heapBytes(n), probes*float64(pc.e.Knobs.PageBytes))
	case opHashJoin:
		build := n.Kids[1]
		total += build.EstRows*float64(build.schema.RowWidth()) + exec.HashTableBytes(build.EstRows)
	case opAggregate:
		total += exec.GroupTableBytes
		if n.Mode == ModeVector && n.codeGroups > 0 {
			total += exec.CodeTableBytes(n.codeGroups) - exec.GroupTableBytes
		}
	case opSort:
		total += n.Kids[0].EstRows * (float64(n.Kids[0].schema.RowWidth()) + exec.SortEntryBytes)
	}
	for _, k := range n.Kids {
		total += pc.planFootprint(k)
	}
	return total
}

// recostScans re-prices every sequential scan, in its mode, and every vector
// index scan after the coster learns the plan-wide footprint; vecConsumer is
// set when n's parent runs vector. Access-path and join choices were made
// with the optimistic (footprint-free) estimates — those compare candidates
// under equal cache pressure, which is what a choice needs — but the
// *absolute* numbers EXPLAIN reports must reflect the eviction the full plan
// causes. A vector index scan is re-priced too because choosePlan settles it
// against its sequential candidate on these prices: re-pricing only the
// sequential side would weigh the two under unequal pressure.
func (pc *planCtx) recostScans(n *Node, vecConsumer bool) {
	for _, k := range n.Kids {
		pc.recostScans(k, n.Mode == ModeVector)
	}
	if n.Kind != opSeqScan && (n.Kind != opIndexScan || n.Mode != ModeVector) {
		return
	}
	if n.Mode == ModeVector {
		ej, out := pc.costVec(n, compileVec(n), nil)
		if !vecConsumer {
			ej += pc.costBoundary(n, out)
		}
		n.EstEJ = ej
		return
	}
	pc.costRow(n, bind(n))
}

// chain assembly ------------------------------------------------------------

// outerKeep lists the outer-schema columns still needed at join position i:
// everything referenced above the chain, by residuals at or after i, and by
// the ON keys of joins at or after i.
func (pc *planCtx) outerKeep(schema *catalog.Schema, i int) ([]int, bool) {
	if pc.star {
		return nil, false
	}
	need := map[string]bool{}
	for c := range pc.topRefs {
		need[c] = true
	}
	for _, r := range pc.rels[i:] {
		need[r.outerCol] = true
		need[r.innerCol] = true
		for _, c := range r.resid {
			colRefs(c, need)
		}
	}
	var keep []int
	for idx, c := range schema.Columns {
		if need[c.Name] {
			keep = append(keep, idx)
		}
	}
	if len(keep) == 0 || len(keep) == len(schema.Columns) {
		return nil, false
	}
	return keep, true
}

// maybePrune inserts a column-pruning node over child when the predicted
// energy of the row-copy lines it saves downstream — rows copies, each
// linesSaved cache lines narrower — exceeds the prune's own per-row cost.
func (pc *planCtx) maybePrune(child *Node, keep []int, rows, linesSaved float64) *Node {
	benefit := pc.c.newEst()
	benefit.Stores(0, rows*linesSaved)
	prune := &Node{
		Kind: opPrune, Kids: []*Node{child},
		Cols:    keep,
		schema:  child.schema.Project(keep),
		EstRows: child.EstRows,
	}
	pc.costRow(prune, bind(prune))
	if prune.EstEJ < pc.c.price(benefit) {
		return prune
	}
	return child
}

// lines is the number of cache lines a row of the given byte width spans.
func lines(width int) float64 { return math.Ceil(float64(width) / memsim.LineSize) }

// buildChain assembles the scan-join part of the plan; its scans and joins
// test every WHERE conjunct.
func (pc *planCtx) buildChain() (*Node, error) {
	node, err := pc.chooseScan(pc.rels[0])
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(pc.rels); i++ {
		r := pc.rels[i]
		if keep, ok := pc.outerKeep(node.schema, i); ok {
			// The join copies outer plus inner columns per match, 8 bytes each.
			inner := len(r.t.Schema().Columns)
			saved := lines((len(node.schema.Columns)+inner)*8) - lines((len(keep)+inner)*8)
			node = pc.maybePrune(node, keep, node.EstRows, saved)
		}
		node, err = pc.chooseJoin(node, r)
		if err != nil {
			return nil, err
		}
	}
	return node, nil
}

// groupEstimate bounds the group count by the product of the key columns'
// distinct counts (non-column keys contribute √input).
func (pc *planCtx) groupEstimate(in float64) float64 {
	if len(pc.stmt.GroupBy) == 0 {
		return 1
	}
	prod := 1.0
	for _, g := range pc.stmt.GroupBy {
		d := math.Sqrt(math.Max(1, in))
		if c, ok := g.(sql.ColNode); ok {
			for _, r := range pc.rels {
				if _, err := r.t.Schema().ColIndex(c.Name); err == nil {
					d = distinctOf(r.stats, r.t.Schema(), c.Name)
					// The key values reaching the aggregate come from the
					// rows surviving that relation's pushed filter: a
					// 26-part filter yields at most 26 part keys, however
					// many matches each fans out to downstream.
					d = math.Min(d, math.Max(1, r.estRows))
					break
				}
			}
		}
		prod *= d
	}
	return math.Min(math.Max(1, in), prod)
}

// buildTop adds sort, projection/aggregation and limit above the chain,
// mirroring SQL's resolution rules (pre-projection ORDER BY with alias
// substitution for plain selects; post-projection for aggregates).
func (pc *planCtx) buildTop(node *Node) (*Node, error) {
	stmt := pc.stmt
	agg := aggregated(stmt)

	if !agg && len(stmt.OrderBy) > 0 {
		// Prune to the sorted-and-projected columns first when it pays:
		// Sort copies whole rows, so dropping wide unused columns saves
		// a line per row per copy.
		if keep, ok := pc.outerKeep(node.schema, len(pc.rels)); ok {
			saved := lines(node.schema.RowWidth()) - lines(node.schema.Project(keep).RowWidth())
			node = pc.maybePrune(node, keep, node.EstRows, saved)
		}
		aliasExprs := map[string]sql.Node{}
		for _, it := range stmt.Items {
			if it.As != "" && !it.Star {
				aliasExprs[it.As] = it.Expr
			}
		}
		var err error
		node, err = pc.sortBy(node, func(key sql.Node, in *catalog.Schema) (exec.Expr, error) {
			if c, ok := key.(sql.ColNode); ok {
				if repl, ok := aliasExprs[c.Name]; ok {
					key = repl
				}
			}
			return compile(key, in)
		})
		if err != nil {
			return nil, err
		}
	}

	node, outNames, err := pc.projection(node)
	if err != nil {
		return nil, err
	}

	if agg && len(stmt.OrderBy) > 0 {
		node, err = pc.sortBy(node, func(key sql.Node, in *catalog.Schema) (exec.Expr, error) {
			return compileWithAliases(key, in, outNames)
		})
		if err != nil {
			return nil, err
		}
	}
	if stmt.Limit > 0 {
		node = &Node{
			Kind: opLimit, Kids: []*Node{node},
			LimitN:  stmt.Limit,
			schema:  node.schema,
			EstRows: math.Min(float64(stmt.Limit), node.EstRows),
		}
	}
	return node, nil
}

// sortBy puts a Sort on the statement's ORDER BY above node, each key
// compiled against node's schema by compileKey, and costs it.
func (pc *planCtx) sortBy(node *Node, compileKey func(sql.Node, *catalog.Schema) (exec.Expr, error)) (*Node, error) {
	keys := make([]exec.SortKey, 0, len(pc.stmt.OrderBy))
	names := make([]string, 0, len(pc.stmt.OrderBy))
	for _, k := range pc.stmt.OrderBy {
		expr, err := compileKey(k.Expr, node.schema)
		if err != nil {
			return nil, err
		}
		keys = append(keys, exec.SortKey{Expr: expr, Desc: k.Desc})
		names = append(names, sortName(k))
	}
	s := &Node{
		Kind: opSort, Kids: []*Node{node},
		SortKeys: keys, SortNames: names,
		schema:  node.schema,
		EstRows: node.EstRows,
	}
	pc.costRow(s, bind(s))
	return s, nil
}

func sortName(k sql.OrderKey) string {
	s := render(k.Expr)
	if k.Desc {
		s += " DESC"
	}
	return s
}

// projection lowers the select list: pass-through for `SELECT *`, a Project
// node for plain expressions, or an Aggregate node (hash aggregation plus
// the select-order re-projection) when aggregates or GROUP BY appear.
func (pc *planCtx) projection(node *Node) (*Node, map[string]int, error) {
	stmt := pc.stmt
	names := map[string]int{}
	if !aggregated(stmt) {
		if len(stmt.Items) == 1 && stmt.Items[0].Star {
			return node, names, nil
		}
		exprs := make([]exec.Expr, 0, len(stmt.Items))
		outNames := make([]string, 0, len(stmt.Items))
		for i, it := range stmt.Items {
			if it.Star {
				return nil, nil, fmt.Errorf("plan: * cannot be mixed with expressions")
			}
			ex, err := compile(it.Expr, node.schema)
			if err != nil {
				return nil, nil, err
			}
			exprs = append(exprs, ex)
			name := it.As
			if name == "" {
				name = render(it.Expr)
			}
			outNames = append(outNames, name)
			names[name] = i
		}
		p := &Node{
			Kind: opProject, Kids: []*Node{node},
			Exprs: exprs, Names: outNames,
			schema:  exec.ProjectSchema(len(outNames), outNames),
			EstRows: node.EstRows,
		}
		pc.costRow(p, bind(p))
		return p, names, nil
	}

	// Aggregation: group keys are the GROUP BY expressions; every
	// non-aggregate select item must match one of them.
	groupExprs := make([]exec.Expr, 0, len(stmt.GroupBy))
	groupKeys := make([]string, 0, len(stmt.GroupBy))
	for _, g := range stmt.GroupBy {
		ex, err := compile(g, node.schema)
		if err != nil {
			return nil, nil, err
		}
		groupExprs = append(groupExprs, ex)
		groupKeys = append(groupKeys, render(g))
	}
	var aggs []exec.AggSpec
	type outCol struct {
		name   string
		grpIdx int
		aggIdx int
	}
	var outs []outCol
	for _, it := range stmt.Items {
		if it.Star {
			return nil, nil, fmt.Errorf("plan: * cannot be used with GROUP BY")
		}
		name := it.As
		if name == "" {
			name = render(it.Expr)
		}
		if agg, ok := it.Expr.(sql.AggNode); ok {
			var arg exec.Expr
			if agg.Arg != nil {
				var err error
				arg, err = compile(agg.Arg, node.schema)
				if err != nil {
					return nil, nil, err
				}
			}
			kind, err := aggKind(agg.Func)
			if err != nil {
				return nil, nil, err
			}
			aggs = append(aggs, exec.AggSpec{Kind: kind, Arg: arg, Name: name})
			outs = append(outs, outCol{name: name, grpIdx: -1, aggIdx: len(aggs) - 1})
			continue
		}
		key := render(it.Expr)
		idx := -1
		for i, gk := range groupKeys {
			if gk == key {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, nil, fmt.Errorf("plan: %s must appear in GROUP BY or inside an aggregate", key)
		}
		outs = append(outs, outCol{name: name, grpIdx: idx, aggIdx: -1})
	}
	postExprs := make([]exec.Expr, 0, len(outs))
	postNames := make([]string, 0, len(outs))
	for i, oc := range outs {
		var idx int
		if oc.grpIdx >= 0 {
			idx = oc.grpIdx
		} else {
			idx = len(groupExprs) + oc.aggIdx
		}
		postExprs = append(postExprs, exec.Col{Idx: idx, Name: oc.name})
		postNames = append(postNames, oc.name)
		names[oc.name] = i
	}
	a := &Node{
		Kind: opAggregate, Kids: []*Node{node},
		GroupExprs: groupExprs, GroupNames: groupKeys,
		Aggs: aggs, PostExprs: postExprs, PostNames: postNames,
		schema:  exec.ProjectSchema(len(postNames), postNames),
		EstRows: pc.groupEstimate(node.EstRows),
	}
	pc.costRow(a, bind(a))
	return a, names, nil
}
