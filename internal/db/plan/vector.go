package plan

import (
	"maps"
	"math"

	"energydb/internal/db/exec"
	"energydb/internal/db/storage"
	"energydb/internal/db/vec"
	"energydb/internal/memsim"
)

// Row-versus-vector mode choice. Once the plan shape is fixed, choosePlan
// applies one rule, with no cost comparison in it:
//
//   - A keyed plan runs row: when every scan reads at most one row (a point
//     lookup, an UPDATE or DELETE by unique key), the whole plan stays on the
//     row path. Batching one tuple buys a dispatch per primitive and reserves
//     a batch of vectors it never fills.
//   - Every other plan runs vector wherever it can: a node runs vector when
//     its kind has a vector form and all its children run vector.
//
// Knobs.DisableVectorExec runs everything row. Why a rule and not a priced
// choice per node: DESIGN.md §11.
//
// A vector node is priced once, the way a row one is (see "node costing" in
// physical.go): chargeVec evaluates the vec package's own charge functions —
// one per-batch dispatch per primitive plus per-element payload traffic — at
// the node's estimated cardinalities, and the cache model prices the
// data-dependent accesses, all with the same calibrated ΔE_m table as every
// other estimate.
//
// A vectorized operator exchanges columnar batches, so it can only stack on
// a vectorized child; chains are rooted at scans, sequential or index, and
// carry batches edge to edge through joins and sorts — adapted back to rows
// only where a row-only parent (Limit, a write), or the drain loop at the
// top, takes over. That adaptation is not free: RowSource charges one
// dispatch per batch plus a full-width row copy per row, and the chain top's
// estimate carries it, so a plan's predicted total sums what the run pays.

// vecEligibleKind reports whether the node kind has a vectorized
// implementation at all: the mode rule's first test, and the nodes EXPLAIN
// annotates with a mode.
func vecEligibleKind(k opKind) bool {
	switch k {
	case opSeqScan, opIndexScan, opIndexJoin, opPrune, opProject, opAggregate, opHashJoin, opSort:
		return true
	}
	return false
}

// flow is the planner's model of the batches a vector-mode node hands its
// consumer. batches is how many: a filter narrows the selection vector and
// never compacts, so a chain keeps dispatching once per batch of its root —
// the scan, or the join, sort or aggregate that re-batched its output —
// however few rows stay selected. rows counts the positions behind those
// batches. mat is set for a lazily backed batch (vec.Batch over raw rows)
// and holds the state the consumers below left each column in (a column
// absent is untouched): read by one loop straight from the rows, or stored;
// Prune hands it through with the slots remapped. It is nil when every
// vector is materialized already (kernel outputs).
type flow struct {
	batches, rows float64
	mat           map[int]vec.ColState
}

// live returns the part of f a buffering consumer looks at. vec.HashJoin and
// vec.Sort skip a batch with nothing selected; with sel of f's positions
// still selected, spread evenly, a batch of w positions keeps at least one
// with probability 1-(1-sel/rows)^w.
func (f *flow) live(sel float64) (batches, rows float64) {
	if f.rows <= 0 || f.batches <= 0 {
		return f.batches, f.rows
	}
	p := 1 - math.Pow(1-math.Min(1, sel/f.rows), f.rows/f.batches)
	return f.batches * p, f.rows * p
}

// maxForms bounds how many index scans choosePlan settles by trying every
// combination of vector forms; the scans beyond it run as index scans.
const maxForms = 4

// choosePlan applies the mode rule to the plan under root and prices it
// (price). In a vector plan an index scan that carries its sequential
// candidate (Node.seq) then runs as whichever of its two vector forms makes
// the cheaper plan, every combination of the plan's forms priced whole.
// chooseScan's row comparison does not settle this: batches amortize a
// sequential scan's per-tuple interpretation over the whole heap and an
// index scan's only over the rows it fetches. Nor does the scan's own price:
// a sequential scan hands on a batch per batch width of heap and every
// position behind it, and the consumers above pay for both — a dispatch per
// batch, selected rows or not.
func (pc *planCtx) choosePlan(root *Node) {
	vector := !pc.e.Knobs.DisableVectorExec && !keyed(root)
	var forms [][2]Node
	var at []*Node
	if vector {
		at = formed(root, nil)
		if len(at) > maxForms {
			at = at[:maxForms]
		}
	}
	for _, n := range at {
		idx := *n
		idx.seq = nil
		forms = append(forms, [2]Node{idx, *n.seq})
	}
	set := func(pick int) {
		for i, n := range at {
			*n = forms[i][pick>>i&1]
		}
	}
	// Bit i of pick runs at[i] as its sequential candidate. The all-index
	// plan, chooseScan's row winners, is priced last: it wins a tie and,
	// when it wins, the tree already holds its prices.
	best, bestEJ := 0, math.Inf(1)
	for pick := 1<<len(at) - 1; pick >= 0; pick-- {
		set(pick)
		if ej := pc.price(root, vector); ej <= bestEJ {
			best, bestEJ = pick, ej
		}
	}
	if best != 0 {
		set(best)
		pc.price(root, vector)
	}
}

// formed appends the index scans under n that carry their sequential
// candidate, leaves first.
func formed(n *Node, out []*Node) []*Node {
	for _, k := range n.Kids {
		out = formed(k, out)
	}
	if n.seq != nil {
		out = append(out, n)
	}
	return out
}

// price prices the plan under root as it stands and returns its predicted
// total: in a vector plan every node in the mode the rule gives it, with the
// RowSource transition at each chain top (row nodes keep the estimates
// costRow gave them), then every sequential scan again against the plan's
// footprint.
func (pc *planCtx) price(root *Node, vector bool) float64 {
	pc.c.footprint = 0
	if vector {
		if out := pc.vectorize(root); out != nil {
			root.EstEJ += pc.costBoundary(root, out) // the drain loop at the top consumes rows
		}
	}
	pc.c.footprint = pc.planFootprint(root)
	pc.recostScans(root, false)
	return predictedEJ(root)
}

// keyed reports whether every scan under n reads at most one row.
func keyed(n *Node) bool {
	if (n.Kind == opSeqScan || n.Kind == opIndexScan) && bind(n).scanned > 1 {
		return false
	}
	for _, k := range n.Kids {
		if !keyed(k) {
			return false
		}
	}
	return true
}

// vectorize runs n's subtree vector wherever the rule allows, children
// first, and returns n's output flow if n itself runs vector, nil if it
// stays row. Where n stays row, each vector child tops a chain and its
// estimate carries what vec.RowSource charges to hand its batches over.
func (pc *planCtx) vectorize(n *Node) *flow {
	in := make([]*flow, len(n.Kids))
	kids := true
	for i, k := range n.Kids {
		in[i] = pc.vectorize(k)
		kids = kids && in[i] != nil
	}
	if kids {
		if out := pc.runVector(n, in); out != nil {
			return out
		}
	}
	for i, k := range n.Kids {
		if in[i] != nil {
			k.EstEJ += pc.costBoundary(k, in[i])
		}
	}
	return nil
}

// runVector commits n to vector mode at its price above children whose
// output flows are in, if it has a vector form, and returns its own output
// flow.
func (pc *planCtx) runVector(n *Node, in []*flow) *flow {
	if !vecEligibleKind(n.Kind) {
		return nil
	}
	ej, out := pc.costVec(n, compileVec(n), in)
	n.Mode, n.EstEJ = ModeVector, ej
	return out
}

// progs holds a node's expressions compiled to kernel programs, one per
// vector operator; chargeVec prices the same programs the operators run.
type progs struct {
	filter *vec.Prog // nil without a predicate
	// list is the node operator's expression list: a projection's select
	// list, an aggregate's GROUP BY keys then one argument per aggregate
	// (nil for COUNT(*)), or a sort's keys — a node has one of these.
	list *vec.Prog
	post *vec.Prog // an aggregate's select-list re-projection
	// codes is an aggregate's list as a code-indexed aggregation runs it.
	codes *vec.Prog
}

// compileVec returns n's expressions compiled into the programs its vector
// operators compile, compiling them on the first call.
func compileVec(n *Node) *progs {
	if n.progs != nil {
		return n.progs
	}
	pr := &progs{list: vec.Compile(n.Exprs...), post: vec.Compile(n.PostExprs...)}
	switch n.Kind {
	case opAggregate:
		pr.list = vec.CompileAgg(n.GroupExprs, n.Aggs)
		pr.codes = vec.CompileCodeAgg(n.GroupExprs, n.Aggs)
	case opSort:
		pr.list = vec.CompileSort(n.SortKeys)
	}
	if n.Filter != nil {
		pr.filter = vec.CompileFilter(n.Filter)
	}
	n.progs = pr
	return pr
}

// costVec prices n in vector mode against its children's output flows (in)
// and returns its own. The flows thread the chain root's batch count and
// each column's state up a chain: a parent is charged for a column only as
// it takes one it references (vec.ColState.Take).
func (pc *planCtx) costVec(n *Node, pr *progs, in []*flow) (float64, *flow) {
	k := pc.bindVec(n, in)
	a := pc.c.newEst()
	out := chargeVec(n, pr, k, a, in)
	pc.model(n, k, a, true)
	return pc.c.price(a), out
}

// costBoundary prices the vector→row transition above n: what vec.RowSource
// charges to hand n's output batches to a row consumer.
func (pc *planCtx) costBoundary(n *Node, out *flow) float64 {
	a := pc.c.newEst()
	chargeBoundary(n, exec.Card{Batches: out.batches, In: n.EstRows}, a)
	return pc.c.price(a)
}

// chargeBoundary is what vec.RowSource charges to hand c's rows over: the
// row copies, and a decode per row of each column the rows hold codes of.
func chargeBoundary(n *Node, c exec.Card, s exec.Sink) {
	vec.ChargeBoundary(s, c, vec.RowLines(n.schema.RowWidth()), 0)
	for range coded(n) {
		vec.ChargeDecode(s, exec.Card{In: c.In}, 0)
	}
}

// coded returns, by column, the dictionary of each column whose codes the
// rows of vector node n's batches hold (vec.Batch's codes): a scan's or a
// fetch's coded columns read, handed on by Prune and Sort and into the
// joins' assembled rows. A consumer reading one as values decodes it.
func coded(n *Node) map[int]*storage.Dict {
	switch n.Kind {
	case opSeqScan, opIndexScan:
		return n.Table.File.Data().Dicts(n.fetchReads()...)
	case opIndexJoin:
		return joinCoded(coded(n.Kids[0]), len(n.Kids[0].schema.Columns), n.Table.File.Data().Dicts(n.fetchReads()...))
	case opHashJoin:
		return joinCoded(coded(n.Kids[0]), len(n.Kids[0].schema.Columns), coded(n.Kids[1]))
	case opSort:
		return coded(n.Kids[0])
	case opPrune:
		var out map[int]*storage.Dict
		in := coded(n.Kids[0])
		for i, c := range n.Cols {
			if dc := in[c]; dc != nil {
				if out == nil {
					out = map[int]*storage.Dict{}
				}
				out[i] = dc
			}
		}
		return out
	}
	return nil
}

// joinCoded is the coded columns of rows assembled from np probe columns
// holding probe's codes and inner columns holding inner's.
func joinCoded(probe map[int]*storage.Dict, np int, inner map[int]*storage.Dict) map[int]*storage.Dict {
	out := maps.Clone(probe)
	for c, dc := range inner {
		if out == nil {
			out = map[int]*storage.Dict{}
		}
		out[np+c] = dc
	}
	return out
}

// codeGroups applies the executor's rule (vec.Agg) to aggregate n over rows
// holding the codes of coded: the code combinations of its code-indexed
// table (vec.CodeGroups), zero when it groups by hash.
func codeGroups(n *Node, coded map[int]*storage.Dict) int {
	dicts := make([]*storage.Dict, len(n.GroupExprs))
	for i, e := range n.GroupExprs {
		if c, ok := e.(exec.Col); ok {
			dicts[i] = coded[c.Idx]
		}
	}
	groups, _ := vec.CodeGroups(dicts)
	return groups
}

// batchesFor counts the L1D-derived-width batches a stream of n rows
// occupies.
func (pc *planCtx) batchesFor(n float64) float64 {
	if n <= 0 {
		return 1
	}
	return math.Ceil(n / float64(vec.BatchSizeFor(pc.e.M.Profile.Mem)))
}

// bindVec extends bind with the batch counts of vector mode: a scan
// roots its chain with one batch per batch width of heap rows or index
// entries, and a blocking operator cuts its buffered input into chunks and
// its output into batches the same way — a join the candidates it gathers,
// before its residual narrows them; the batches arriving are bindFlows'.
func (pc *planCtx) bindVec(n *Node, in []*flow) cards {
	k := bind(n)
	k.chunks = pc.batchesFor(k.in)
	k.outBatches = pc.batchesFor(k.out)
	cand := k.in // the rows a filter tests
	switch n.Kind {
	case opSeqScan, opIndexScan:
		k.batches, k.backRows = pc.batchesFor(k.scanned), k.scanned
		cand = k.scanned
	case opIndexJoin:
		k.outBatches = pc.batchesFor(k.matches)
		cand = k.matches
	case opHashJoin:
		k.chunks = pc.batchesFor(k.build)
		k.outBatches = pc.batchesFor(k.matches)
		cand = k.matches
	}
	if n.Filter != nil {
		k.conj = conjunctRows(cand, k.out, n.pass)
	}
	k.bindFlows(n, in)
	return k
}

// conjunctRows spreads a filter's candidates over its conjuncts by their
// pass shares: the rows reaching each conjunct in turn, then the out rows
// leaving the last, which is the node's own estimate. No conjunct is reached
// by fewer rows than leave the filter.
func conjunctRows(candidates, out float64, pass []float64) []float64 {
	rows := make([]float64, len(pass)+1)
	rows[0] = candidates
	for i := 1; i < len(pass); i++ {
		rows[i] = math.Max(out, rows[i-1]*pass[i-1])
	}
	rows[len(pass)] = out
	return rows
}

// bindFlows binds the batches arriving at n to its children's output flows
// (in): all of them, whatever share of their rows is still selected, except
// that the buffering consumers — join and sort — see the live ones only.
func (k *cards) bindFlows(n *Node, in []*flow) {
	switch n.Kind {
	case opSeqScan, opIndexScan:
	case opHashJoin:
		k.batches, k.backRows = in[0].live(k.in)
		k.buildBatches, _ = in[1].live(k.build)
	case opSort, opIndexJoin:
		k.batches, k.backRows = in[0].live(k.in)
	default:
		k.batches, k.backRows = in[0].batches, in[0].rows
	}
}

// chargeProject charges a vectorized projection of c: its driver dispatch
// and the select list's kernel program.
func chargeProject(s exec.Sink, c exec.Card, exprs *vec.Prog, touch vec.Touch) {
	vec.ChargeDispatch(s, c)
	exprs.Charge(s, c, touch)
}

// chargeVec issues the modelled charges of n's vectorized operator at k,
// given the flows its children hand over, and returns the flow n hands its
// own consumer. Only columns a node references are taken here; the rest are
// where (and if) a parent takes them — which is how a consumer's column
// demand, not the producer's supply, ends up priced.
func chargeVec(n *Node, pr *progs, k cards, s exec.Sink, in []*flow) *flow {
	// The batches n's kernels run over: the first child's, at the bound
	// extent (a scan's are its own). Pass-through operators hand the same
	// lazily backed batches on; kernel outputs are fully materialized.
	src := &flow{batches: k.batches, rows: k.backRows, mat: map[int]vec.ColState{}}
	srcCoded := coded(n)
	if len(in) > 0 {
		src.mat = maps.Clone(in[0].mat) // the consumer moves its own copy on
		srcCoded = coded(n.Kids[0])
	}
	touch := vec.Toucher(s, src.mat, srcCoded)
	made := &flow{batches: k.batches, rows: k.backRows}
	arriving := exec.Card{Batches: k.batches, In: k.in, Out: k.out}
	switch n.Kind {
	case opSeqScan:
		// The same heap traffic as the row scan (model), a driver dispatch
		// per batch, then the pushed predicate; no output-row copy — batches
		// go to the parent by reference.
		vec.ChargeScan(s, exec.Card{Batches: k.batches}, 0)
		if pr.filter != nil {
			pr.filter.ChargeFilter(s, k.batches, k.conj, touch)
		}
		return src
	case opIndexScan:
		// The same B-tree and heap traffic as the row scan (model); in place
		// of its per-entry interpretation the fetch primitive per batch of
		// entries, then the residual over the fetched rows.
		fetched := exec.Card{Batches: k.batches, In: k.scanned, Out: k.scanned}
		vec.ChargeFetch(s, fetched, 0)
		if pr.filter != nil {
			pr.filter.ChargeFilter(s, k.batches, k.conj, touch)
		}
		return src
	case opIndexJoin:
		// One key kernel per probe batch, which reads the key column; then
		// per output batch the fetch primitive and the gather that assembles
		// probe and inner rows, and the residual over the joined batch.
		// Lookups and fetches themselves are the model's.
		vec.ChargeDispatch(s, arriving)
		touch(n.OuterKey, arriving, vec.Read)
		vec.ChargeJoinProbe(s, arriving, 0)
		matched := exec.Card{Batches: k.outBatches, In: k.matches, Out: k.matches}
		vec.ChargeFetch(s, matched, 0)
		vec.ChargeDispatch(s, matched)
		vec.ChargeJoinGather(s, matched, vec.RowLines(n.Kids[0].schema.RowWidth()), vec.RowLines(n.Table.Schema().RowWidth()), 0)
		out := &flow{batches: k.outBatches, rows: k.matches, mat: map[int]vec.ColState{}}
		if pr.filter != nil {
			pr.filter.ChargeFilter(s, k.outBatches, k.conj, vec.Toucher(s, out.mat, coded(n)))
		}
		return out
	case opPrune:
		// The slots remapped: a lazily backed batch passes through, each
		// kept column in the state it arrived in.
		vec.ChargePrune(s, arriving, len(n.Cols))
		if src.mat != nil {
			made.mat = map[int]vec.ColState{}
			for i, c := range n.Cols {
				made.mat[i] = src.mat[c]
			}
		}

	case opProject:
		chargeProject(s, arriving, pr.list, touch)
	case opAggregate:
		// The key and argument program and one table update per batch —
		// code-indexed where vec.Agg would run so, its keys decoded per
		// group —; then the finalizing table scan, one materialization
		// primitive per output column per group batch, and the select-list
		// re-projection.
		_, accs := exec.AccOf(n.Aggs)
		if n.codeGroups = codeGroups(n, srcCoded); n.codeGroups > 0 {
			pr.codes.Charge(s, arriving, touch)
			vec.ChargeCodeAggUpdate(s, arriving, len(n.GroupExprs), accs, 0)
		} else {
			pr.list.Charge(s, arriving, touch)
			vec.ChargeAggUpdate(s, arriving, accs, 0)
		}
		groups := exec.Card{Batches: k.outBatches, In: k.out}
		vec.ChargeAggFinalize(s, exec.Card{Batches: 1, In: k.out}, len(n.GroupExprs), len(n.Aggs), 0)
		if n.codeGroups > 0 {
			for range n.GroupExprs {
				vec.ChargeDecode(s, exec.Card{In: k.out}, 0)
			}
		}
		for i := len(n.GroupExprs) + len(n.Aggs); i > 0; i-- {
			vec.ChargeMaterialize(s, groups, 0)
		}
		made = &flow{batches: k.outBatches, rows: k.out}
		chargeProject(s, groups, pr.post, vec.Toucher(s, made.mat, nil))
	case opHashJoin:
		// Build: a collect dispatch per batch, the chunked hashing of the
		// row buffer, an entry store per row. Probe: one key-hash kernel per
		// batch, which reads the key column. Matches: one gather per output
		// batch. The output is backed by the assembled rows, so what its
		// columns cost is priced where a consumer (or the residual here)
		// takes them.
		width := n.Kids[1].schema.RowWidth()
		buildLines, table := vec.RowLines(width), exec.HashTableBytes(k.build)
		vec.ChargeDispatch(s, exec.Card{Batches: k.buildBatches})
		vec.ChargeJoinBuild(s, exec.Card{Batches: k.chunks, In: k.build}, buildLines, 0)
		vec.ChargeJoinInsert(s, exec.Card{In: k.build}, 0, table)
		vec.ChargeDispatch(s, arriving)
		touch(n.OuterKey, arriving, vec.Read)
		vec.ChargeJoinProbe(s, arriving, 0)
		vec.ChargeBucketHead(s, arriving, 0, table)
		exec.ChargeChainHop(s, exec.Card{In: k.matches}, 0, table)
		matched := exec.Card{Batches: k.outBatches, In: k.matches}
		vec.ChargeDispatch(s, matched)
		vec.ChargeGatherRow(s, matched, 0, math.Max(memsim.LineSize, k.build*float64(width)))
		vec.ChargeJoinGather(s, matched, vec.RowLines(n.Kids[0].schema.RowWidth()), buildLines, 0)
		out := &flow{batches: k.outBatches, rows: k.matches, mat: map[int]vec.ColState{}}
		if pr.filter != nil {
			pr.filter.ChargeFilter(s, k.outBatches, k.conj, vec.Toucher(s, out.mat, coded(n)))
		}
		return out
	case opSort:
		// Bulk key extraction (the keys' program plus one packing primitive
		// per key per batch), a collect dispatch per batch, the chunked fill,
		// the placement, and a lazily backed emit with no per-row output copy.
		pr.list.Charge(s, arriving, touch)
		for i := range n.SortKeys {
			vec.ChargeSortPack(s, arriving, 0, pr.list.Const(i), 0)
		}
		vec.ChargeDispatch(s, arriving)                     // collect
		vec.ChargeDispatch(s, exec.Card{Batches: k.chunks}) // fill, chunk by chunk
		exec.ChargeSortStore(s, arriving, 0)                // fill
		exec.ChargeSortStore(s, arriving, 0)                // placement
		vec.ChargeSortEmit(s, exec.Card{Batches: k.outBatches, In: k.in}, 0)
		return &flow{batches: k.outBatches, rows: k.out, mat: map[int]vec.ColState{}}
	}
	return made
}
