package plan

import (
	"math"

	"energydb/internal/db/exec"
	"energydb/internal/db/vec"
)

// Row-versus-vector mode choice, and with it the access path. After the plan
// shape is fixed, chooseModes prices every mode assignment chain-wise: a
// two-state dynamic program over the tree computes, per node, the cheapest
// subtree total with the node in row mode (each child free to pick its own
// cheaper state, every vector→row transition explicitly charged) and in
// vector mode (every child forced to stay in the chain), then commits the
// cheaper assignment top-down. A relation with a usable index enters the
// program as one node with two access paths (chooseScan): its row state is
// the index scan, its vector state the cheaper of the batched index scan and
// the vectorized sequential scan, so an index scan that beats the row-mode
// sequential scan does not forfeit a chain either of them would have won as
// a whole. The
// vector hypothesis is priced the way the row one is (see "node costing" in
// physical.go): chargeVec evaluates the vec package's own charge functions
// — one per-batch dispatch per primitive plus per-element payload traffic —
// at the node's estimated cardinalities, and the cache model prices the
// data-dependent accesses, all with the same calibrated ΔE_m table as every
// other estimate. The crossover falls out of the model: tiny inputs stay on
// the row path (the batch dispatch does not amortize — a single-row index
// lookup pays two dispatches, its fetch and the boundary, against one
// tuple), large scans go vector.
//
// A vectorized operator exchanges columnar batches, so it can only stack on
// a vectorized child; chains are rooted at scans, sequential or index, and
// carry batches edge to edge through joins (hash joins with both inputs
// vectorized, index joins fetching behind their probe batches) and sorts —
// adapted back to rows only
// where a row-only parent, or the drain loop at the top, takes over. That
// adaptation is not free: RowSource charges one dispatch per batch plus a
// full-width row copy per row (the loss of lazy materialization — a row
// consumer takes whole rows), so a cheap row-mode operator sandwiched into
// an otherwise-vector chain is priced against the whole chain it breaks,
// including the extra boundary it forces, instead of winning a node-local
// comparison and silently paying un-priced crossings (the X8 stranded-Prune
// misprediction).

// vecEligibleKind reports whether the node kind has a vectorized
// implementation at all (used by EXPLAIN to decide which nodes carry a mode
// annotation).
func vecEligibleKind(k opKind) bool {
	switch k {
	case opSeqScan, opIndexScan, opIndexJoin, opFilter, opPrune, opProject, opAggregate, opHashJoin, opSort:
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
// and records the columns the subtree below has materialized — a first
// touch covers every position, selected or not; it is nil when every vector
// is materialized already (kernel outputs).
type flow struct {
	batches, rows float64
	mat           map[int]bool
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

// copyMat copies a materialization set (nil stays nil), so a hypothesis can
// mark columns without touching the state its siblings are priced against.
func copyMat(mat map[int]bool) map[int]bool {
	if mat == nil {
		return nil
	}
	c := make(map[int]bool, len(mat))
	for col := range mat {
		c[col] = true
	}
	return c
}

// modePrice is the two-state chain price of a subtree: rowTotal is the
// cheapest subtree total with this node in row mode (each child picks the
// cheaper of staying row or running its vector chain plus the boundary
// crossing back to rows), vecTotal the total with this node in vector mode
// (every child forced to stay in the chain; +Inf when the node cannot run
// vectorized). vecEJ/out are the node's own vector estimate and output
// flow under the vector hypothesis, boundary the RowSource adaptation price
// of handing this node's vectorized output to a row consumer. seq is set
// when the vector hypothesis of an index scan is its sequential candidate's.
type modePrice struct {
	rowTotal float64
	vecTotal float64
	vecEJ    float64
	boundary float64
	out      *flow
	seq      bool
}

// chooseModes assigns execution modes chain-wise: priceModes runs the
// two-state DP bottom-up, then commitModes walks top-down comparing, at
// each point where a row consumer takes over, the transition-priced vector
// chain against the all-row subtree. Winning vector estimates replace
// EstEJ (plus the boundary price at the chain top) so EXPLAIN's predictions
// describe — and sum to — the plan that will actually run.
func (pc *planCtx) chooseModes(root *Node) {
	if pc.e.Knobs.DisableVectorExec {
		return
	}
	pc.prices = map[*Node]modePrice{}
	pc.priceModes(root)
	pc.commitModes(root, false) // the drain loop at the top consumes rows
}

// priceModes computes the two-state price of n's subtree. The vector
// hypothesis is priced against the children's output flows — the mechanism
// that threads the chain root's batch count up a chain and the consumer's
// column demand down it: a parent is charged Batch.Col materialization only
// for the columns it references, against the child's output state (the
// parent's demand, not the child's supply).
func (pc *planCtx) priceModes(n *Node) modePrice {
	rowKids, vecKids := 0.0, 0.0
	chainKids := true
	for _, k := range n.Kids {
		p := pc.priceModes(k)
		rowKids += math.Min(p.rowTotal, p.vecTotal+p.boundary)
		if math.IsInf(p.vecTotal, 1) {
			chainKids = false
		} else {
			vecKids += p.vecTotal
		}
	}
	mp := modePrice{rowTotal: n.EstEJ + rowKids, vecTotal: math.Inf(1)}
	if chainKids {
		pc.priceVec(n, vecKids, &mp)
		if n.seq != nil {
			// Two vector candidates: keep the one cheaper as a chain top.
			alt := modePrice{vecTotal: math.Inf(1), seq: true}
			pc.priceVec(n.seq, vecKids, &alt)
			if alt.vecTotal+alt.boundary < mp.vecTotal+mp.boundary {
				alt.rowTotal = mp.rowTotal
				mp = alt
			}
		}
	}
	if mode, ok := pc.pinMode[n.TableName]; ok && (n.Kind == opSeqScan || n.Kind == opIndexScan || n.Kind == opIndexJoin) {
		switch {
		case mode == ModeRow:
			mp.vecTotal = math.Inf(1)
		case !math.IsInf(mp.vecTotal, 1):
			mp.rowTotal = math.Inf(1)
		}
	}
	pc.prices[n] = mp
	return mp
}

// priceVec fills mp's vector state with v's price above children whose
// chains total vecKids, if v can run vectorized at all — the kind has a
// kernel implementation and every expression compiles to kernels.
func (pc *planCtx) priceVec(v *Node, vecKids float64, mp *modePrice) {
	if !vecEligibleKind(v.Kind) {
		return
	}
	if pr, ok := compileVec(v); ok {
		mp.vecEJ, mp.out = pc.costVec(v, pr)
		mp.vecTotal = mp.vecEJ + vecKids
		mp.boundary = pc.costBoundary(v, mp.out)
	}
}

// commitModes commits the cheaper assignment top-down. Inside a committed
// vector chain every node stays vector (the parent's price assumed it); at
// each row-consumer point the transition-priced chain total competes with
// the all-row subtree, and a winning chain top absorbs the boundary price
// into its estimate (surfaced by EXPLAIN as xfer≈). An index scan whose
// chain prefers the vectorized sequential scan becomes its sequential
// candidate.
func (pc *planCtx) commitModes(n *Node, vecConsumer bool) {
	mp := pc.prices[n]
	if vecConsumer || mp.vecTotal+mp.boundary < mp.rowTotal {
		if mp.seq {
			*n = *n.seq
		}
		n.Mode = ModeVector
		n.EstEJ = mp.vecEJ
		if !vecConsumer {
			n.BoundaryEJ = mp.boundary
			n.EstEJ += mp.boundary
		}
		for _, k := range n.Kids {
			pc.commitModes(k, true)
		}
		return
	}
	for _, k := range n.Kids {
		pc.commitModes(k, false)
	}
}

// progs holds a node's expressions compiled to kernel programs. Prepare
// compiles them once: whether all of them are exact decides if the node can
// run vectorized, and chargeVec prices the same programs.
type progs struct {
	filter                    *vec.Prog   // nil without a predicate
	exprs, groups, post, keys []*vec.Prog // select list, GROUP BY, re-projection, ORDER BY
	args                      []*vec.Prog // one per aggregate, nil for COUNT(*)
}

// compileVec compiles n's expressions and reports whether every one of them
// runs as kernels only.
func compileVec(n *Node) (*progs, bool) {
	exact := true
	one := func(e exec.Expr) *vec.Prog {
		if e == nil {
			return nil
		}
		p := vec.Compile(e)
		exact = exact && p.KernelsOnly()
		return p
	}
	all := func(es []exec.Expr) []*vec.Prog {
		ps := make([]*vec.Prog, len(es))
		for i, e := range es {
			ps[i] = one(e)
		}
		return ps
	}
	pr := &progs{filter: one(n.Filter), exprs: all(n.Exprs), groups: all(n.GroupExprs), post: all(n.PostExprs)}
	for _, a := range n.Aggs {
		pr.args = append(pr.args, one(a.Arg))
	}
	for _, k := range n.SortKeys {
		pr.keys = append(pr.keys, one(k.Expr))
	}
	return pr, exact
}

// costVec prices n under the vector hypothesis and returns its output flow;
// its children must have been priced (priceModes does).
func (pc *planCtx) costVec(n *Node, pr *progs) (float64, *flow) {
	var in []*flow
	for _, kid := range n.Kids {
		in = append(in, pc.prices[kid].out)
	}
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

func chargeBoundary(n *Node, c exec.Card, s exec.Sink) {
	vec.ChargeBoundary(s, c, vec.RowLines(n.schema.RowWidth()), 0)
}

// batchesFor counts the L1D-derived-width batches a stream of n rows
// occupies.
func (pc *planCtx) batchesFor(n float64) float64 {
	if n <= 0 {
		return 1
	}
	return math.Ceil(n / float64(vec.BatchSizeFor(pc.e.M.Profile.Mem)))
}

// bindVec extends bind with the batch counts of the vector hypothesis: a scan
// roots its chain with one batch per batch width of heap rows or index
// entries, and a blocking operator cuts its buffered input into chunks and
// its output into batches the same way — a join the candidates it gathers,
// before its residual narrows them; the batches arriving are bindFlows'.
func (pc *planCtx) bindVec(n *Node, in []*flow) cards {
	k := bind(n)
	k.chunks = pc.batchesFor(k.in)
	k.outBatches = pc.batchesFor(k.out)
	switch n.Kind {
	case opSeqScan, opIndexScan:
		k.batches, k.backRows = pc.batchesFor(k.scanned), k.scanned
	case opIndexJoin:
		k.outBatches = pc.batchesFor(k.matches)
	case opHashJoin:
		k.chunks = pc.batchesFor(k.build)
		k.outBatches = pc.batchesFor(k.matches)
	}
	k.bindFlows(n, in)
	return k
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

// toucher returns the planner's stand-in for vec.Batch.Col on the batches
// of f: the first touch of a column a lazily backed batch has not
// materialized yet charges its materialization and marks it.
func toucher(s exec.Sink, f *flow) func(col int) {
	return func(col int) {
		if f.mat != nil && !f.mat[col] {
			f.mat[col] = true
			vec.ChargeMaterialize(s, exec.Card{Batches: f.batches, In: f.rows}, 0)
		}
	}
}

// chargeProject charges a vectorized projection of c: its driver dispatch
// and one kernel program per output expression.
func chargeProject(s exec.Sink, c exec.Card, exprs []*vec.Prog, touch func(col int)) {
	vec.ChargeDispatch(s, c)
	for _, p := range exprs {
		p.Charge(s, c, touch)
	}
}

// chargeVec issues the modelled charges of n's vectorized operator at k,
// given the flows its children hand over, and returns the flow n hands its
// own consumer. Only columns a node's kernels reference materialize here;
// the rest do where (and if) a parent first touches them — which is how a
// consumer's column demand, not the producer's supply, ends up priced.
func chargeVec(n *Node, pr *progs, k cards, s exec.Sink, in []*flow) *flow {
	// The batches n's kernels run over: the first child's, at the bound
	// extent (a scan's are its own). Pass-through operators hand the same
	// lazily backed batches on; kernel outputs are fully materialized.
	src := &flow{batches: k.batches, rows: k.backRows, mat: map[int]bool{}}
	if len(in) > 0 {
		src.mat = copyMat(in[0].mat)
	}
	touch := toucher(s, src)
	made := &flow{batches: k.batches, rows: k.backRows}
	arriving := exec.Card{Batches: k.batches, In: k.in, Out: k.out}
	switch n.Kind {
	case opSeqScan:
		// The same heap traffic as the row scan (model), a driver dispatch
		// per batch, then the pushed predicate; no output-row copy — batches
		// go to the parent by reference.
		vec.ChargeScan(s, exec.Card{Batches: k.batches}, 0)
		if pr.filter != nil {
			pr.filter.ChargeFilter(s, exec.Card{Batches: k.batches, In: k.scanned, Out: k.out}, touch)
		}
		return src
	case opIndexScan:
		// The same B-tree and heap traffic as the row scan (model); in place
		// of its per-entry interpretation the fetch primitive per batch of
		// entries, then the residual over the fetched rows.
		fetched := exec.Card{Batches: k.batches, In: k.scanned, Out: k.scanned}
		vec.ChargeFetch(s, fetched, 0)
		if pr.filter != nil {
			fetched.Out = k.out
			pr.filter.ChargeFilter(s, fetched, touch)
		}
		return src
	case opIndexJoin:
		// One key kernel per probe batch over its materialized key column;
		// then per output batch the fetch primitive and the gather that
		// assembles probe and inner rows, and the residual over the joined
		// batch. Lookups and fetches themselves are the model's.
		vec.ChargeDispatch(s, arriving)
		touch(n.OuterKey)
		vec.ChargeJoinProbe(s, arriving, 0)
		matched := exec.Card{Batches: k.outBatches, In: k.matches, Out: k.matches}
		vec.ChargeFetch(s, matched, 0)
		vec.ChargeDispatch(s, matched)
		vec.ChargeJoinGather(s, matched, vec.RowLines(n.Kids[0].schema.RowWidth()), vec.RowLines(n.Table.Schema().RowWidth()), 0)
		out := &flow{batches: k.outBatches, rows: k.matches, mat: map[int]bool{}}
		if pr.filter != nil {
			matched.Out = k.out
			pr.filter.ChargeFilter(s, matched, toucher(s, out))
		}
		return out
	case opFilter:
		// The batch passes through by reference: the output stays lazy.
		pr.filter.ChargeFilter(s, arriving, touch)
		return src
	case opPrune:
		vec.ChargePrune(s, arriving, len(n.Cols))
		for _, c := range n.Cols {
			touch(c)
		}
	case opProject:
		chargeProject(s, arriving, pr.exprs, touch)
	case opAggregate:
		// Key and argument kernels and one table update per batch; then the
		// finalizing table scan, one materialization primitive per output
		// column per group batch, and the select-list re-projection.
		for _, p := range pr.groups {
			p.Charge(s, arriving, touch)
		}
		for _, p := range pr.args {
			if p != nil {
				p.Charge(s, arriving, touch)
			}
		}
		vec.ChargeAggUpdate(s, arriving, len(n.Aggs), 0)
		groups := exec.Card{Batches: k.outBatches, In: k.out}
		vec.ChargeAggFinalize(s, exec.Card{Batches: 1, In: k.out}, len(n.GroupExprs), len(n.Aggs), 0)
		for i := len(n.GroupExprs) + len(n.Aggs); i > 0; i-- {
			vec.ChargeMaterialize(s, groups, 0)
		}
		made = &flow{batches: k.outBatches, rows: k.out}
		chargeProject(s, groups, pr.post, toucher(s, made))
	case opHashJoin:
		// Build: a collect dispatch per batch, the chunked hashing of the
		// row buffer, an entry store per row. Probe: the key column of a
		// lazily backed probe batch materializes, then one key-hash kernel
		// per batch. Matches: one gather per output batch. The output is
		// backed by the assembled rows, so which of its columns become
		// vectors is priced where a consumer (or the residual here) touches
		// them.
		buildLines := vec.RowLines(n.Kids[1].schema.RowWidth())
		vec.ChargeDispatch(s, exec.Card{Batches: k.buildBatches})
		vec.ChargeJoinBuild(s, exec.Card{Batches: k.chunks, In: k.build}, buildLines, 0)
		vec.ChargeJoinInsert(s, exec.Card{In: k.build}, 0)
		vec.ChargeDispatch(s, arriving)
		touch(n.OuterKey)
		vec.ChargeJoinProbe(s, arriving, 0)
		matched := exec.Card{Batches: k.outBatches, In: k.matches, Out: k.out}
		vec.ChargeDispatch(s, matched)
		vec.ChargeJoinGather(s, matched, vec.RowLines(n.Kids[0].schema.RowWidth()), buildLines, 0)
		out := &flow{batches: k.outBatches, rows: k.matches, mat: map[int]bool{}}
		if pr.filter != nil {
			pr.filter.ChargeFilter(s, matched, toucher(s, out))
		}
		return out
	case opSort:
		// Bulk key extraction (kernels plus one packing primitive per key
		// per batch), a collect dispatch per batch, the chunked fill, the
		// placement, and a lazily backed emit with no per-row output copy.
		for _, p := range pr.keys {
			p.Charge(s, arriving, touch)
			vec.ChargeSortPack(s, arriving, 0, p.Const(), 0)
		}
		vec.ChargeDispatch(s, arriving)                     // collect
		vec.ChargeDispatch(s, exec.Card{Batches: k.chunks}) // fill, chunk by chunk
		exec.ChargeSortStore(s, arriving, 0)                // fill
		exec.ChargeSortStore(s, arriving, 0)                // placement
		vec.ChargeSortEmit(s, exec.Card{Batches: k.outBatches, In: k.in}, 0)
		return &flow{batches: k.outBatches, rows: k.out, mat: map[int]bool{}}
	}
	return made
}
