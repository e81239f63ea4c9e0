package plan

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"energydb/internal/cpusim"
	"energydb/internal/db/btree"
	"energydb/internal/db/engine"
	"energydb/internal/db/exec"
	"energydb/internal/db/vec"
	"energydb/internal/memsim"
	"energydb/internal/tpch"
)

// conjunctCounts counts, over the rows n's filter tests, the rows reaching
// each of the filter's conjuncts and the rows leaving the last: n re-run on
// the row path without its filter, and each row's conjuncts evaluated in
// order by the row interpreter until one fails.
func conjunctCounts(t *testing.T, p *Prepared, n *Node) []float64 {
	t.Helper()
	bare := *n
	bare.Mode, bare.Filter = ModeRow, nil
	op, err := p.instantiate(&bare, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	conj := vec.Conjuncts(n.Filter)
	counts := make([]float64, len(conj)+1)
	for _, r := range rows {
		i := 0
		for ; i < len(conj); i++ {
			counts[i]++
			if !exec.Truthy(conj[i].Eval(r)) {
				break
			}
		}
		if i == len(conj) {
			counts[i]++
		}
	}
	return counts
}

// observed binds n's cardinalities to what the meters counted, in the mode
// n ran in; in are the output flows of its children (vector mode).
func observed(t *testing.T, p *Prepared, n *Node, meters map[*Node]*exec.Meter, in []*flow) cards {
	e := p.E
	k := bind(n) // scanned: a full scan reads the whole heap
	own := meters[n].Emitted()
	k.out = float64(meters[n].Rows())
	k.matches = k.out
	if len(n.Kids) > 0 {
		k.in = float64(meters[n.Kids[0]].Rows())
	}
	if n.Kind == opHashJoin {
		k.build = float64(meters[n.Kids[1]].Rows())
	}
	if n.Mode != ModeVector {
		return k
	}
	if n.Filter != nil {
		k.conj = conjunctCounts(t, p, n)
	}
	k.outBatches = float64(own.Batches)
	switch n.Kind {
	case opSeqScan:
		k.batches, k.backRows = float64(own.Batches), float64(own.Positions)
	case opIndexScan:
		// The positions are the entries fetched before the residual narrows
		// them (the loaded data has no version a snapshot cannot see).
		k.batches, k.backRows = float64(own.Batches), float64(own.Positions)
		k.scanned = k.backRows
	case opHashJoin:
		// The output's positions are the pairs gathered before the residual
		// narrows them.
		k.chunks = math.Ceil(k.build / float64(vec.BatchSizeFor(e.M.Profile.Mem)))
		k.matches = float64(own.Positions)
	case opIndexJoin:
		k.matches = float64(own.Positions)
	}
	switch n.Kind {
	case opHashJoin, opSort, opIndexJoin:
		// The buffering consumers skip a batch with nothing selected; what
		// they saw is metered, where the planner has flow.live's estimate.
		live := meters[n.Kids[0]].Emitted()
		k.batches, k.backRows = float64(live.Live), float64(live.LivePositions)
		if n.Kind == opHashJoin {
			k.buildBatches = float64(meters[n.Kids[1]].Emitted().Live)
		}
	default:
		k.bindFlows(n, in)
	}
	return k
}

// exactKind lists the operators whose add and plain-instruction counts are
// modelled charges alone, or, for the index operators in vector mode, those
// plus the B-tree's binary-search comparisons (treeWork). Sort is not among
// them — its comparator count depends on the data — nor are the row index
// operators, whose candidates before the filter are not metered.
func exactKind(n *Node) bool {
	switch n.Kind {
	case opSeqScan, opPrune, opProject, opAggregate, opHashJoin:
		return true
	case opIndexScan, opIndexJoin:
		return n.Mode == ModeVector
	}
	return false
}

// loadsExact lists the operators whose loads are all issued by charge
// functions: the hash join's and the aggregate's table loads included, and
// none of the heap or B-tree loads the cache model prices beside the
// charges.
func loadsExact(n *Node) bool {
	switch n.Kind {
	case opHashJoin, opAggregate, opProject, opPrune:
		return true
	}
	return false
}

// treeWork replays n's index traversals on a scratch hierarchy and returns
// the plain instructions the B-tree issued for them: the one part of an
// index operator's OtherOps that depends on the data rather than on a charge
// function. An index join's probe keys come from re-running its outer
// subtree.
func treeWork(t *testing.T, p *Prepared, n *Node) uint64 {
	t.Helper()
	scratch := memsim.New(p.E.M.Profile.Mem)
	switch n.Kind {
	case opIndexScan:
		tree := n.Table.Index(n.IdxCol).View(scratch)
		tree.Range(n.Lo, n.Hi)
	case opIndexJoin:
		tree := n.Table.Index(n.InnerColName).View(scratch)
		outer, err := p.instantiate(n.Kids[0], nil)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := exec.Collect(outer)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if !r[n.OuterKey].IsNull() {
				tree.Lookup(r[n.OuterKey], new(btree.Iter), nil)
			}
		}
	}
	return scratch.Counters().OtherOps
}

// checkExact re-evaluates every node's charge functions at the cardinalities
// the meters observed and requires the cache-independent counters to equal
// the node's exclusive meter delta: the add and plain-instruction counts,
// and for the loadsExact kinds the number of loads. cut marks a subtree a
// LIMIT may have stopped pulling from before it was drained: its meters then
// saw only part of what the operators buffered or finalized, so it is
// skipped down to the next blocking operator. It returns n's output flow
// (nil in row mode).
func checkExact(t *testing.T, label string, p *Prepared, n *Node, meters map[*Node]*exec.Meter, vecParent, cut bool) *flow {
	t.Helper()
	if n.Kind == opLimit {
		cut = true
	}
	var in []*flow
	for i, kid := range n.Kids {
		kidCut := cut
		switch {
		case n.Kind == opSort, n.Kind == opAggregate, n.Kind == opHashJoin && i == 1:
			kidCut = false // drained in Open, whatever is pulled from n later
		}
		in = append(in, checkExact(t, label, p, kid, meters, n.Mode == ModeVector, kidCut))
	}
	k := observed(t, p, n, meters, in)
	a := newCoster(p.E).newEst()
	var out *flow
	if n.Mode == ModeVector {
		out = chargeVec(n, compileVec(n), k, a, in)
		if !vecParent {
			chargeBoundary(n, exec.Card{Batches: k.outBatches, In: k.out}, a)
		}
	} else {
		chargeRow(n, k, a)
	}
	if !exactKind(n) || cut {
		return out
	}
	if n.Kind == opIndexScan || n.Kind == opIndexJoin {
		a.other += float64(treeWork(t, p, n))
	}
	if n.Kind == opHashJoin && n.Mode == ModeRow && n.Filter != nil {
		return out // candidates before the residual are not metered on the row path
	}
	got, want := meters[n].Own(), a.counters()
	if want.AddOps != got.AddOps || want.OtherOps != got.OtherOps {
		t.Errorf("%s: %s (mode=%s): charges at observed cardinalities give AddOps=%d OtherOps=%d, meter has AddOps=%d OtherOps=%d\n  cards %+v",
			label, n.Title(), n.Mode, want.AddOps, want.OtherOps, got.AddOps, got.OtherOps, k)
	}
	if loadsExact(n) && want.L1DAccesses != got.Loads {
		t.Errorf("%s: %s (mode=%s): charges at observed cardinalities give %d loads, meter has %d\n  cards %+v",
			label, n.Title(), n.Mode, want.L1DAccesses, got.Loads, k)
	}
	return out
}

// runExact plans and drains the statement under meters, checks every node
// and tallies the checked operator/mode pairs into seen.
func runExact(t *testing.T, label string, e *engine.Engine, text string, seen map[string]int) {
	t.Helper()
	p := prepare(t, e, text)
	op, meters, err := p.BuildMetered()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Drain(op); err != nil {
		t.Fatal(err)
	}
	checkExact(t, label, p, p.Root, meters, false, false)
	var count func(n *Node)
	count = func(n *Node) {
		if exactKind(n) {
			key := strings.Fields(n.Title())[0] + "/" + n.Mode.String()
			seen[key]++
			if n.Filter != nil && len(vec.Conjuncts(n.Filter)) > 1 {
				seen[key+" conjuncts"]++
			}
		}
		for _, kid := range n.Kids {
			count(kid)
		}
	}
	count(p.Root)
}

// TestChargesExactAtObservedCardinalities is the "exact by construction"
// property, checked: for every scan, prune, project, aggregate and hash-join
// node of the 22 TPC-H plans, in whichever mode it was planned, the
// planner's evaluation of the operator's charge functions — the same calls
// that price the node, fed the cardinalities the meters observed instead of
// estimates — reproduces the add and plain-instruction counts of
// the node's exclusive meter delta, chain tops including their RowSource
// boundary, and for the join, aggregate, project and prune nodes its load
// count. A charge the executor issues and the planner's binding omits
// (or the reverse) fails here whatever the ±25% X9 band would absorb.
func TestChargesExactAtObservedCardinalities(t *testing.T) {
	configs := []struct {
		kind    engine.Kind
		rowOnly bool
	}{{engine.SQLite, false}, {engine.PostgreSQL, false}, {engine.PostgreSQL, true}}
	for _, c := range configs {
		m := cpusim.NewMachine(cpusim.IntelI7_4790())
		e := engine.New(c.kind, m, engine.SettingBaseline)
		e.Knobs.DisableVectorExec = c.rowOnly
		tpch.Setup(e, tpch.Size10MB)
		seen := map[string]int{}
		for _, q := range tpch.SQLQueries() {
			runExact(t, fmt.Sprintf("%s Q%d", c.kind, q.ID), e, q.Text, seen)
		}
		t.Logf("%s (row only: %v): nodes by operator/mode: %v", c.kind, c.rowOnly, seen)
	}
}

// TestChargesExactVectorChains checks the same property on the operator and
// mode pairs no TPC-H plan contains at 10MB: vectorized projections, sorted
// chains and a vectorized hash join with its pruned build side — and
// projections and aggregates whose expressions share a subexpression, which
// both the operator and the planner evaluate once per batch, among them a
// TPC-H Q1-shaped aggregate whose arguments share a product and feed the
// table update unstored. It also names the filters that narrow one conjunct
// at a time: TPC-H Q6's batched index scan, whose residual is three
// comparisons, a hash join's residual of two cross-relation conjuncts, and a
// BETWEEN over a computed value that its first conjunct's loop stores for
// the second.
func TestChargesExactVectorChains(t *testing.T) {
	seen := map[string]int{}
	for _, q := range []string{
		"SELECT id, amount FROM facts WHERE amount > 1 ORDER BY amount DESC",
		"SELECT id + 1 AS x FROM facts WHERE amount > 1 ORDER BY x",
		"SELECT grp, COUNT(*) AS n, SUM(amount * 2) AS s FROM facts GROUP BY grp ORDER BY grp",
		"SELECT id FROM facts WHERE id < 40 ORDER BY amount",
		"SELECT id, amount * 2 FROM facts WHERE amount > 1 AND id < 4000",
		"SELECT amount * 2 AS a, amount * 2 + id AS b FROM facts WHERE amount > 1",
		"SELECT grp, SUM(amount * 2) AS s, SUM(amount * 2 * id) AS t FROM facts GROUP BY grp",
		"SELECT grp, SUM(amount) AS q, SUM(amount * (1 - grp)) AS r, SUM(amount * (1 - grp) * (1 + id)) AS c, " +
			"AVG(amount) AS a, AVG(grp) AS g, COUNT(*) AS n FROM facts WHERE id <= 4500 GROUP BY grp ORDER BY grp",
		"SELECT id, amount FROM facts WHERE amount * 2 BETWEEN 10 AND 40",
	} {
		runExact(t, q, vecTestEngine(t, 5000), q, seen)
	}
	for _, q := range []string{
		joinQuery,
		"SELECT id, label FROM facts JOIN dim ON grp = did WHERE amount < id",
		"SELECT id, label FROM facts JOIN dim ON grp = did WHERE did < id AND did * 2 < amount + 40",
	} {
		runExact(t, q, joinVecEngine(t, 4000, 6000), q, seen)
	}
	e := engine.New(engine.PostgreSQL, cpusim.NewMachine(cpusim.IntelI7_4790()), engine.SettingBaseline)
	tpch.Setup(e, tpch.Size10MB)
	q6, err := tpch.SQLByID(6)
	if err != nil {
		t.Fatal(err)
	}
	runExact(t, "PostgreSQL Q6", e, q6.Text, seen)
	for _, want := range []string{"Project/vector", "HashAggregate/vector", "HashJoin/vector", "SeqScan/vector",
		"IndexScan/vector conjuncts", "HashJoin/vector conjuncts"} {
		if seen[want] == 0 {
			t.Errorf("no %s node was checked: %v", want, seen)
		}
	}
	t.Logf("nodes by operator/mode: %v", seen)
}
