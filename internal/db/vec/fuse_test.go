package vec

import (
	"reflect"
	"sync/atomic"
	"testing"

	"energydb/internal/db/exec"
	"energydb/internal/db/value"
)

// traffic is an exec.Sink that counts what a fused loop issues: dispatches,
// payload loads and stores, and ALU work.
type traffic struct {
	tuples, loads, stores, adds, others float64
}

func (t *traffic) Tuples(n float64)           { t.tuples += n }
func (t *traffic) Evals(float64, int)         {}
func (t *traffic) Emits(float64, int)         {}
func (t *traffic) Loads(_ uint64, n float64)  { t.loads += n }
func (t *traffic) Stores(_ uint64, n float64) { t.stores += n }
func (t *traffic) Stream(uint64, float64)     {}
func (t *traffic) Adds(n float64)             { t.adds += n }
func (t *traffic) Others(n float64)           { t.others += n }

// Random counts nothing: no fused loop loads at a data-dependent address.
func (t *traffic) Random(uint64, float64, float64, bool) {}

func bin(op exec.BinOpKind, l, r exec.Expr) exec.Expr { return exec.BinOp{Op: op, L: l, R: r} }

func num(v float64) exec.Expr { return exec.Const{V: value.Float(v)} }

// charged is what the program's one loop charges over one batch of n
// selected elements.
func charged(p *Prog, n float64) traffic {
	var t traffic
	p.Charge(&t, exec.Card{Batches: 1, In: n}, func(int, exec.Card, Use) {})
	return t
}

// TestFusedInteriorStaysInRegisters: (price * 2) + id computes price * 2 as
// an interior node, which its consumer reads in the same loop. The loop
// loads the two columns, stores only the root and dispatches once.
func TestFusedInteriorStaysInRegisters(t *testing.T) {
	p := Compile(bin(exec.OpAdd, bin(exec.OpMul, col(2), num(2)), col(0)))
	l := p.loops[0]
	interior := p.roots[0].l
	if among(l.stores, interior) || among(l.loads, interior) || len(l.stores) != 1 || len(l.loads) != 2 {
		t.Fatalf("loop stores %d values and loads %d, the interior among them: %v / %v; want the root stored and the two columns loaded",
			len(l.stores), len(l.loads), among(l.stores, interior), among(l.loads, interior))
	}
	if got, want := charged(p, 100), (traffic{tuples: 1, loads: 200, stores: 100, adds: 800}); got != want {
		t.Fatalf("charged %+v, want %+v", got, want)
	}
}

// among reports whether n is among ns.
func among(ns []*progNode, n *progNode) bool {
	for _, m := range ns {
		if m == n {
			return true
		}
	}
	return false
}

// TestFusedCrossingValueStoredOnce: price * 2 BETWEEN 1 AND 3 is two
// conjuncts over one shared node. The first conjunct's loop computes it and
// stores it once, the second loads it once over its own candidates; each
// conjunct is one dispatch, its operand kernel fused into its selection.
func TestFusedCrossingValueStoredOnce(t *testing.T) {
	twice := bin(exec.OpMul, col(2), num(2))
	p := CompileFilter(bin(exec.OpAnd, bin(exec.OpGe, twice, num(1)), bin(exec.OpLe, twice, num(3))))
	shared := p.roots[0].l
	if shared != p.roots[1].l {
		t.Fatal("the two conjuncts do not share price * 2")
	}
	first, second := p.loops[0], p.loops[1]
	if !reflect.DeepEqual(first.stores, []*progNode{shared}) || !reflect.DeepEqual(second.loads, []*progNode{shared}) ||
		len(second.stores) != 0 || first.kernels != 2 || second.kernels != 1 {
		t.Fatalf("first loop: %d kernels, stores %d values; second: %d kernels, loads %d, stores %d; want 2 storing the shared node, then 1 loading it",
			first.kernels, len(first.stores), second.kernels, len(second.loads), len(second.stores))
	}
	var got traffic
	p.ChargeFilter(&got, 1, []float64{100, 40, 10}, func(int, exec.Card, Use) {})
	want := traffic{
		tuples: 2,
		loads:  100 + 40,      // price in the first loop, price * 2 in the second
		stores: 100 + 40 + 10, // price * 2 once, then each selection
		adds:   4 * (2*100 + 40),
		others: 100 + 40,
	}
	if got != want {
		t.Fatalf("charged %+v, want %+v", got, want)
	}
}

// TestFusedSpillsExcess: an aggregation over n arguments price_i * 2 holds
// every argument to the loop's end. At the last kernel the n-1 earlier
// arguments, its column and its own result are live: n+1 values. At 15
// arguments that is the budget; at 20 the loop spills exactly the five over
// it, a store and a load per element each.
func TestFusedSpillsExcess(t *testing.T) {
	for _, c := range []struct{ args, spills int }{{15, 0}, {20, 5}} {
		aggs := make([]exec.AggSpec, c.args)
		for i := range aggs {
			aggs[i] = exec.AggSpec{Kind: exec.AggSum, Arg: bin(exec.OpMul, col(i), num(2))}
		}
		p := CompileAgg(nil, aggs)
		if got := len(p.loops[0].spills); got != c.spills {
			t.Errorf("%d arguments: %d spills, want %d", c.args, got, c.spills)
		}
		got := charged(p, 100)
		want := traffic{
			tuples: 1,
			loads:  100 * float64(c.args+c.spills),
			stores: 100 * float64(c.spills),
			adds:   400 * float64(c.args),
		}
		if got != want {
			t.Errorf("%d arguments: charged %+v, want %+v", c.args, got, want)
		}
	}
}

// TestFusedQ1Aggregate: TPC-H Q1's aggregate program computes its shared
// l_extendedprice * (1 - l_discount) once and stores nothing — its keys
// are columns and its arguments feed the table update in registers. Its
// loop loads each column it reads once: the three a kernel reads, and
// l_quantity and the two keys, which only the table update takes. Compiled
// as a projection of the same list, the four kernel roots would each be
// stored.
func TestFusedQ1Aggregate(t *testing.T) {
	one := exec.Const{V: value.Int(1)}
	qty, price, disc, tax := col(4), col(5), col(6), col(7)
	rev := bin(exec.OpMul, price, bin(exec.OpSub, one, disc))
	aggs := []exec.AggSpec{
		{Kind: exec.AggSum, Arg: qty}, {Kind: exec.AggSum, Arg: price}, {Kind: exec.AggSum, Arg: rev},
		{Kind: exec.AggSum, Arg: bin(exec.OpMul, rev, bin(exec.OpAdd, one, tax))},
		{Kind: exec.AggAvg, Arg: qty}, {Kind: exec.AggAvg, Arg: price}, {Kind: exec.AggAvg, Arg: disc},
		{Kind: exec.AggCount},
	}
	groupBy := []exec.Expr{col(8), col(9)}
	p := CompileAgg(groupBy, aggs)
	l := p.loops[0]
	if l.kernels != 4 || len(l.stores) != 0 || len(l.loads) != 6 || len(l.spills) != 0 {
		t.Fatalf("Q1's aggregate loop: %d kernels, %d loads, %d stores, %d spills; want 4, 6, 0, 0",
			l.kernels, len(l.loads), len(l.stores), len(l.spills))
	}
	if got, want := charged(p, 100), (traffic{tuples: 1, loads: 600, adds: 1600}); got != want {
		t.Fatalf("charged %+v, want %+v", got, want)
	}
	if got := len(Compile(exec.AggExprs(groupBy, aggs)...).loops[0].stores); got != 2 {
		t.Fatalf("as a projection the list stores %d roots, want rev and the charge", got)
	}
}

// cancelAfter raises a cancel flag as it hands out its after-th batch and
// counts the batches it was asked for.
type cancelAfter struct {
	Operator
	flag          *atomic.Bool
	after, pulled int
}

func (c *cancelAfter) Next() (*Batch, error) {
	b, err := c.Operator.Next()
	if b != nil {
		c.pulled++
		if c.pulled == c.after {
			c.flag.Store(true)
		}
	}
	return b, err
}

// TestCancelAggKernelProgram cancels an aggregation mid-flight whose key and
// arguments are all kernels, so each batch's program is one fused loop with
// one dispatch where it used to dispatch per kernel: it stops within one
// batch of the flag being raised.
func TestCancelAggKernelProgram(t *testing.T) {
	e, tbl := testEngine(t, 3000)
	var flag atomic.Bool
	e.Ctx.Cancel = &flag
	src := &cancelAfter{Operator: &Scan{Ctx: e.Ctx, File: tbl.File, BatchSize: 64}, flag: &flag, after: 5}
	agg := &Agg{Ctx: e.Ctx, Child: src, GroupBy: []exec.Expr{bin(exec.OpMul, col(1), num(2))}, Aggs: []exec.AggSpec{
		{Kind: exec.AggSum, Arg: bin(exec.OpMul, col(2), bin(exec.OpSub, num(1), col(1)))},
		{Kind: exec.AggMax, Arg: bin(exec.OpAdd, col(0), col(1))},
	}}
	if _, err := exec.Drain(&RowSource{Child: agg}); err != exec.ErrCanceled {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if src.pulled > src.after+1 {
		t.Fatalf("the aggregation pulled %d batches, the flag went up at batch %d; want it stopped within one batch", src.pulled, src.after)
	}
}
