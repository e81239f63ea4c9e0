package vec

import (
	"math"
	"reflect"
	"testing"

	"energydb/internal/db/exec"
	"energydb/internal/db/value"
)

// kernels counts a program's kernel nodes: what one batch evaluates, and the
// planner charges, beyond column reads.
func kernels(p *Prog) int {
	n := 0
	for _, nd := range p.nodes {
		if _, ok := nd.e.(exec.Col); !ok {
			n++
		}
	}
	return n
}

// TestCompileSharesSubexpressions holds Compile to its structural key: a
// subexpression an expression list repeats is one node, and two expressions
// whose results can differ are never one.
func TestCompileSharesSubexpressions(t *testing.T) {
	col := func(i int, name string) exec.Expr { return exec.Col{Idx: i, Name: name} }
	num := func(v value.Value) exec.Expr { return exec.Const{V: v} }
	bin := func(op exec.BinOpKind, l, r exec.Expr) exec.Expr { return exec.BinOp{Op: op, L: l, R: r} }
	one := num(value.Int(1))

	// TPC-H Q1's aggregate arguments, in its select-list order: sum_qty,
	// sum_base_price, sum_disc_price, sum_charge, avg_qty, avg_price,
	// avg_disc and count_order's none.
	qty, price, disc, tax := col(4, "l_quantity"), col(5, "l_extendedprice"), col(6, "l_discount"), col(7, "l_tax")
	rev := bin(exec.OpMul, price, bin(exec.OpSub, one, disc))
	args := []exec.Expr{qty, price, rev, bin(exec.OpMul, rev, bin(exec.OpAdd, one, tax)), qty, price, disc, nil}
	alone := 0
	for _, e := range args {
		if e != nil {
			alone += kernels(Compile(e))
		}
	}
	p := Compile(args...)
	if got := kernels(p); got != 4 || alone != 6 {
		t.Errorf("Q1's aggregate arguments: %d kernels in one program, %d compiled one by one; want 4 and 6", got, alone)
	}
	if p.roots[0] != p.roots[4] || p.roots[1] != p.roots[5] || p.roots[7] != nil {
		t.Errorf("Q1's repeated arguments do not share roots, or COUNT(*)'s root is not nil")
	}

	for _, c := range []struct {
		name  string
		a, b  exec.Expr
		share bool
	}{
		{"same column, other name", col(2, "price"), col(2, "p"), true},
		{"same tree", bin(exec.OpAdd, col(0, ""), one), bin(exec.OpAdd, col(0, "id"), num(value.Int(1))), true},
		{"IN lists differing in one value",
			exec.InList{E: col(1, ""), List: []value.Value{value.Int(1), value.Int(2), value.Int(3)}},
			exec.InList{E: col(1, ""), List: []value.Value{value.Int(1), value.Int(2), value.Int(4)}}, false},
		{"two LIKE patterns", exec.Like{E: col(3, ""), Pattern: "a%"}, exec.Like{E: col(3, ""), Pattern: "%a"}, false},
		{"Int(1) and Float(1)", one, num(value.Float(1)), false},
		{"0.0 and -0.0", num(value.Float(0)), num(value.Float(math.Copysign(0, -1))), false},
		{"other operator", bin(exec.OpAdd, col(0, ""), one), bin(exec.OpSub, col(0, ""), one), false},
		{"other column", col(0, ""), col(1, ""), false},
	} {
		p := Compile(c.a, c.b)
		if got := p.roots[0] == p.roots[1]; got != c.share {
			t.Errorf("%s: %v and %v share a node: %v, want %v", c.name, c.a, c.b, got, c.share)
		}
	}

	// A filter program's conjunct roots are selection primitives, not nodes
	// of its sequence; an operand two conjuncts share is one node.
	twice := bin(exec.OpMul, price, num(value.Float(2)))
	p = CompileFilter(bin(exec.OpAnd, bin(exec.OpGt, twice, one), bin(exec.OpLt, twice, num(value.Int(3)))))
	if len(p.roots) != 2 || kernels(p) != 1 {
		t.Errorf("(price*2 > 1) AND (price*2 < 3): %d conjuncts over %d kernels, want 2 over 1", len(p.roots), kernels(p))
	}
}

// TestConjunctNarrowing holds a filter program, which narrows the selection
// one conjunct at a time, to the row interpreter: a scan keeps exactly the
// rows where exec.Truthy(pred.Eval(row)) holds, and its meter holds exactly
// what ChargeFilter charges at the rows that reached each conjunct. The
// predicates cover NULL columns (NULL sorts below every value), the NULL of
// a divide by zero, OR, NOT, LIKE and IN conjuncts, bare-column and constant
// conjuncts, a subexpression two conjuncts share, both nestings of the AND
// tree, and a selection that empties halfway, after which the remaining
// conjuncts still dispatch.
func TestConjunctNarrowing(t *testing.T) {
	bin := func(op exec.BinOpKind, l, r exec.Expr) exec.Expr { return exec.BinOp{Op: op, L: l, R: r} }
	and := func(cs ...exec.Expr) exec.Expr {
		e := cs[0]
		for _, c := range cs[1:] {
			e = bin(exec.OpAnd, e, c)
		}
		return e
	}
	num := func(v value.Value) exec.Expr { return exec.Const{V: v} }
	i := func(v int64) exec.Expr { return num(value.Int(v)) }
	f := func(v float64) exec.Expr { return num(value.Float(v)) }
	id, grp, price, name, day := col(0), col(1), col(2), col(3), col(4)
	for _, c := range []struct {
		name    string
		pred    exec.Expr
		emptied int // the conjunct, counting from 1, that leaves nothing selected; 0 for none
	}{
		{"NULL column", and(bin(exec.OpGt, price, f(10)), bin(exec.OpLt, grp, i(4)), bin(exec.OpLe, price, f(20))), 0},
		{"NULL-producing divide", and(bin(exec.OpGt, bin(exec.OpDiv, id, bin(exec.OpSub, grp, i(2))), i(100)),
			bin(exec.OpNe, bin(exec.OpDiv, price, grp), f(1))), 0},
		{"OR conjunct", and(bin(exec.OpOr, bin(exec.OpEq, grp, i(1)), bin(exec.OpLt, price, f(5))), bin(exec.OpGt, id, i(500))), 0},
		{"NOT and LIKE conjuncts", and(exec.Not{E: exec.Like{E: name, Pattern: "a%"}}, exec.Like{E: name, Pattern: "%a"},
			bin(exec.OpLt, day, num(value.Date(200)))), 0},
		{"IN conjunct", and(exec.InList{E: grp, List: []value.Value{value.Int(1), value.Int(2), value.Int(5)}}, bin(exec.OpGe, price, f(3))), 0},
		{"constant TRUE", and(i(1), bin(exec.OpEq, grp, i(2)), f(0.5)), 0},
		{"constant FALSE", and(bin(exec.OpEq, grp, i(2)), i(0), bin(exec.OpGt, id, i(5))), 2},
		{"bare columns", and(price, grp, name), 0},
		{"shared subexpression", and(bin(exec.OpGt, bin(exec.OpMul, price, f(2)), f(10)), bin(exec.OpLt, bin(exec.OpMul, price, f(2)), f(30))), 0},
		{"right-nested", bin(exec.OpAnd, bin(exec.OpLt, id, i(2000)), bin(exec.OpAnd, bin(exec.OpGt, grp, i(0)), bin(exec.OpEq, price, f(2.5)))), 0},
		{"empties halfway", and(bin(exec.OpGt, grp, i(3)), bin(exec.OpLt, id, i(0)), exec.Like{E: name, Pattern: "b%"}, bin(exec.OpGt, price, f(1))), 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			er, tr := testEngine(t, 2500)
			want, err := exec.Collect(&exec.SeqScan{Ctx: er.Ctx, File: tr.File, Filter: c.pred})
			if err != nil {
				t.Fatal(err)
			}
			ev, tv := testEngine(t, 2500)
			ms := exec.NewMeterSet(ev.Ctx)
			m := &exec.Meter{Label: "scan"}
			got := collectVec(t, &Metered{Set: ms, M: m, Child: &Scan{Ctx: ev.Ctx, File: tv.File, Pred: c.pred, BatchSize: 256}})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: the vector filter keeps %d rows, the row filter %d", c.pred, len(got), len(want))
			}
			conj := conjunctCounts(t, c.pred, &exec.SeqScan{Ctx: er.Ctx, File: tr.File})
			if len(conj) < 3 {
				t.Fatalf("%v: %d conjuncts, want at least two", c.pred, len(conj)-1)
			}
			if c.emptied > 0 && (conj[c.emptied-1] == 0 || conj[c.emptied] != 0) {
				t.Fatalf("%v: rows reaching each conjunct %v, want the selection emptied by conjunct %d", c.pred, conj, c.emptied)
			}
			checkCharges(t, m, scanCharges(ev, m, c.pred, conj, map[int]ColState{}, 0))
		})
	}
}
