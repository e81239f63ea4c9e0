package vec

import (
	"math"
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
}
