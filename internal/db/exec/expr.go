package exec

import (
	"fmt"
	"strings"

	"energydb/internal/db/value"
)

// Expr is a scalar expression over a row.
type Expr interface {
	// Eval computes the value; simulation cost is charged by the caller
	// via Ctx.EvalCost(Nodes()).
	Eval(row value.Row) value.Value
	// Nodes returns the expression tree size, used for cost simulation.
	Nodes() int
	String() string
}

// Col references a column by position.
type Col struct {
	Idx  int
	Name string
}

// Eval implements Expr.
func (c Col) Eval(row value.Row) value.Value { return row[c.Idx] }

// Nodes implements Expr.
func (c Col) Nodes() int { return 1 }

func (c Col) String() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("$%d", c.Idx)
}

// Const is a literal.
type Const struct{ V value.Value }

// Eval implements Expr.
func (c Const) Eval(value.Row) value.Value { return c.V }

// Nodes implements Expr.
func (c Const) Nodes() int { return 1 }

func (c Const) String() string { return c.V.String() }

// BinOpKind enumerates binary operators.
type BinOpKind int

// Binary operators.
const (
	OpAdd BinOpKind = iota
	OpSub
	OpMul
	OpDiv
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var binOpNames = map[BinOpKind]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR",
}

// BinOp applies a binary operator.
type BinOp struct {
	Op   BinOpKind
	L, R Expr
}

// Eval implements Expr.
func (b BinOp) Eval(row value.Row) value.Value {
	l := b.L.Eval(row)
	// Short-circuit booleans.
	switch b.Op {
	case OpAnd:
		if !Truthy(l) {
			return value.Int(0)
		}
		return boolVal(Truthy(b.R.Eval(row)))
	case OpOr:
		if Truthy(l) {
			return value.Int(1)
		}
		return boolVal(Truthy(b.R.Eval(row)))
	}
	return ApplyBin(b.Op, l, b.R.Eval(row))
}

// ApplyBin applies a binary operator to already-evaluated operands. It is
// the single source of truth for operator semantics (Int-preserving
// arithmetic, NULL on divide-by-zero, collating comparisons) shared by the
// row interpreter above and the vectorized kernels, so the two paths cannot
// drift. AND/OR here are non-short-circuit (both operands already
// evaluated), which agrees with BinOp.Eval for pure operand expressions.
func ApplyBin(op BinOpKind, l, r value.Value) value.Value {
	switch op {
	case OpAnd:
		return boolVal(Truthy(l) && Truthy(r))
	case OpOr:
		return boolVal(Truthy(l) || Truthy(r))
	case OpAdd, OpSub, OpMul, OpDiv:
		lf, rf := l.AsFloat(), r.AsFloat()
		var out float64
		switch op {
		case OpAdd:
			out = lf + rf
		case OpSub:
			out = lf - rf
		case OpMul:
			out = lf * rf
		case OpDiv:
			if rf == 0 {
				return value.Null()
			}
			out = lf / rf
		}
		if l.T == value.TypeInt && r.T == value.TypeInt && op != OpDiv {
			return value.Int(int64(out))
		}
		return value.Float(out)
	default:
		c := value.Compare(l, r)
		switch op {
		case OpEq:
			return boolVal(c == 0)
		case OpNe:
			return boolVal(c != 0)
		case OpLt:
			return boolVal(c < 0)
		case OpLe:
			return boolVal(c <= 0)
		case OpGt:
			return boolVal(c > 0)
		case OpGe:
			return boolVal(c >= 0)
		}
	}
	return value.Null()
}

// Nodes implements Expr.
func (b BinOp) Nodes() int { return 1 + b.L.Nodes() + b.R.Nodes() }

func (b BinOp) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, binOpNames[b.Op], b.R)
}

// Not negates a boolean expression.
type Not struct{ E Expr }

// Eval implements Expr.
func (n Not) Eval(row value.Row) value.Value { return boolVal(!Truthy(n.E.Eval(row))) }

// Nodes implements Expr.
func (n Not) Nodes() int { return 1 + n.E.Nodes() }

func (n Not) String() string { return fmt.Sprintf("NOT %s", n.E) }

// Like matches a string column against a pattern with %-wildcards at the
// edges (prefix%, %suffix, %contains%), the forms TPC-H uses.
type Like struct {
	E       Expr
	Pattern string
}

// Eval implements Expr.
func (l Like) Eval(row value.Row) value.Value {
	return boolVal(LikeMatch(l.E.Eval(row).S, l.Pattern))
}

// LikeMatch reports whether s matches an edge-%-wildcard LIKE pattern
// (prefix%, %suffix, %contains%, or exact). Shared by the row interpreter
// and the vectorized kernels.
func LikeMatch(s, p string) bool {
	switch {
	case strings.HasPrefix(p, "%") && strings.HasSuffix(p, "%"):
		return strings.Contains(s, strings.Trim(p, "%"))
	case strings.HasPrefix(p, "%"):
		return strings.HasSuffix(s, strings.TrimPrefix(p, "%"))
	case strings.HasSuffix(p, "%"):
		return strings.HasPrefix(s, strings.TrimSuffix(p, "%"))
	default:
		return s == p
	}
}

// Nodes implements Expr.
func (l Like) Nodes() int { return 2 + l.E.Nodes() }

func (l Like) String() string { return fmt.Sprintf("%s LIKE %q", l.E, l.Pattern) }

// InList tests membership in a constant list.
type InList struct {
	E    Expr
	List []value.Value
}

// Eval implements Expr.
func (in InList) Eval(row value.Row) value.Value {
	v := in.E.Eval(row)
	for _, c := range in.List {
		if value.Equal(v, c) {
			return value.Int(1)
		}
	}
	return value.Int(0)
}

// Nodes implements Expr.
func (in InList) Nodes() int { return 1 + in.E.Nodes() + len(in.List) }

func (in InList) String() string { return fmt.Sprintf("%s IN (...%d)", in.E, len(in.List)) }

// ExprNodes sums the node counts of the given expressions; nil expressions
// (an absent filter) count zero.
func ExprNodes(exprs ...Expr) int {
	n := 0
	for _, e := range exprs {
		if e != nil {
			n += e.Nodes()
		}
	}
	return n
}

// Truthy interprets a datum as a boolean.
func Truthy(v value.Value) bool {
	switch v.T {
	case value.TypeInt, value.TypeDate:
		return v.I != 0
	case value.TypeFloat:
		return v.F != 0
	case value.TypeStr:
		return v.S != ""
	default:
		return false
	}
}

func boolVal(b bool) value.Value {
	if b {
		return value.Int(1)
	}
	return value.Int(0)
}
