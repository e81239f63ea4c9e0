package plan

import (
	"fmt"
	"strings"

	"energydb/internal/db/catalog"
	"energydb/internal/db/exec"
	"energydb/internal/db/sql"
	"energydb/internal/db/value"
)

// monthDays is the cumulative day count at the start of each month under
// the generator's leap-free calendar (tpch.MkDate uses the same one).
var monthDays = [12]int{0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334}

// dateLiteral parses a 'YYYY-MM-DD' string into a date datum (days since
// the 1992-01-01 TPC-H epoch, leap-free calendar). String literals shaped
// like dates are compiled to date values so comparisons against date
// columns order chronologically; value.Compare would otherwise compare a
// date's empty string field against the literal.
func dateLiteral(s string) (value.Value, bool) {
	if len(s) != 10 || s[4] != '-' || s[7] != '-' {
		return value.Value{}, false
	}
	num := func(sub string) (int, bool) {
		n := 0
		for i := 0; i < len(sub); i++ {
			if sub[i] < '0' || sub[i] > '9' {
				return 0, false
			}
			n = n*10 + int(sub[i]-'0')
		}
		return n, true
	}
	y, ok1 := num(s[0:4])
	m, ok2 := num(s[5:7])
	d, ok3 := num(s[8:10])
	if !ok1 || !ok2 || !ok3 || m < 1 || m > 12 || d < 1 || d > 31 {
		return value.Value{}, false
	}
	return value.Date(int64((y-1992)*365 + monthDays[m-1] + d - 1)), true
}

// literal converts a string literal, promoting date-shaped strings.
func literal(s string) value.Value {
	if d, ok := dateLiteral(s); ok {
		return d
	}
	return value.Str(s)
}

func aggKind(name string) (exec.AggKind, error) {
	switch strings.ToUpper(name) {
	case "SUM":
		return exec.AggSum, nil
	case "AVG":
		return exec.AggAvg, nil
	case "COUNT":
		return exec.AggCount, nil
	case "MIN":
		return exec.AggMin, nil
	case "MAX":
		return exec.AggMax, nil
	default:
		return 0, fmt.Errorf("plan: unknown aggregate %q", name)
	}
}

// compile lowers an AST node to an executor expression over the schema.
func compile(n sql.Node, schema *catalog.Schema) (exec.Expr, error) {
	switch v := n.(type) {
	case sql.ColNode:
		idx, err := schema.ColIndex(v.Name)
		if err != nil {
			return nil, err
		}
		return exec.Col{Idx: idx, Name: v.Name}, nil
	case sql.NumNode:
		if v.Value == float64(int64(v.Value)) {
			return exec.Const{V: value.Int(int64(v.Value))}, nil
		}
		return exec.Const{V: value.Float(v.Value)}, nil
	case sql.StrNode:
		return exec.Const{V: literal(v.Value)}, nil
	case sql.NotNode:
		e, err := compile(v.E, schema)
		if err != nil {
			return nil, err
		}
		return exec.Not{E: e}, nil
	case sql.LikeNode:
		e, err := compile(v.E, schema)
		if err != nil {
			return nil, err
		}
		return exec.Like{E: e, Pattern: v.Pattern}, nil
	case sql.InNode:
		e, err := compile(v.E, schema)
		if err != nil {
			return nil, err
		}
		list := make([]value.Value, 0, len(v.List))
		for _, item := range v.List {
			c, err := compile(item, schema)
			if err != nil {
				return nil, err
			}
			k, ok := c.(exec.Const)
			if !ok {
				return nil, fmt.Errorf("plan: IN list must contain literals")
			}
			list = append(list, k.V)
		}
		return exec.InList{E: e, List: list}, nil
	case sql.BetweenNode:
		e, err := compile(v.E, schema)
		if err != nil {
			return nil, err
		}
		lo, err := compile(v.Lo, schema)
		if err != nil {
			return nil, err
		}
		hi, err := compile(v.Hi, schema)
		if err != nil {
			return nil, err
		}
		// SQL BETWEEN is inclusive on both ends.
		return exec.BinOp{Op: exec.OpAnd,
			L: exec.BinOp{Op: exec.OpGe, L: e, R: lo},
			R: exec.BinOp{Op: exec.OpLe, L: e, R: hi},
		}, nil
	case sql.BinNode:
		l, err := compile(v.L, schema)
		if err != nil {
			return nil, err
		}
		r, err := compile(v.R, schema)
		if err != nil {
			return nil, err
		}
		op, ok := binOps[v.Op]
		if !ok {
			return nil, fmt.Errorf("plan: unknown operator %q", v.Op)
		}
		return exec.BinOp{Op: op, L: l, R: r}, nil
	case sql.AggNode:
		return nil, fmt.Errorf("plan: aggregate %s used outside the select list", v.Func)
	default:
		return nil, fmt.Errorf("plan: cannot compile %T", n)
	}
}

var binOps = map[string]exec.BinOpKind{
	"+": exec.OpAdd, "-": exec.OpSub, "*": exec.OpMul, "/": exec.OpDiv,
	"=": exec.OpEq, "<>": exec.OpNe, "<": exec.OpLt, "<=": exec.OpLe,
	">": exec.OpGt, ">=": exec.OpGe, "AND": exec.OpAnd, "OR": exec.OpOr,
}

// compileWithAliases resolves output-column aliases before falling back to
// schema resolution (ORDER BY can name select-list aliases).
func compileWithAliases(n sql.Node, schema *catalog.Schema, aliases map[string]int) (exec.Expr, error) {
	if c, ok := n.(sql.ColNode); ok {
		if idx, ok := aliases[c.Name]; ok {
			return exec.Col{Idx: idx, Name: c.Name}, nil
		}
	}
	return compile(n, schema)
}

// render produces a canonical string for AST matching (GROUP BY keys) and
// EXPLAIN display.
func render(n sql.Node) string {
	switch v := n.(type) {
	case sql.ColNode:
		return v.Name
	case sql.NumNode:
		return fmt.Sprintf("%g", v.Value)
	case sql.StrNode:
		return fmt.Sprintf("'%s'", v.Value)
	case sql.BinNode:
		return fmt.Sprintf("(%s %s %s)", render(v.L), v.Op, render(v.R))
	case sql.NotNode:
		return "NOT " + render(v.E)
	case sql.LikeNode:
		return fmt.Sprintf("%s LIKE '%s'", render(v.E), v.Pattern)
	case sql.InNode:
		parts := make([]string, len(v.List))
		for i, e := range v.List {
			parts[i] = render(e)
		}
		return fmt.Sprintf("%s IN (%s)", render(v.E), strings.Join(parts, ", "))
	case sql.BetweenNode:
		return fmt.Sprintf("%s BETWEEN %s AND %s", render(v.E), render(v.Lo), render(v.Hi))
	case sql.AggNode:
		if v.Arg == nil {
			return strings.ToLower(v.Func) + "(*)"
		}
		return fmt.Sprintf("%s(%s)", strings.ToLower(v.Func), render(v.Arg))
	default:
		return "?"
	}
}

// andChain folds conjuncts back into one AND tree (nil for none).
func andChain(conds []sql.Node) sql.Node {
	var out sql.Node
	for _, c := range conds {
		if out == nil {
			out = c
		} else {
			out = sql.BinNode{Op: "AND", L: out, R: c}
		}
	}
	return out
}

// splitConjuncts flattens a predicate's top-level AND chain.
func splitConjuncts(n sql.Node) []sql.Node {
	if n == nil {
		return nil
	}
	if b, ok := n.(sql.BinNode); ok && b.Op == "AND" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []sql.Node{n}
}

// filterConjuncts lists the conjuncts vec.Conjuncts finds in the predicate
// compiled from conds: each AND operand, and a BETWEEN as its two inclusive
// bounds, in order.
func filterConjuncts(conds []sql.Node) []sql.Node {
	var out []sql.Node
	for _, c := range conds {
		for _, c := range splitConjuncts(c) {
			if b, ok := c.(sql.BetweenNode); ok {
				out = append(out, sql.BinNode{Op: ">=", L: b.E, R: b.Lo}, sql.BinNode{Op: "<=", L: b.E, R: b.Hi})
				continue
			}
			out = append(out, c)
		}
	}
	return out
}

// colRefs collects the column names a node references.
func colRefs(n sql.Node, out map[string]bool) {
	switch v := n.(type) {
	case sql.ColNode:
		out[v.Name] = true
	case sql.BinNode:
		colRefs(v.L, out)
		colRefs(v.R, out)
	case sql.NotNode:
		colRefs(v.E, out)
	case sql.LikeNode:
		colRefs(v.E, out)
	case sql.InNode:
		colRefs(v.E, out)
		for _, e := range v.List {
			colRefs(e, out)
		}
	case sql.BetweenNode:
		colRefs(v.E, out)
		colRefs(v.Lo, out)
		colRefs(v.Hi, out)
	case sql.AggNode:
		if v.Arg != nil {
			colRefs(v.Arg, out)
		}
	}
}

// hasAggregateItem reports whether any select item or the given flag makes
// the statement aggregated.
func aggregated(stmt *sql.SelectStmt) bool {
	if len(stmt.GroupBy) > 0 {
		return true
	}
	for _, it := range stmt.Items {
		if !it.Star && sql.HasAggregate(it.Expr) {
			return true
		}
	}
	return false
}
